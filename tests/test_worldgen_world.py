"""Integration tests over the generated world (session fixture).

These validate that the generator's ground truth is *implemented* by
the actual zones/servers/network — the property the whole reproduction
rests on.
"""

import gc

import pytest

from repro.dns import DnsName, Resolver, ResolverCache, RRType
from repro.worldgen import WorldConfig
from repro.worldgen.faults import DefectMode
from repro.worldgen.generator import TargetStatus, WorldGenerator

N = DnsName.parse


@pytest.fixture(scope="module")
def resolver(world):
    return Resolver(
        world.network,
        world.root_addresses,
        cache=ResolverCache(world.clock),
        source=world.probe_source,
    )


class TestWorldShape:
    def test_knowledge_base_covers_all_members(self, world):
        assert len(world.knowledge_base) == 193

    def test_every_country_has_suffix_zone(self, world):
        assert len(world.suffix_zones) == 193
        for iso2, zone in world.suffix_zones.items():
            assert zone.apex_ns is not None
            assert zone.soa is not None

    def test_truth_statuses_partition(self, world):
        statuses = {t.status for t in world.truths.values()}
        assert statuses <= {
            TargetStatus.ALIVE,
            TargetStatus.REMOVED,
            TargetStatus.ORPHANED,
        }

    def test_status_shares_roughly_match_paper(self, world):
        truths = list(world.truths.values())
        total = len(truths)
        alive = sum(1 for t in truths if t.status == TargetStatus.ALIVE)
        removed = sum(1 for t in truths if t.status == TargetStatus.REMOVED)
        orphaned = sum(1 for t in truths if t.status == TargetStatus.ORPHANED)
        # Paper: 65% / 13% / 22%.  At tiny test scales the orphan share
        # shrinks (cluster carving needs enough domains per country), so
        # the bounds here are loose; the benchmark harness checks the
        # calibrated shares at its larger scale.
        assert 0.55 < alive / total < 0.88
        assert 0.03 < removed / total < 0.22
        assert 0.05 < orphaned / total < 0.32

    def test_pdns_has_data(self, world):
        assert len(world.pdns) > 1000


class TestGroundTruthHoldsOnTheWire:
    def test_alive_healthy_domains_resolve(self, world, resolver):
        healthy = [
            t
            for t in world.truths.values()
            if t.status == TargetStatus.ALIVE
            and t.plan is not None
            and not t.plan.stale
        ][:60]
        assert healthy
        for truth in healthy:
            result = resolver.resolve(truth.name, RRType.NS)
            assert result.ok, f"{truth.name} did not resolve"

    def test_removed_domains_nxdomain(self, world, resolver):
        removed = [
            t for t in world.truths.values() if t.status == TargetStatus.REMOVED
        ][:20]
        assert removed
        for truth in removed:
            result = resolver.resolve(truth.name, RRType.NS)
            assert result.status in ("nxdomain", "nodata"), str(truth.name)

    def test_orphaned_domains_unreachable(self, world, resolver):
        orphans = [
            t
            for t in world.truths.values()
            if t.status == TargetStatus.ORPHANED
            and t.parent in {c.root for c in world.history.clusters}
        ][:10]
        for truth in orphans:
            result = resolver.resolve(truth.name, RRType.NS)
            assert result.status == "servfail", str(truth.name)

    def test_stale_domains_have_delegation_but_no_service(self, world, resolver):
        stale = [
            t
            for t in world.truths.values()
            if t.status == TargetStatus.ALIVE
            and t.plan is not None
            and t.plan.stale
        ][:15]
        assert stale
        for truth in stale:
            result = resolver.resolve(truth.name, RRType.NS)
            assert not result.ok, str(truth.name)

    def test_unresponsive_broken_hosts_resolve_but_dont_answer(
        self, world, resolver
    ):
        checked = 0
        for truth in world.truths.values():
            if truth.status != TargetStatus.ALIVE or truth.plan is None:
                continue
            modes = truth.plan.defect_modes
            if truth.plan.stale or DefectMode.UNRESPONSIVE not in modes:
                continue
            # Broken hostnames are appended to parent_ns in defect-mode
            # order; pick the one matching the unresponsive mode.
            broken = truth.parent_ns[-len(modes):]
            for hostname, mode in zip(broken, modes):
                if mode != DefectMode.UNRESPONSIVE:
                    continue
                addresses = resolver.resolve_address(hostname)
                assert addresses, f"{hostname} should resolve"
                assert not world.network.is_attached(addresses[0])
                checked += 1
            if checked >= 5:
                break
        assert checked > 0

    def test_dangling_ns_domains_are_registrable(self, world):
        assert world.dangling_map
        for dns_domain in list(world.dangling_map)[:20]:
            quote = world.registrar.check(dns_domain)
            assert quote.available, f"{dns_domain} should be registrable"

    def test_provider_base_domains_not_registrable(self, world):
        for key in ("cloudflare", "godaddy"):
            instance = world.providers[key]
            for origin in instance.base_zones:
                assert not world.registrar.check(origin).available

    def test_consistency_dangling_server_answers_victims(self, world, resolver):
        for dns_domain, victims in world.consistency_dangling.items():
            quote = world.registrar.check(dns_domain)
            assert quote.available
            assert quote.price_usd >= 300
            for victim in victims:
                truth = world.truths[victim]
                extra = [
                    h for h in truth.parent_ns if h.is_subdomain_of(dns_domain)
                ]
                assert extra
                addresses = resolver.resolve_address(extra[0])
                assert addresses
                response = resolver.query_at(addresses[0], victim, RRType.NS)
                assert response is not None and response.aa

    def test_parent_zone_serves_truth_parent_ns(self, world, resolver):
        alive = [
            t
            for t in world.truths.values()
            if t.status == TargetStatus.ALIVE and t.parent_ns
        ][:40]
        for truth in alive:
            parent_zone = None
            for zone in world.suffix_zones.values():
                if truth.name.is_proper_subdomain_of(zone.origin):
                    if truth.parent == zone.origin:
                        parent_zone = zone
                        break
            if parent_zone is None:
                continue
            delegation = parent_zone.get(truth.name, RRType.NS)
            assert delegation is not None
            served = {r.nsdname for r in delegation.rdatas}
            assert served == set(truth.parent_ns)


class TestSeedPathologies:
    def test_unresolvable_portals(self, world, resolver):
        from repro.worldgen.countries import UNRESOLVABLE_PORTAL_ISO2

        for iso2 in UNRESOLVABLE_PORTAL_ISO2[:4]:
            entry = world.knowledge_base[iso2]
            result = resolver.resolve(N(entry.portal_fqdn), RRType.A)
            assert not result.ok

    def test_msq_mismatch_recoverable(self, world, resolver):
        from repro.worldgen.countries import MSQ_MISMATCH_ISO2

        for iso2 in MSQ_MISMATCH_ISO2:
            entry = world.knowledge_base[iso2]
            assert entry.portal_fqdn != entry.msq_fqdn
            assert resolver.resolve(N(entry.msq_fqdn), RRType.A).ok

    def test_ad_parked_portal_resolves_to_third_party(self, world, resolver):
        from repro.worldgen.countries import AD_PARKED_PORTAL_ISO2

        entry = world.knowledge_base[AD_PARKED_PORTAL_ISO2]
        assert resolver.resolve(N(entry.portal_fqdn), RRType.A).ok
        domain = N(entry.portal_fqdn).parent()
        record = world.whois.lookup(domain)
        assert record is not None and not record.registrant_is_government

    def test_working_portals_resolve(self, world, resolver):
        for iso2 in ("AU", "GB", "NO", "BR"):
            entry = world.knowledge_base[iso2]
            assert resolver.resolve(N(entry.portal_fqdn), RRType.A).ok, iso2


class TestDeterminism:
    def test_same_seed_same_world(self):
        from repro.worldgen import WorldConfig, WorldGenerator

        a = WorldGenerator(WorldConfig(seed=3, scale=0.002)).generate()
        b = WorldGenerator(WorldConfig(seed=3, scale=0.002)).generate()
        assert set(a.truths) == set(b.truths)
        for name in a.truths:
            ta, tb = a.truths[name], b.truths[name]
            assert (ta.status, ta.parent_ns, ta.child_ns) == (
                tb.status,
                tb.parent_ns,
                tb.child_ns,
            )
        assert len(a.pdns) == len(b.pdns)

    def test_different_seed_different_world(self):
        from repro.worldgen import WorldConfig, WorldGenerator

        a = WorldGenerator(WorldConfig(seed=3, scale=0.002)).generate()
        b = WorldGenerator(WorldConfig(seed=4, scale=0.002)).generate()
        assert set(a.truths) != set(b.truths)


class TestHeapDiscipline:
    """``generate()`` pauses the cycle collector while it builds, then
    moves the world to the oldest generation without a pass over it
    (DESIGN.md, "Heap discipline")."""

    def generate(self):
        return WorldGenerator(WorldConfig(seed=7, scale=0.004)).generate()

    def test_generation_leaves_no_cyclic_garbage(self):
        # The invariant that makes the pause safe: with the collector
        # off, nothing worldgen drops is left for it to find.
        gc.collect()
        gc.disable()
        try:
            world = self.generate()
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert world.truths
        assert unreachable == 0

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored(self, enabled):
        if not enabled:
            gc.disable()
        try:
            self.generate()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_state_restored_when_generation_raises(
        self, enabled, monkeypatch
    ):
        def fail(self):
            raise RuntimeError("worldgen failed")

        monkeypatch.setattr(WorldGenerator, "_build_history", fail)
        if not enabled:
            gc.disable()
        try:
            with pytest.raises(RuntimeError, match="worldgen failed"):
                self.generate()
            assert gc.isenabled() is enabled
        finally:
            gc.enable()

    def test_no_freeze_left_open(self):
        assert gc.get_freeze_count() == 0
        self.generate()
        assert gc.get_freeze_count() == 0

    def test_an_open_freeze_is_not_thawed(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            self.generate()
            assert gc.get_freeze_count() == frozen
        finally:
            gc.unfreeze()

    def test_world_promoted_to_the_oldest_generation(self):
        # With the collector off nothing moves the world but generate()
        # itself: left young, it would be ~10^5 generation-0 objects.
        gc.disable()
        try:
            world = self.generate()
            young = gc.get_count()[0]
            oldest = gc.get_objects(generation=2)
        finally:
            gc.enable()
        assert young < 100
        assert any(obj is world.truths for obj in oldest)
