"""Tests for seed selection (§III-A) and target expansion (§III-B)."""

import pytest

from repro.core.seeds import SeedSelector
from repro.core.targets import TargetListBuilder, looks_disposable
from repro.dns import DnsName, Resolver, ResolverCache
from repro.pdns.database import PdnsDatabase
from repro.worldgen.countries import (
    AD_PARKED_PORTAL_ISO2,
    MSQ_MISMATCH_ISO2,
    UNRESOLVABLE_PORTAL_ISO2,
)

N = DnsName.parse


@pytest.fixture(scope="module")
def seeds(study):
    return study.seeds()


class TestSeedSelection:
    def test_every_country_gets_a_seed(self, seeds):
        assert len(seeds) == 193

    def test_reserved_suffix_countries(self, seeds):
        assert seeds["AU"].d_gov == N("gov.au")
        assert seeds["AU"].is_suffix
        assert seeds["GB"].d_gov == N("gov.uk")
        assert seeds["TH"].d_gov == N("go.th")
        assert seeds["MX"].d_gov == N("gob.mx")

    def test_norway_registered_domain(self, seeds):
        seed = seeds["NO"]
        assert seed.d_gov == N("regjeringen.no")
        assert not seed.is_suffix
        assert seed.government_verified

    def test_undocumented_suffix_falls_back_to_registered_domain(self, seeds):
        # gov.la is reserved but the reservation is undocumented, so the
        # registered domain is used (paper's laogov case).
        seed = seeds["LA"]
        assert seed.d_gov == N("laogov.gov.la")
        assert not seed.is_suffix

    def test_msq_mismatch_uses_questionnaire(self, seeds):
        for iso2 in MSQ_MISMATCH_ISO2:
            assert seeds[iso2].source == "msq"

    def test_ad_parked_portal_uses_questionnaire(self, seeds):
        assert seeds[AD_PARKED_PORTAL_ISO2].source == "msq"

    def test_unresolvable_portal_registry_fallback(self, seeds):
        for iso2 in UNRESOLVABLE_PORTAL_ISO2:
            assert seeds[iso2].source == "registry_fallback"
            assert seeds[iso2].is_suffix

    def test_selector_returns_none_for_garbage(self, world):
        resolver = Resolver(
            world.network,
            world.root_addresses,
            cache=ResolverCache(world.clock),
            source=world.probe_source,
        )
        selector = SeedSelector(
            resolver, world.tld_registry, world.whois, world.archive
        )
        assert selector.select_for("XX", "not a domain!!", "also bad!!") is None


class TestDisposableHeuristic:
    def test_hexish_labels_flagged(self):
        assert looks_disposable(N("x4f9ae2214b01.gov.zz"))
        assert looks_disposable(N("deadbeefcafe42.gov.zz"))

    def test_normal_names_kept(self):
        assert not looks_disposable(N("health.gov.au"))
        assert not looks_disposable(N("statistics12.gov.br"))
        assert not looks_disposable(N("a1b2.gov.br"))  # short

    def test_root_is_not_disposable(self):
        from repro.dns.name import ROOT

        assert not looks_disposable(ROOT)


class TestTargetExpansion:
    def test_targets_match_world_truths(self, study, world):
        targets = study.targets()
        truth_names = set(world.truths)
        measured = set(targets)
        # The probe list is built from PDNS, the truth from the
        # generator: they must agree almost exactly (cluster roots etc.
        # included).
        overlap = len(truth_names & measured)
        assert overlap / max(len(truth_names), 1) > 0.95

    def test_targets_exclude_seed_apexes(self, study):
        seeds = study.seeds()
        targets = study.targets()
        for seed in seeds.values():
            assert seed.d_gov not in targets

    def test_targets_mapped_to_right_country(self, study, world):
        targets = study.targets()
        for domain, iso2 in list(targets.items())[:200]:
            truth = world.truths.get(domain)
            if truth is not None:
                assert truth.iso2 == iso2

    def test_disposables_filtered(self, study, world):
        targets = study.targets()
        disposable = [
            d for d in world.history.domains if d.disposable and d.seen_in_window
        ]
        assert disposable
        hit = sum(1 for d in disposable if d.name in targets)
        assert hit / len(disposable) < 0.05

    def test_window_excludes_long_dead(self, world, study):
        # A long-dead domain only enters the target list if PDNS caught
        # a transient (sub-7-day) record for it inside the window — the
        # same way stray records would pollute the paper's raw list.
        from repro.inet.clock import SECONDS_PER_DAY
        from repro.worldgen.history import WINDOW_START

        targets = study.targets()
        long_dead = [
            d
            for d in world.history.domains
            if d.death_year is not None and d.death_year <= 2017
        ]
        assert long_dead
        hits = [d for d in long_dead if d.name in targets]
        assert len(hits) / len(long_dead) < 0.05
        for domain in hits:
            in_window = [
                r
                for r in world.pdns.lookup(domain.name)
                if r.last_seen >= WINDOW_START
            ]
            assert in_window
            assert all(
                r.duration < 7 * SECONDS_PER_DAY for r in in_window
            )

    def test_raw_count_exceeds_filtered(self, study, world):
        builder = TargetListBuilder(world.pdns)
        seed = study.seeds()["BR"]
        assert builder.raw_count(seed) >= len(builder.expand_seed(seed))

    def test_window_validation(self, world):
        with pytest.raises(ValueError):
            TargetListBuilder(world.pdns, window=(10.0, 5.0))

    def test_empty_pdns_gives_empty_targets(self, study):
        builder = TargetListBuilder(PdnsDatabase())
        assert builder.build(study.seeds()) == {}
