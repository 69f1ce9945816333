"""Tests for vanity-branded provider deployments and SOA-based
provider identification (paper §IV-B)."""

import pytest

from repro.core.centralization import CentralizationAnalysis
from repro.core.provider_id import ProviderMatcher
from repro.dns import DnsName, RRType, Resolver, ResolverCache
from repro.worldgen.generator import TargetStatus

N = DnsName.parse


def vanity_truths(world):
    found = []
    for domain in world.history.domains:
        era = domain.eras[-1]
        if not getattr(era, "vanity", False):
            continue
        truth = world.truths.get(domain.name)
        if truth is not None and truth.status == TargetStatus.ALIVE:
            found.append((domain, era, truth))
    return found


class TestVanityWorld:
    def test_vanity_deployments_exist(self, world):
        assert vanity_truths(world)

    def test_vanity_ns_names_are_in_bailiwick(self, world):
        for domain, era, truth in vanity_truths(world)[:10]:
            if truth.plan is not None and truth.plan.stale:
                continue
            for hostname in truth.child_ns:
                if str(hostname).startswith("ns") and hostname.is_subdomain_of(
                    domain.name
                ):
                    break
            else:
                pytest.fail(f"{domain.name} has no vanity NS name")

    def test_vanity_zone_soa_names_the_provider(self, world):
        matcher = ProviderMatcher()
        checked = 0
        for domain, era, truth in vanity_truths(world):
            if truth.plan is None or truth.plan.stale:
                continue
            zone = world.child_zones.get(domain.name)
            if zone is None or zone.soa is None:
                continue
            assert matcher.match_soa(zone.soa) == era.provider_key, str(
                domain.name
            )
            checked += 1
        assert checked > 0

    def test_vanity_domains_resolve_via_provider_servers(self, world):
        resolver = Resolver(
            world.network,
            world.root_addresses,
            cache=ResolverCache(world.clock),
            source=world.probe_source,
        )
        for domain, era, truth in vanity_truths(world)[:5]:
            if truth.plan is not None and truth.plan.stale:
                continue
            result = resolver.resolve(domain.name, RRType.NS)
            assert result.ok, str(domain.name)

    def test_pdns_carries_vanity_soa_rows(self, world):
        found = 0
        for domain, era, truth in vanity_truths(world):
            rows = world.pdns.lookup(domain.name, RRType.SOA)
            if rows:
                found += 1
                tokens = rows[0].rdata.split()
                matcher = ProviderMatcher()
                from repro.dns import SOA

                soa = SOA(mname=N(tokens[0]), rname=N(tokens[1]))
                assert matcher.match_soa(soa) == era.provider_key
        assert found > 0


class TestSoaFallbackInCentralization:
    def test_soa_recovers_vanity_customers(self, study, world):
        full = CentralizationAnalysis(
            study.pdns_replication(), ProviderMatcher()
        )
        blind = CentralizationAnalysis(
            study.pdns_replication(), ProviderMatcher(use_soa=False)
        )
        recovered_total = 0
        for provider in ("amazon", "cloudflare", "godaddy", "hichina"):
            with_soa = full.usage(provider, 2020).domains
            without = blind.usage(provider, 2020).domains
            assert with_soa >= without
            recovered_total += with_soa - without
        assert recovered_total > 0

    def test_vanity_domains_not_counted_as_d1p(self, study):
        # A vanity deployment has no provider-named NS, so it cannot be
        # d_1P (the d_1P definition requires every hostname to match).
        analysis = CentralizationAnalysis(study.pdns_replication())
        for provider in ("amazon", "cloudflare"):
            usage = analysis.usage(provider, 2020)
            assert usage.single_provider_domains <= usage.domains
