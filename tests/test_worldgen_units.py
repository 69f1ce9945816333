"""Unit tests for worldgen components: providers, countries, faults,
deployment planning."""

import random

import pytest

from repro.dns.name import DnsName
from repro.geo.asn import AsnRegistry
from repro.geo.geoip import GeoIPDatabase
from repro.inet.address import BlockAllocator, IPv4Prefix
from repro.net.network import Network
from repro.worldgen.config import WorldConfig
from repro.worldgen.countries import TOP10_ISO2, build_profiles
from repro.worldgen.deployment import AddressPlanner, PrivateHoster, ProviderInstance
from repro.worldgen.faults import Consistency, DefectMode, FaultSampler
from repro.worldgen.providers import PROVIDERS, NsLayout, provider_by_key

N = DnsName.parse


class TestProviderCatalog:
    def test_catalog_covers_paper_tables(self):
        keys = {p.key for p in PROVIDERS}
        for expected in (
            "amazon", "azure", "cloudflare", "dnspod", "dnsmadeeasy",
            "dyn", "godaddy", "ultradns", "websitewelcome", "bluehost",
            "hostgator", "everydns", "digitalocean", "wixdns", "cloudns",
            "hichina", "xincache", "dns-diy",
        ):
            assert expected in keys

    def test_lookup_by_key(self):
        assert provider_by_key("cloudflare").display == "Cloudflare"
        with pytest.raises(KeyError):
            provider_by_key("nope")

    def test_ns_sets_are_deterministic_and_sized(self):
        for spec in PROVIDERS:
            a = spec.make_ns_set(3)
            b = spec.make_ns_set(3)
            assert a == b
            assert len(a) == spec.set_size

    def test_different_sets_differ(self):
        spec = provider_by_key("cloudflare")
        assert spec.make_ns_set(1) != spec.make_ns_set(2)

    def test_growth_interpolation_endpoints(self):
        spec = provider_by_key("amazon")
        assert spec.domains_in(2011) == 5
        assert spec.domains_in(2020) == 5193
        assert 5 < spec.domains_in(2015) < 5193

    def test_exponential_growth_shape(self):
        spec = provider_by_key("cloudflare")
        early = spec.domains_in(2013) - spec.domains_in(2012)
        late = spec.domains_in(2020) - spec.domains_in(2019)
        assert late > early * 3

    def test_decline_shape(self):
        spec = provider_by_key("everydns")
        assert spec.domains_in(2020) == 0
        assert spec.domains_in(2015) < spec.domains_in(2011)

    def test_countries_interpolation(self):
        spec = provider_by_key("cloudflare")
        assert spec.countries_in(2011) == 9
        assert spec.countries_in(2020) == 85
        assert 9 <= spec.countries_in(2015) <= 85


class TestCountryProfiles:
    def test_one_profile_per_member(self):
        assert len(build_profiles()) == 193

    def test_weights_sum_to_one(self):
        total = sum(p.weight for p in build_profiles())
        assert total == pytest.approx(1.0, abs=0.01)

    def test_top10_weights_dominate(self):
        profiles = {p.iso2: p for p in build_profiles()}
        top10 = sum(profiles[iso].weight for iso in TOP10_ISO2)
        assert 0.55 < top10 < 0.68

    def test_suffix_idioms(self):
        profiles = {p.iso2: p for p in build_profiles()}
        assert profiles["AU"].gov_suffix == "gov.au"
        assert profiles["MX"].gov_suffix == "gob.mx"
        assert profiles["TH"].gov_suffix == "go.th"
        assert profiles["GB"].gov_suffix == "gov.uk"
        assert profiles["NO"].gov_suffix == "regjeringen.no"

    def test_registered_domain_seeds_flagged(self):
        profiles = {p.iso2: p for p in build_profiles()}
        for iso in ("NO", "LA", "TL", "JM"):
            assert profiles[iso].seed_is_registered_domain
        assert not profiles["AU"].seed_is_registered_domain

    def test_diversity_values_monotonic(self):
        for profile in build_profiles():
            f_ip, f_24, f_asn = profile.diversity
            assert f_ip >= f_24 >= f_asn > 0


class TestAddressPlanner:
    def make_planner(self, asn_count=2):
        registry = AsnRegistry()
        geoip = GeoIPDatabase(registry)
        dealer = BlockAllocator(IPv4Prefix.parse("10.0.0.0/8"))
        systems = [
            (registry.allocate(f"AS{i}", "US"), BlockAllocator(dealer.allocate(16)))
            for i in range(asn_count)
        ]
        return AddressPlanner(geoip, systems), geoip

    def test_single_ip_layout(self):
        planner, _ = self.make_planner()
        addresses = planner.plan(3, NsLayout.SINGLE_IP)
        assert len(set(addresses)) == 1

    def test_single_24_layout(self):
        planner, _ = self.make_planner()
        addresses = planner.plan(3, NsLayout.SINGLE_24)
        assert len(set(addresses)) == 3
        assert len({a.slash24() for a in addresses}) == 1

    def test_multi_24_layout(self):
        planner, geoip = self.make_planner()
        addresses = planner.plan(3, NsLayout.MULTI_24)
        assert len({a.slash24() for a in addresses}) == 3
        assert len({geoip.asn_of(a) for a in addresses}) == 1

    def test_multi_asn_layout(self):
        planner, geoip = self.make_planner()
        addresses = planner.plan(4, NsLayout.MULTI_ASN)
        assert len({geoip.asn_of(a) for a in addresses}) == 2

    def test_multi_asn_degrades_with_one_as(self):
        planner, geoip = self.make_planner(asn_count=1)
        addresses = planner.plan(2, NsLayout.MULTI_ASN)
        assert len({a.slash24() for a in addresses}) == 2

    def test_all_addresses_in_geoip(self):
        planner, geoip = self.make_planner()
        for layout in NsLayout.ALL:
            for address in planner.plan(2, layout):
                assert geoip.lookup(address) is not None

    def test_refill_on_exhaustion(self):
        registry = AsnRegistry()
        geoip = GeoIPDatabase(registry)
        dealer = BlockAllocator(IPv4Prefix.parse("10.0.0.0/8"))
        system = registry.allocate("Tiny", "US")
        planner = AddressPlanner(
            geoip,
            [(system, BlockAllocator(dealer.allocate(23)))],
            refill=lambda a: BlockAllocator(dealer.allocate(16)),
        )
        # A /23 holds two /24s; the third must trigger the refill.
        for _ in range(3):
            planner.plan(1, NsLayout.MULTI_24)

    def test_bad_layout_rejected(self):
        planner, _ = self.make_planner()
        with pytest.raises(ValueError):
            planner.plan(2, "mystery")


class TestProviderInstance:
    def make_instance(self, key="cloudflare"):
        registry = AsnRegistry()
        geoip = GeoIPDatabase(registry)
        dealer = BlockAllocator(IPv4Prefix.parse("10.0.0.0/8"))
        spec = provider_by_key(key)
        systems = [
            (registry.allocate(spec.display, "US"), BlockAllocator(dealer.allocate(16)))
            for _ in range(spec.asn_count)
        ]
        planner = AddressPlanner(geoip, systems)
        network = Network()
        return (
            ProviderInstance(spec, planner, network, pool_target=3, rng=random.Random(0)),
            network,
        )

    def test_base_zones_built_and_served(self):
        instance, network = self.make_instance()
        assert N("cloudflare.com") in instance.base_zones
        glue = instance.base_zone_glue()
        for origin, (ns_host, address) in glue.items():
            assert network.is_attached(address)

    def test_draw_set_creates_then_reuses(self):
        instance, _ = self.make_instance()
        sets = [instance.draw_set(NsLayout.MULTI_24) for _ in range(10)]
        unique = {s.hostnames for s in sets}
        assert len(unique) <= 3  # pool_target caps creation

    def test_pool_hostnames_have_a_records(self):
        instance, _ = self.make_instance()
        from repro.dns.rdata import RRType

        drawn = instance.draw_set(NsLayout.MULTI_24)
        for host in drawn.hosts:
            zone = instance.base_zones[
                ProviderInstance._base_domain_of(host.hostname)
            ]
            assert zone.get(host.hostname, RRType.A) is not None

    def test_host_zone_loads_on_all_servers(self):
        instance, network = self.make_instance()
        from repro.dns.zone import Zone

        drawn = instance.draw_set(NsLayout.MULTI_24)
        zone = Zone(N("customer.gov.zz"))
        from repro.dns.rdata import NS as NSr

        zone.add_records(N("customer.gov.zz"), NSr(drawn.hostnames[0]))
        instance.host_zone(zone, drawn)
        for host in drawn.hosts:
            server = network.host_at(host.address)
            assert server.serves(N("customer.gov.zz"))

    def test_two_label_suffix_base_domain(self):
        assert ProviderInstance._base_domain_of(
            N("ns-1.awsdns-2.co.uk")
        ) == N("awsdns-2.co.uk")
        assert ProviderInstance._base_domain_of(
            N("a.b.example.com")
        ) == N("example.com")


class TestWorldConfig:
    @pytest.mark.parametrize("scale", [0.0, -1.0, float("nan"), float("inf")])
    def test_unusable_scale_rejected(self, scale):
        with pytest.raises(ValueError, match="scale must be positive and finite"):
            WorldConfig(scale=scale)

    def test_small_positive_scale_accepted(self):
        assert WorldConfig(scale=0.001).scale == 0.001


class TestFaultSampler:
    def make(self, seed=0):
        profiles = {p.iso2: p for p in build_profiles()}
        return (
            FaultSampler(WorldConfig(seed=seed), random.Random(seed)),
            profiles,
        )

    def test_stale_plan_breaks_everything(self):
        sampler, profiles = self.make()
        plan = sampler.plan_for(profiles["AU"], 3, 3, False, force_stale=True)
        assert plan.stale
        assert plan.broken_count == 3
        assert len(plan.defect_modes) == 3

    def test_force_healthy(self):
        sampler, profiles = self.make()
        plan = sampler.plan_for(profiles["AU"], 3, 2, False, force_stale=False)
        assert not plan.stale

    def test_defect_modes_are_known(self):
        sampler, profiles = self.make()
        for _ in range(200):
            plan = sampler.plan_for(profiles["TR"], 3, 3, False)
            for mode in plan.defect_modes:
                assert mode in DefectMode.ALL

    def test_rates_approximate_profile(self):
        sampler, profiles = self.make()
        plans = [
            sampler.plan_for(profiles["TR"], 3, 2, False) for _ in range(3000)
        ]
        any_defect = sum(1 for p in plans if p.any_defect) / len(plans)
        # Turkey's calibrated defective rate is 0.42 (plus coupling).
        assert 0.30 < any_defect < 0.60
        inconsistent = sum(1 for p in plans if p.inconsistent) / len(plans)
        assert 0.15 < inconsistent < 0.42

    def test_level2_more_consistent(self):
        sampler, profiles = self.make()
        deep = [
            sampler.plan_for(profiles["BR"], 3, 2, False).inconsistent
            for _ in range(2000)
        ]
        shallow = [
            sampler.plan_for(profiles["BR"], 2, 2, False).inconsistent
            for _ in range(2000)
        ]
        assert sum(shallow) < sum(deep)

    def test_single_ns_defects_only_from_parent_extras(self):
        # A non-stale single-NS domain cannot have its one working
        # nameserver broken; any broken entry must come from the
        # inconsistency coupling (an extra parent-side record).
        sampler, profiles = self.make()
        for _ in range(300):
            plan = sampler.plan_for(profiles["MX"], 3, 1, True)
            if plan.stale or plan.broken_count == 0:
                continue
            assert plan.broken_count == 1
            assert plan.consistency in (
                Consistency.C_SUBSET_P,
                Consistency.OVERLAP_NEITHER,
            )

    def test_subset_classes_need_two_ns(self):
        sampler, profiles = self.make()
        for _ in range(500):
            plan = sampler.plan_for(profiles["UA"], 3, 1, True, force_stale=False)
            assert plan.consistency not in (
                Consistency.P_SUBSET_C,
                Consistency.OVERLAP_NEITHER,
            )


class TestPrivateHoster:
    def make(self):
        registry = AsnRegistry()
        geoip = GeoIPDatabase(registry)
        dealer = BlockAllocator(IPv4Prefix.parse("10.0.0.0/8"))
        systems = [
            (registry.allocate("Gov", "AU"), BlockAllocator(dealer.allocate(16))),
            (registry.allocate("ISP", "AU"), BlockAllocator(dealer.allocate(16))),
        ]
        planner = AddressPlanner(geoip, systems)
        return PrivateHoster(planner, Network(), random.Random(0))

    def test_build_set_names_under_owner(self):
        hoster = self.make()
        ns_set = hoster.build_set(N("health.gov.au"), 2, NsLayout.MULTI_24)
        for host in ns_set.hosts:
            assert host.hostname.is_subdomain_of(N("health.gov.au"))

    def test_shared_set_reused(self):
        hoster = self.make()
        a = hoster.shared_set(N("go.th"), 2, NsLayout.SINGLE_IP)
        b = hoster.shared_set(N("go.th"), 2, NsLayout.SINGLE_IP)
        assert a is b
        assert len({h.address for h in a.hosts}) == 1
