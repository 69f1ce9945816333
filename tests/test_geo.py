"""Tests for repro.geo: regions, ASN registry, GeoIP database."""

import pytest
from hypothesis import given, strategies as st

from repro.geo.asn import AsnRegistry, AutonomousSystem
from repro.geo.geoip import GeoIPDatabase
from repro.geo.regions import (
    PAPER_GROUP_COUNT,
    SUBREGIONS,
    UN_MEMBERS,
    countries_in_subregion,
    country_by_iso2,
    paper_groups,
)
from repro.inet.address import BlockAllocator, IPv4Address, IPv4Prefix

IP = IPv4Address.parse


class TestRegions:
    def test_member_count_is_193(self):
        assert len(UN_MEMBERS) == 193

    def test_subregion_count_is_22(self):
        assert len(SUBREGIONS) == 22

    def test_iso2_codes_unique(self):
        codes = [c.iso2 for c in UN_MEMBERS]
        assert len(set(codes)) == len(codes)

    def test_lookup_by_iso2(self):
        assert country_by_iso2("au").name == "Australia"
        assert country_by_iso2("CN").subregion == "Eastern Asia"

    def test_lookup_unknown_code(self):
        with pytest.raises(KeyError):
            country_by_iso2("XX")

    def test_countries_in_subregion(self):
        anz = countries_in_subregion("Australia and New Zealand")
        assert {c.iso2 for c in anz} == {"AU", "NZ"}
        with pytest.raises(KeyError):
            countries_in_subregion("Atlantis")

    def test_paper_groups_is_32(self):
        top10 = ["CN", "TH", "BR", "MX", "GB", "TR", "IN", "AU", "UA", "AR"]
        groups = paper_groups(top10)
        assert len(set(groups.values())) == PAPER_GROUP_COUNT == 32

    def test_promoted_country_is_own_group(self):
        groups = paper_groups(["CN"])
        assert groups["CN"] == "China"
        assert groups["JP"] == "Eastern Asia"

    def test_paper_groups_rejects_unknown(self):
        with pytest.raises(KeyError):
            paper_groups(["ZZ"])


class TestAsnRegistry:
    def test_allocation_sequence(self):
        registry = AsnRegistry(first_asn=100)
        a = registry.allocate("Org A", "US")
        b = registry.allocate("Org B", "DE")
        assert (a.asn, b.asn) == (100, 101)
        assert registry.get(100) is a
        assert registry.get(999) is None

    def test_by_organization(self):
        registry = AsnRegistry()
        registry.allocate("Cloud", "US")
        registry.allocate("Cloud", "US")
        registry.allocate("Other", "US")
        assert len(registry.by_organization("Cloud")) == 2

    def test_asn_range_validated(self):
        with pytest.raises(ValueError):
            AutonomousSystem(0, "x", "US")

    def test_iteration_and_len(self):
        registry = AsnRegistry()
        registry.allocate("A", "US")
        registry.allocate("B", "FR")
        assert len(registry) == 2
        assert {a.organization for a in registry} == {"A", "B"}


class TestGeoIP:
    def make_db(self):
        registry = AsnRegistry()
        db = GeoIPDatabase(registry)
        a = registry.allocate("Net A", "US")
        b = registry.allocate("Net B", "AU")
        db.add_block(IPv4Prefix.parse("10.0.0.0/16"), a)
        db.add_block(IPv4Prefix.parse("10.1.0.0/16"), b)
        return db, a, b

    def test_lookup_inside_blocks(self):
        db, a, b = self.make_db()
        assert db.asn_of(IP("10.0.5.5")) == a.asn
        assert db.asn_of(IP("10.1.255.255")) == b.asn

    def test_lookup_outside_blocks(self):
        db, _, _ = self.make_db()
        assert db.lookup(IP("10.2.0.1")) is None
        assert db.lookup(IP("9.255.255.255")) is None

    def test_boundary_addresses(self):
        db, a, b = self.make_db()
        assert db.asn_of(IP("10.0.0.0")) == a.asn
        assert db.asn_of(IP("10.0.255.255")) == a.asn
        assert db.asn_of(IP("10.1.0.0")) == b.asn

    def test_organization_of(self):
        db, _, _ = self.make_db()
        assert db.organization_of(IP("10.0.1.1")) == "Net A"

    def test_overlap_detected_on_freeze(self):
        registry = AsnRegistry()
        db = GeoIPDatabase(registry)
        a = registry.allocate("A", "US")
        db.add_block(IPv4Prefix.parse("10.0.0.0/16"), a)
        db.add_block(IPv4Prefix.parse("10.0.128.0/17"), a)
        with pytest.raises(ValueError):
            db.lookup(IP("10.0.0.1"))

    def test_foreign_asn_rejected(self):
        db = GeoIPDatabase()
        stranger = AutonomousSystem(65_000, "Stranger", "US")
        with pytest.raises(ValueError):
            db.add_block(IPv4Prefix.parse("10.0.0.0/16"), stranger)

    def test_incremental_adds_after_lookup(self):
        db, a, _ = self.make_db()
        db.lookup(IP("10.0.0.1"))  # freezes
        registry = db.registry
        c = registry.allocate("Net C", "JP")
        db.add_block(IPv4Prefix.parse("10.9.0.0/16"), c)
        assert db.asn_of(IP("10.9.1.1")) == c.asn

    @given(st.integers(min_value=0, max_value=0xFFFF))
    def test_allocator_fed_blocks_always_resolve(self, offset):
        registry = AsnRegistry()
        db = GeoIPDatabase(registry)
        system = registry.allocate("Prop", "US")
        allocator = BlockAllocator(IPv4Prefix.parse("10.0.0.0/8"))
        blocks = [allocator.allocate(20) for _ in range(4)]
        for block in blocks:
            db.add_block(block, system)
        target = blocks[offset % 4]
        inside = IPv4Address(target.network + offset % target.size)
        assert db.asn_of(inside) == system.asn
