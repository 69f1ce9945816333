"""Tests for repro.dns.zone — the RFC-1034 lookup algorithm."""

import pytest

from repro.dns.errors import ZoneError
from repro.dns.name import DnsName
from repro.dns.rdata import CNAME, NS, RRType, SOA, A
from repro.dns.rrset import RRset
from repro.dns.zone import LookupStatus, Zone
from repro.inet.address import IPv4Address

N = DnsName.parse
IP = IPv4Address.parse


@pytest.fixture()
def zone():
    z = Zone(N("gov.au"))
    z.add_records(N("gov.au"), NS(N("ns1.gov.au")), NS(N("ns2.gov.au")))
    z.add_records(
        N("gov.au"), SOA(N("ns1.gov.au"), N("hostmaster.gov.au"))
    )
    z.add_records(N("ns1.gov.au"), A(IP("1.0.0.1")))
    z.add_records(N("ns2.gov.au"), A(IP("1.0.0.2")))
    z.add_records(N("www.gov.au"), A(IP("9.9.9.9")))
    z.add_records(N("health.gov.au"), NS(N("ns1.health.gov.au")))
    z.add_records(N("ns1.health.gov.au"), A(IP("2.0.0.1")))
    z.add_records(N("portal.gov.au"), CNAME(N("www.gov.au")))
    return z


class TestContent:
    def test_out_of_zone_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_records(N("gov.uk"), A(IP("1.1.1.1")))

    def test_cname_conflict_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_records(N("www.gov.au"), CNAME(N("x.gov.au")))

    def test_other_data_at_cname_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.add_records(N("portal.gov.au"), A(IP("1.1.1.1")))

    def test_get_and_remove(self, zone):
        assert zone.get(N("www.gov.au"), RRType.A) is not None
        zone.remove(N("www.gov.au"), RRType.A)
        assert zone.get(N("www.gov.au"), RRType.A) is None
        with pytest.raises(KeyError):
            zone.remove(N("www.gov.au"), RRType.A)

    def test_add_replaces_existing_set(self, zone):
        zone.add_records(N("www.gov.au"), A(IP("8.8.8.8")))
        rrset = zone.get(N("www.gov.au"), RRType.A)
        assert len(rrset) == 1
        assert str(rrset.rdatas[0]) == "8.8.8.8"

    def test_apex_ns_and_soa(self, zone):
        assert len(zone.apex_ns) == 2
        assert zone.soa.mname == N("ns1.gov.au")

    def test_contains_tracks_empty_non_terminals(self):
        z = Zone(N("au"))
        z.add_records(N("www.deep.gov.au"), A(IP("1.1.1.1")))
        assert N("deep.gov.au") in z
        assert N("gov.au") in z
        assert N("other.au") not in z

    def test_delegations_excludes_apex(self, zone):
        delegations = list(zone.delegations())
        assert len(delegations) == 1
        assert delegations[0].name == N("health.gov.au")


class TestLookup:
    def test_exact_answer(self, zone):
        result = zone.lookup(N("www.gov.au"), RRType.A)
        assert result.status == LookupStatus.ANSWER
        assert result.answers[0].name == N("www.gov.au")

    def test_apex_ns_is_answer_not_referral(self, zone):
        result = zone.lookup(N("gov.au"), RRType.NS)
        assert result.status == LookupStatus.ANSWER

    def test_referral_below_cut(self, zone):
        result = zone.lookup(N("www.health.gov.au"), RRType.A)
        assert result.status == LookupStatus.REFERRAL
        assert result.delegation.name == N("health.gov.au")

    def test_referral_at_cut_even_for_ns_qtype(self, zone):
        # The parent is NOT authoritative at the delegation point; even
        # an NS query gets a referral (this is why the paper's probe
        # must also ask the child's own servers).
        result = zone.lookup(N("health.gov.au"), RRType.NS)
        assert result.status == LookupStatus.REFERRAL

    def test_referral_includes_glue(self, zone):
        result = zone.lookup(N("health.gov.au"), RRType.A)
        assert result.glue
        assert result.glue[0].name == N("ns1.health.gov.au")

    def test_nxdomain(self, zone):
        result = zone.lookup(N("missing.gov.au"), RRType.A)
        assert result.status == LookupStatus.NXDOMAIN

    def test_nodata_at_existing_name(self, zone):
        result = zone.lookup(N("www.gov.au"), RRType.NS)
        assert result.status == LookupStatus.NODATA

    def test_nodata_at_empty_non_terminal(self):
        z = Zone(N("au"))
        z.add_records(N("au"), NS(N("ns.au")))
        z.add_records(N("a.b.au"), A(IP("1.1.1.1")))
        result = z.lookup(N("b.au"), RRType.A)
        assert result.status == LookupStatus.NODATA

    def test_cname_indirection(self, zone):
        result = zone.lookup(N("portal.gov.au"), RRType.A)
        assert result.status == LookupStatus.CNAME
        assert result.cname == N("www.gov.au")

    def test_cname_qtype_returns_answer(self, zone):
        result = zone.lookup(N("portal.gov.au"), RRType.CNAME)
        assert result.status == LookupStatus.ANSWER

    def test_out_of_zone_lookup_rejected(self, zone):
        with pytest.raises(ZoneError):
            zone.lookup(N("gov.uk"), RRType.A)

    def test_highest_cut_wins(self):
        z = Zone(N("au"))
        z.add_records(N("au"), NS(N("ns.au")))
        z.add_records(N("gov.au"), NS(N("ns1.gov.au")))
        z.add_records(N("deep.health.gov.au"), NS(N("ns.deep.health.gov.au")))
        result = z.lookup(N("x.deep.health.gov.au"), RRType.A)
        assert result.delegation.name == N("gov.au")


class TestProblems:
    def test_healthy_zone_reports_nothing_critical(self, zone):
        assert zone.problems() == []

    def test_missing_apex_ns_flagged(self):
        z = Zone(N("gov.au"))
        assert any("no apex NS" in p for p in z.problems())

    def test_single_ns_flagged(self):
        z = Zone(N("gov.au"))
        z.add_records(N("gov.au"), NS(N("ns1.gov.au")))
        z.add_records(N("gov.au"), SOA(N("ns1.gov.au"), N("h.gov.au")))
        assert any("only 1" in p for p in z.problems())

    def test_single_label_delegation_flagged(self):
        z = Zone(N("gov.au"))
        z.add_records(N("gov.au"), NS(N("ns1.gov.au")), NS(N("ns2.gov.au")))
        z.add_records(N("gov.au"), SOA(N("ns1.gov.au"), N("h.gov.au")))
        z.add(RRset(N("x.gov.au"), RRType.NS, 300, (NS(DnsName(("ns",))),)))
        assert any("single-label" in p for p in z.problems())

    def test_missing_glue_flagged(self):
        z = Zone(N("gov.au"))
        z.add_records(N("gov.au"), NS(N("ns1.gov.au")), NS(N("ns2.gov.au")))
        z.add_records(N("gov.au"), SOA(N("ns1.gov.au"), N("h.gov.au")))
        z.add_records(N("x.gov.au"), NS(N("ns1.x.gov.au")))
        assert any("no glue" in p for p in z.problems())
