"""Tests for repro.dns.server: healthy, lame, and parking behaviours."""

import pytest

from repro.dns.message import Rcode, make_query
from repro.dns.name import DnsName
from repro.dns.rdata import CNAME, NS, RRType, SOA, A
from repro.dns.server import AuthoritativeServer, MissBehavior, ParkingServer
from repro.dns.zone import Zone
from repro.inet.address import IPv4Address

N = DnsName.parse
IP = IPv4Address.parse
SOURCE = IP("192.0.2.1")


def make_zone():
    zone = Zone(N("gov.au"))
    zone.add_records(N("gov.au"), NS(N("ns1.gov.au")))
    zone.add_records(N("gov.au"), SOA(N("ns1.gov.au"), N("h.gov.au")))
    zone.add_records(N("ns1.gov.au"), A(IP("1.0.0.1")))
    zone.add_records(N("www.gov.au"), A(IP("9.9.9.9")))
    zone.add_records(N("health.gov.au"), NS(N("ns1.health.gov.au")))
    zone.add_records(N("ns1.health.gov.au"), A(IP("2.0.0.1")))
    return zone


@pytest.fixture()
def server():
    instance = AuthoritativeServer(N("ns1.gov.au"))
    instance.load_zone(make_zone())
    return instance


class TestZoneManagement:
    def test_load_and_serves(self, server):
        assert server.serves(N("gov.au"))
        assert not server.serves(N("gov.uk"))

    def test_double_load_rejected(self, server):
        with pytest.raises(ValueError):
            server.load_zone(make_zone())

    def test_unload_makes_lame(self, server):
        server.unload_zone(N("gov.au"))
        response = server.handle_datagram(
            make_query(N("www.gov.au"), RRType.A), SOURCE
        )
        assert response.rcode == Rcode.REFUSED

    def test_find_zone_longest_match(self):
        server = AuthoritativeServer(N("ns.x"))
        parent = Zone(N("au"))
        parent.add_records(N("au"), NS(N("ns.x")))
        child = make_zone()
        server.load_zone(parent)
        server.load_zone(child)
        assert server.find_zone(N("www.gov.au")).origin == N("gov.au")
        assert server.find_zone(N("other.au")).origin == N("au")


class TestAnswering:
    def test_authoritative_answer(self, server):
        response = server.handle_datagram(
            make_query(N("www.gov.au"), RRType.A), SOURCE
        )
        assert response.aa
        assert response.answers[0].name == N("www.gov.au")

    def test_referral_for_delegated_child(self, server):
        response = server.handle_datagram(
            make_query(N("x.health.gov.au"), RRType.A), SOURCE
        )
        assert response.is_referral
        assert response.referral_target == N("health.gov.au")
        assert response.glue_for(N("ns1.health.gov.au"))

    def test_nxdomain_carries_soa(self, server):
        response = server.handle_datagram(
            make_query(N("missing.gov.au"), RRType.A), SOURCE
        )
        assert response.rcode == Rcode.NXDOMAIN
        assert response.aa
        assert response.authority_rrset(RRType.SOA) is not None

    def test_nodata_noerror_with_soa(self, server):
        response = server.handle_datagram(
            make_query(N("www.gov.au"), RRType.NS), SOURCE
        )
        assert response.rcode == Rcode.NOERROR
        assert response.aa
        assert not response.answers

    def test_cname_chain_chased_in_bailiwick(self):
        server = AuthoritativeServer(N("ns1.gov.au"))
        zone = make_zone()
        zone.add_records(N("portal.gov.au"), CNAME(N("www.gov.au")))
        server.load_zone(zone)
        response = server.handle_datagram(
            make_query(N("portal.gov.au"), RRType.A), SOURCE
        )
        assert response.aa
        types = [rrset.rrtype for rrset in response.answers]
        assert RRType.CNAME in types and RRType.A in types

    def test_responses_ignored(self, server):
        query = make_query(N("www.gov.au"), RRType.A)
        response = server.handle_datagram(query, SOURCE)
        assert server.handle_datagram(response, SOURCE) is None

    def test_non_message_payload_ignored(self, server):
        assert server.handle_datagram("garbage", SOURCE) is None


class TestMissBehaviours:
    def query_miss(self, behavior):
        server = AuthoritativeServer(N("lame.example"), miss_behavior=behavior)
        return server.handle_datagram(
            make_query(N("www.gov.au"), RRType.NS), SOURCE
        )

    def test_refused(self):
        assert self.query_miss(MissBehavior.REFUSED).rcode == Rcode.REFUSED

    def test_servfail(self):
        assert self.query_miss(MissBehavior.SERVFAIL).rcode == Rcode.SERVFAIL

    def test_upward_referral(self):
        response = self.query_miss(MissBehavior.UPWARD_REFERRAL)
        assert response.is_upward_referral

    def test_silent(self):
        assert self.query_miss(MissBehavior.SILENT) is None

    def test_unknown_behavior_rejected(self):
        with pytest.raises(ValueError):
            AuthoritativeServer(N("x"), miss_behavior="EXPLODE")


class TestParkingServer:
    def park(self):
        return ParkingServer(
            hostname=N("ns1.parking.example"),
            park_address=IP("203.0.113.1"),
            ns_set=(N("ns1.parking.example"), N("ns2.parking.example")),
        )

    def test_claims_authority_over_anything(self):
        response = self.park().handle_datagram(
            make_query(N("whatever.gov.au"), RRType.NS), SOURCE
        )
        assert response.aa
        names = {str(r) for r in response.answers[0].rdatas}
        assert names == {"ns1.parking.example.", "ns2.parking.example."}

    def test_a_queries_point_at_park_page(self):
        response = self.park().handle_datagram(
            make_query(N("anything.at.all"), RRType.A), SOURCE
        )
        assert str(response.answers[0].rdatas[0]) == "203.0.113.1"

    def test_other_types_get_empty_authoritative_answer(self):
        response = self.park().handle_datagram(
            make_query(N("x.y"), RRType.TXT), SOURCE
        )
        assert response.aa and not response.answers
