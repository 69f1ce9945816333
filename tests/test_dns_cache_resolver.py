"""Tests for repro.dns.cache and repro.dns.resolver."""

import pytest

from repro.dns.cache import MAX_RESOLVER_TTL, ResolverCache
from repro.dns.name import DnsName
from repro.dns.rdata import NS, RRType, A
from repro.dns.rrset import RRset
from repro.dns.resolver import Resolver
from repro.dns.server import MissBehavior
from repro.inet.address import IPv4Address
from repro.inet.clock import SimulatedClock

N = DnsName.parse
IP = IPv4Address.parse


class TestResolverCache:
    def make(self, **kwargs):
        clock = SimulatedClock(now=0.0)
        return clock, ResolverCache(clock, **kwargs)

    def test_put_get(self):
        clock, cache = self.make()
        rrset = RRset.of(N("x.y"), [A(IP("1.1.1.1"))], ttl=300)
        cache.put(rrset)
        assert cache.get(N("x.y"), RRType.A) == rrset

    def test_expiry(self):
        clock, cache = self.make()
        cache.put(RRset.of(N("x.y"), [A(IP("1.1.1.1"))], ttl=300))
        clock.advance(301)
        assert cache.get(N("x.y"), RRType.A) is None

    def test_max_ttl_clamp(self):
        clock, cache = self.make(max_ttl=60)
        cache.put(RRset.of(N("x.y"), [A(IP("1.1.1.1"))], ttl=86_400))
        clock.advance(61)
        assert cache.get(N("x.y"), RRType.A) is None

    def test_default_clamp_is_seven_days(self):
        assert MAX_RESOLVER_TTL == 7 * 86_400

    def test_negative_entries(self):
        clock, cache = self.make(negative_ttl=10)
        cache.put_negative(N("gone.y"), RRType.A)
        state, rrset = cache.get_state(N("gone.y"), RRType.A)
        assert state == "negative" and rrset is None
        clock.advance(11)
        state, _ = cache.get_state(N("gone.y"), RRType.A)
        assert state == "miss"

    def test_hit_miss_counters(self):
        clock, cache = self.make()
        cache.get(N("x.y"), RRType.A)
        cache.put(RRset.of(N("x.y"), [A(IP("1.1.1.1"))], ttl=60))
        cache.get(N("x.y"), RRType.A)
        assert cache.misses == 1 and cache.hits == 1

    def test_expire_stale_sweep(self):
        clock, cache = self.make()
        cache.put(RRset.of(N("a.y"), [A(IP("1.1.1.1"))], ttl=10))
        cache.put(RRset.of(N("b.y"), [A(IP("1.1.1.2"))], ttl=1000))
        clock.advance(11)
        assert cache.expire_stale() == 1
        assert len(cache) == 1

    def test_bad_parameters_rejected(self):
        clock = SimulatedClock(now=0.0)
        with pytest.raises(ValueError):
            ResolverCache(clock, max_ttl=0)


class TestResolver:
    def test_full_chain_resolution(self, mini_dns):
        resolver = mini_dns["resolver"]
        result = resolver.resolve(N("www.health.gov.au"), RRType.A)
        assert result.ok
        assert [str(a) for a in result.addresses()] == ["9.9.9.10"]

    def test_walk_follows_the_referral_chain(self, mini_dns):
        network = mini_dns["network"]
        result = mini_dns["resolver"].resolve(N("www.gov.au"), RRType.A)
        assert result.ok
        # One send per level, in walk order: root, au, gov.au.
        assert network.stats.queries_sent == 3
        assert list(network.stats.per_destination.items()) == [
            (mini_dns["root_address"], 1),
            (mini_dns["au_address"], 1),
            (mini_dns["gov_address"], 1),
        ]

    def test_nxdomain(self, mini_dns):
        result = mini_dns["resolver"].resolve(N("nothing.gov.au"), RRType.A)
        assert result.status == "nxdomain"

    def test_nodata(self, mini_dns):
        result = mini_dns["resolver"].resolve(N("www.gov.au"), RRType.NS)
        assert result.status == "nodata"

    def test_cache_short_circuits_network(self, mini_dns):
        resolver = mini_dns["resolver"]
        network = mini_dns["network"]
        resolver.resolve(N("www.gov.au"), RRType.A)
        sent_before = network.stats.queries_sent
        result = resolver.resolve(N("www.gov.au"), RRType.A)
        assert result.ok
        assert network.stats.queries_sent == sent_before

    def test_dead_leaf_is_servfail(self, mini_dns):
        network = mini_dns["network"]
        network.set_up(mini_dns["health_address"], False)
        result = mini_dns["resolver"].resolve(
            N("www.health.gov.au"), RRType.A
        )
        assert result.status == "servfail"
        assert result.failure_reason == "timeout"

    def test_lame_referral_server_skipped(self, mini_dns):
        # Point the gov.au delegation at a server that refuses, with the
        # real server second: resolution must still succeed.
        au_zone = mini_dns["au_zone"]
        network = mini_dns["network"]
        from repro.dns.server import AuthoritativeServer

        lame = AuthoritativeServer(N("lame.gov.au"), miss_behavior=MissBehavior.REFUSED)
        network.attach(IP("4.0.0.1"), lame)
        au_zone.add_records(
            N("gov.au"), NS(N("lame.gov.au")), NS(N("ns1.gov.au"))
        )
        au_zone.add_records(N("lame.gov.au"), A(IP("4.0.0.1")))
        result = mini_dns["resolver"].resolve(N("www.gov.au"), RRType.A)
        assert result.ok

    def test_query_at_returns_none_on_timeout(self, mini_dns):
        resolver = mini_dns["resolver"]
        assert (
            resolver.query_at(IP("10.99.99.99"), N("www.gov.au"), RRType.A)
            is None
        )

    def test_query_at_direct_answer(self, mini_dns):
        response = mini_dns["resolver"].query_at(
            mini_dns["gov_address"], N("www.gov.au"), RRType.A
        )
        assert response.aa

    def test_resolve_address_helper(self, mini_dns):
        addresses = mini_dns["resolver"].resolve_address(N("www.gov.au"))
        assert [str(a) for a in addresses] == ["9.9.9.9"]
        assert mini_dns["resolver"].resolve_address(N("nope.gov.au")) == ()

    def test_glueless_delegation_resolved(self, mini_dns):
        # Delegate money.gov.au to a nameserver whose A record lives in
        # gov.au (out of the referral's additional section).
        gov_zone = mini_dns["gov_zone"]
        network = mini_dns["network"]
        from repro.dns.server import AuthoritativeServer
        from repro.dns.rdata import SOA
        from repro.dns.zone import Zone

        money = Zone(N("money.gov.au"))
        money.add_records(N("money.gov.au"), NS(N("glueless.gov.au")))
        money.add_records(
            N("money.gov.au"), SOA(N("glueless.gov.au"), N("h.money.gov.au"))
        )
        money.add_records(N("www.money.gov.au"), A(IP("9.9.9.11")))
        server = AuthoritativeServer(N("glueless.gov.au"))
        server.load_zone(money)
        network.attach(IP("5.0.0.1"), server)
        gov_zone.add_records(N("money.gov.au"), NS(N("glueless.gov.au")))
        gov_zone.add_records(N("glueless.gov.au"), A(IP("5.0.0.1")))
        result = mini_dns["resolver"].resolve(N("www.money.gov.au"), RRType.A)
        assert result.ok
        assert [str(a) for a in result.addresses()] == ["9.9.9.11"]

    def test_requires_root_hints(self, mini_dns):
        with pytest.raises(ValueError):
            Resolver(mini_dns["network"], [])
