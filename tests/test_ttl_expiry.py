"""Edge-case tests for the shared TTL-clamp/expiry policy.

:class:`repro.dns.cache.TtlExpiry` backs both resolver-facing caches,
so its boundary semantics (zero TTLs, the inclusive exactly-at-expiry
instant, and how frozen mode composes with the RFC 8767 stale window)
are load-bearing for the serving layer and for servelint's static
stale-coverage arithmetic.
"""

import pytest

from repro.dns.cache import ResolverCache, TtlExpiry
from repro.dns.name import DnsName
from repro.dns.rdata import RRType, A
from repro.dns.rrset import RRset
from repro.inet.address import IPv4Address
from repro.inet.clock import SimulatedClock

N = DnsName.parse
IP = IPv4Address.parse


def make_cache(**kwargs):
    clock = SimulatedClock(now=0.0)
    return clock, ResolverCache(clock, **kwargs)


def a_record(name, ttl):
    return RRset.of(N(name), [A(IP("1.2.3.4"))], ttl=ttl)


class TestZeroTtl:
    def test_zero_ttl_expires_at_now(self):
        clock = SimulatedClock(now=100.0)
        expiry = TtlExpiry(clock, max_ttl=300)
        assert expiry.clamp(0) == 0
        assert expiry.expires_at(0) == 100.0
        # Inclusive boundary: a zero-TTL horizon is already past.
        assert expiry.expired(expiry.expires_at(0))

    def test_zero_ttl_entry_is_an_immediate_miss(self):
        clock, cache = make_cache()
        cache.put(a_record("x.y", ttl=0))
        assert cache.get(N("x.y"), RRType.A) is None
        assert len(cache) == 0  # dropped on read, not retained

    def test_zero_ttl_entry_is_stale_inside_window(self):
        # RFC 8767: a zero-TTL answer is never fresh but still serves
        # stale for the whole retention window.
        clock, cache = make_cache(stale_window=60.0)
        cache.put(a_record("x.y", ttl=0))
        answer = cache.lookup(N("x.y"), RRType.A)
        assert answer.state == "stale"
        clock.advance(59.0)
        assert cache.lookup(N("x.y"), RRType.A).state == "stale"
        clock.advance(1.0)  # exactly at the retention horizon
        assert cache.lookup(N("x.y"), RRType.A).state == "miss"

    def test_zero_soa_minimum_negative_expires_immediately(self):
        clock, cache = make_cache(negative_ttl=900)
        cache.put_negative(N("gone.y"), RRType.A, soa_minimum=0)
        state, _ = cache.get_state(N("gone.y"), RRType.A)
        assert state == "miss"


class TestExactlyAtExpiry:
    def test_expiry_boundary_is_inclusive(self):
        # At t == expires_at the entry is expired — `<=`, not `<`.
        clock, cache = make_cache()
        cache.put(a_record("x.y", ttl=300))
        clock.advance(299.0)
        assert cache.get(N("x.y"), RRType.A) is not None
        clock.advance(1.0)
        assert cache.get(N("x.y"), RRType.A) is None

    def test_boundary_instant_rolls_into_stale_window(self):
        clock, cache = make_cache(stale_window=100.0)
        cache.put(a_record("x.y", ttl=300))
        clock.advance(300.0)
        answer = cache.lookup(N("x.y"), RRType.A)
        assert answer.state == "stale"
        assert answer.expires_at == 300.0

    def test_retention_horizon_is_inclusive_too(self):
        clock, cache = make_cache(stale_window=100.0)
        cache.put(a_record("x.y", ttl=300))
        clock.advance(399.0)  # one second inside the window
        assert cache.lookup(N("x.y"), RRType.A).state == "stale"
        clock.advance(1.0)  # exactly ttl + stale_window
        assert cache.lookup(N("x.y"), RRType.A).state == "miss"

    def test_negative_boundary_matches_positive(self):
        clock, cache = make_cache(negative_ttl=10, stale_window=5.0)
        cache.put_negative(N("gone.y"), RRType.A, kind="nodata")
        clock.advance(10.0)
        answer = cache.lookup(N("gone.y"), RRType.A)
        assert answer.state == "stale_negative"
        assert answer.kind == "nodata"
        clock.advance(5.0)
        assert cache.lookup(N("gone.y"), RRType.A).state == "miss"


class TestFrozenModeStaleWindow:
    def test_freeze_prunes_past_retention_not_merely_stale(self):
        clock, cache = make_cache(stale_window=100.0)
        cache.put(a_record("live.y", ttl=1000))
        cache.put(a_record("stale.y", ttl=300))
        cache.put(a_record("lapsed.y", ttl=100))
        clock.advance(301.0)
        # live.y fresh; stale.y inside its window; lapsed.y past it.
        assert cache.freeze() == 1
        assert len(cache) == 2

    def test_frozen_survivors_read_fresh_forever(self):
        # After freeze the live clock is out of the loop: an entry that
        # was merely stale at freeze time reads as fresh however far
        # the campaign clock advances.
        clock, cache = make_cache(stale_window=100.0)
        cache.put(a_record("stale.y", ttl=300))
        clock.advance(301.0)
        assert cache.lookup(N("stale.y"), RRType.A).state == "stale"
        cache.freeze()
        clock.advance(10_000_000.0)
        assert cache.lookup(N("stale.y"), RRType.A).state == "fresh"

    def test_frozen_cache_rejects_writes_and_flush(self):
        clock, cache = make_cache(stale_window=100.0)
        cache.put(a_record("keep.y", ttl=300))
        cache.freeze()
        cache.put(a_record("new.y", ttl=300))
        cache.put_negative(N("neg.y"), RRType.A)
        cache.flush()
        assert len(cache) == 1
        assert cache.get(N("keep.y"), RRType.A) is not None

    def test_lapsed_stays_honest_while_frozen(self):
        # `lapsed` is the raw horizon check freeze-time pruning uses; it
        # must keep consulting the clock even after expired() is pinned.
        clock = SimulatedClock(now=0.0)
        expiry = TtlExpiry(clock, max_ttl=300)
        horizon = expiry.expires_at(300)
        expiry.freeze()
        clock.advance(1000.0)
        assert not expiry.expired(horizon)
        assert expiry.lapsed(horizon)

    def test_zero_stale_window_freeze_drops_expired(self):
        # Historical (pre-stale) behaviour: with no window, anything
        # past plain expiry is pruned at freeze time.
        clock, cache = make_cache()
        cache.put(a_record("old.y", ttl=10))
        cache.put(a_record("new.y", ttl=1000))
        clock.advance(10.0)  # exactly at old.y's horizon — inclusive
        assert cache.freeze() == 1
        assert cache.get(N("old.y"), RRType.A) is None
        assert cache.get(N("new.y"), RRType.A) is not None


def test_nonpositive_max_ttl_rejected():
    clock = SimulatedClock(now=0.0)
    with pytest.raises(ValueError):
        TtlExpiry(clock, max_ttl=0)
