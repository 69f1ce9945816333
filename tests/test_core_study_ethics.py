"""Tests for study orchestration and the ethics provisions."""

import pytest

from repro.core.ethics import RateLimiter, research_ptr_zone
from repro.dns import DnsName, RRType
from repro.inet.address import IPv4Address
from repro.inet.clock import SimulatedClock

N = DnsName.parse


class TestRateLimiter:
    def test_burst_is_free(self):
        clock = SimulatedClock(now=0.0)
        limiter = RateLimiter(clock, queries_per_second=10, burst=5)
        for _ in range(5):
            limiter.acquire()
        assert clock.now == 0.0

    def test_sustained_rate_charges_time(self):
        clock = SimulatedClock(now=0.0)
        limiter = RateLimiter(clock, queries_per_second=10, burst=1)
        for _ in range(11):
            limiter.acquire()
        # 10 of the 11 queries had to wait 0.1s each.
        assert clock.now == pytest.approx(1.0, abs=0.05)
        assert limiter.waited_seconds > 0

    def test_idle_time_refills(self):
        clock = SimulatedClock(now=0.0)
        limiter = RateLimiter(clock, queries_per_second=10, burst=5)
        for _ in range(5):
            limiter.acquire()
        clock.advance(10.0)
        before = clock.now
        for _ in range(5):
            limiter.acquire()
        assert clock.now == before

    def test_bad_parameters(self):
        clock = SimulatedClock()
        with pytest.raises(ValueError):
            RateLimiter(clock, queries_per_second=0)


class TestResearchPtr:
    def test_zone_contains_identifying_record(self):
        zone = research_ptr_zone(IPv4Address.parse("192.0.2.53"))
        assert zone.origin == N("2.0.192.in-addr.arpa")
        rrset = zone.get(N("53.2.0.192.in-addr.arpa"), RRType.PTR)
        assert rrset is not None
        assert "research" in str(rrset.rdatas[0])


class TestStudyOrchestration:
    def test_stages_are_cached(self, study):
        assert study.seeds() is study.seeds()
        assert study.targets() is study.targets()
        assert study.dataset() is study.dataset()
        assert study.pdns_replication() is study.pdns_replication()

    def test_headline_keys(self, study):
        headline = study.headline()
        for key in (
            "targets",
            "parent_response",
            "parent_nonempty",
            "responsive",
            "share_ge2_ns",
            "single_ns_stale_share",
            "defective_any",
            "defective_partial",
            "defective_full",
            "consistent_share",
        ):
            assert key in headline

    def test_population_funnel(self, study):
        headline = study.headline()
        assert (
            headline["targets"]
            >= headline["parent_response"]
            >= headline["parent_nonempty"]
            >= headline["responsive"]
        )

    def test_funnel_shares_match_paper_shape(self, study):
        headline = study.headline()
        # Paper: 147k → 115k (78%) → 96k (65%).
        response_share = headline["parent_response"] / headline["targets"]
        nonempty_share = headline["parent_nonempty"] / headline["targets"]
        assert 0.65 < response_share < 0.95
        assert 0.55 < nonempty_share < 0.85

    def test_probe_traffic_accounted(self, study, world):
        # Every probe query went through the shared network; the
        # campaign left a footprint in the network stats.
        assert world.network.stats.queries_sent > len(study.targets())
