"""The chaos layer: fault windows, composition into the network, and
the canonical named profiles.

Chaos is only trustworthy if it is (a) deterministic — same seed, same
faults, same losses — and (b) *neutral when idle*: a schedule whose
windows never activate must leave the network's RNG stream untouched,
or installing chaos would silently change every fault-free exchange.
"""

from __future__ import annotations

import random

import pytest

from repro.inet.address import IPv4Address, IPv4Prefix
from repro.net.chaos import (
    PROFILES,
    FaultSchedule,
    LatencyBrownout,
    LossBurst,
    OutageWindow,
    RateLimitRule,
    build_profile,
)
from repro.inet.clock import SimulatedClock
from repro.net.latency import FixedLatency, LogNormalLatency
from repro.net.network import FunctionHost, Network, QueryTimeout

IP = IPv4Address.parse


def echo_host():
    return FunctionHost(lambda payload, src: ("echo", payload))


def make_net(**kwargs):
    net = Network(
        clock=SimulatedClock(),
        rng=random.Random(1),
        default_latency=kwargs.pop("default_latency", FixedLatency(0.02)),
        **kwargs,
    )
    return net


class TestWindows:
    def test_outage_active_half_open_interval(self):
        window = OutageWindow(10.0, 20.0, [IP("10.0.0.1")])
        addr = IP("10.0.0.1")
        assert not window.active(addr, 9.999)
        assert window.active(addr, 10.0)
        assert window.active(addr, 19.999)
        assert not window.active(addr, 20.0)

    def test_prefix_targeting(self):
        window = OutageWindow(0.0, 10.0, [IPv4Prefix.parse("10.0.0.0/24")])
        assert window.active(IP("10.0.0.5"), 1.0)
        assert not window.active(IP("10.0.1.5"), 1.0)

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty fault window"):
            OutageWindow(10.0, 10.0, [IP("10.0.0.1")])

    def test_windows_validate_parameters(self):
        addr = [IP("10.0.0.1")]
        with pytest.raises(ValueError, match="loss rate"):
            LossBurst(0.0, 1.0, addr, loss_rate=0.0)
        with pytest.raises(ValueError, match="loss rate"):
            LossBurst(0.0, 1.0, addr, loss_rate=1.5)
        with pytest.raises(ValueError, match="extra latency"):
            LatencyBrownout(0.0, 1.0, addr, extra_seconds=0.0)
        with pytest.raises(ValueError, match=">= 1 query"):
            RateLimitRule(addr, max_queries=0, per_seconds=10.0)
        with pytest.raises(ValueError, match="window must be positive"):
            RateLimitRule(addr, max_queries=5, per_seconds=0.0)

    def test_non_address_target_rejected(self):
        with pytest.raises(TypeError, match="chaos target"):
            OutageWindow(0.0, 1.0, ["10.0.0.1"])  # type: ignore[list-item]

    def test_targetless_window_rejected(self):
        with pytest.raises(ValueError, match="at least one target"):
            OutageWindow(0.0, 1.0, [])


class TestNetworkComposition:
    def test_outage_silences_then_recovers(self):
        net = make_net()
        addr = IP("10.0.0.1")
        net.attach(addr, echo_host())
        t0 = net.clock.now
        net.chaos = FaultSchedule(
            seed=3, outages=[OutageWindow(t0 + 10.0, t0 + 20.0, [addr])]
        )
        assert net.query(addr, "pre", timeout=3.0) == ("echo", "pre")
        net.clock.advance(t0 + 10.0 - net.clock.now)
        with pytest.raises(QueryTimeout):
            net.query(addr, "mid", timeout=3.0)
        net.clock.advance(t0 + 20.0 - net.clock.now)
        assert net.query(addr, "post", timeout=3.0) == ("echo", "post")
        assert net.chaos.stats.outage_drops == 1

    def test_total_loss_burst_drops_everything_in_window(self):
        net = make_net()
        addr = IP("10.0.0.1")
        net.attach(addr, echo_host())
        t0 = net.clock.now
        net.chaos = FaultSchedule(
            seed=3, bursts=[LossBurst(t0, t0 + 100.0, [addr], loss_rate=1.0)]
        )
        with pytest.raises(QueryTimeout):
            net.query(addr, "hi", timeout=3.0)
        assert net.chaos.stats.burst_losses == 1

    def test_partial_loss_burst_is_seed_deterministic(self):
        def run(seed):
            net = make_net()
            addr = IP("10.0.0.1")
            net.attach(addr, echo_host())
            t0 = net.clock.now
            net.chaos = FaultSchedule(
                seed=seed,
                bursts=[LossBurst(t0, t0 + 1e6, [addr], loss_rate=0.5)],
            )
            fates = []
            for i in range(40):
                try:
                    net.query(addr, i, timeout=3.0)
                    fates.append("a")
                except QueryTimeout:
                    fates.append("t")
            return fates

        first, second = run(11), run(11)
        assert first == second
        assert "a" in first and "t" in first

    def test_brownout_adds_latency(self):
        net = make_net()
        addr = IP("10.0.0.1")
        net.attach(addr, echo_host())
        t0 = net.clock.now
        net.chaos = FaultSchedule(
            seed=3,
            brownouts=[
                LatencyBrownout(t0, t0 + 100.0, [addr], extra_seconds=2.6)
            ],
        )
        before = net.clock.now
        assert net.query(addr, "hi", timeout=5.0) == ("echo", "hi")
        elapsed = net.clock.now - before
        # FixedLatency(0.02) round trip is 0.04; the brownout adds 2.6.
        assert elapsed == pytest.approx(2.64)
        assert net.chaos.stats.brownout_hits == 1

    def test_brownout_past_timeout_becomes_silence(self):
        net = make_net()
        addr = IP("10.0.0.1")
        net.attach(addr, echo_host())
        t0 = net.clock.now
        net.chaos = FaultSchedule(
            seed=3,
            brownouts=[
                LatencyBrownout(t0, t0 + 100.0, [addr], extra_seconds=9.0)
            ],
        )
        with pytest.raises(QueryTimeout):
            net.query(addr, "hi", timeout=3.0)

    def test_rate_limit_refuses_above_qps(self):
        net = make_net()
        addr = IP("10.0.0.1")
        net.attach(addr, echo_host())
        net.chaos = FaultSchedule(
            seed=3,
            rate_limits=[
                RateLimitRule([addr], max_queries=2, per_seconds=10.0)
            ],
            refusal_factory=lambda payload: ("REFUSED", payload),
        )
        assert net.query(addr, 1, timeout=3.0) == ("echo", 1)
        assert net.query(addr, 2, timeout=3.0) == ("echo", 2)
        assert net.query(addr, 3, timeout=3.0) == ("REFUSED", 3)
        assert net.chaos.stats.rate_limit_refusals == 1
        # Once the window slides past the burst, service resumes.
        net.clock.advance(11.0)
        assert net.query(addr, 4, timeout=3.0) == ("echo", 4)

    def test_rate_limit_without_refusal_factory_rejected(self):
        with pytest.raises(ValueError, match="refusal_factory"):
            FaultSchedule(
                rate_limits=[
                    RateLimitRule([IP("10.0.0.1")], max_queries=1, per_seconds=1.0)
                ]
            )

    def test_idle_schedule_is_rng_neutral(self):
        """A schedule whose windows never activate must not perturb the
        network's RNG stream — chaos-off and chaos-idle are identical."""

        def rtts(with_chaos):
            net = Network(
                clock=SimulatedClock(),
                rng=random.Random(5),
                default_latency=LogNormalLatency(),
            )
            addr = IP("10.0.0.1")
            net.attach(addr, echo_host())
            if with_chaos:
                # Windows over a different address entirely.
                t0 = net.clock.now
                net.chaos = FaultSchedule(
                    seed=99,
                    outages=[OutageWindow(t0, t0 + 1e6, [IP("10.9.9.9")])],
                    bursts=[LossBurst(t0, t0 + 1e6, [IP("10.9.9.9")], 0.9)],
                )
            samples = []
            for i in range(25):
                before = net.clock.now
                net.query(addr, i, timeout=30.0)
                samples.append(net.clock.now - before)
            return samples

        assert rtts(with_chaos=False) == rtts(with_chaos=True)


class TestProfiles:
    ADDRESSES = sorted(IP(f"10.1.{i // 256}.{i % 256}") for i in range(60))

    def test_every_named_profile_builds(self):
        for name in PROFILES:
            schedule = build_profile(
                name,
                self.ADDRESSES,
                seed=7,
                start=100.0,
                refusal_factory=lambda payload: "refused",
            )
            assert schedule.name == name

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown chaos profile"):
            build_profile("meteor", self.ADDRESSES, seed=7, start=0.0)

    def test_empty_address_set_rejected(self):
        with pytest.raises(ValueError, match="zero addresses"):
            build_profile("outage", [], seed=7, start=0.0)

    def test_outage_profile_picks_share_deterministically(self):
        one = build_profile("outage", self.ADDRESSES, seed=7, start=100.0)
        two = build_profile("outage", self.ADDRESSES, seed=7, start=100.0)
        dead_one = {a for a in self.ADDRESSES if one.in_outage(a, 100.0)}
        dead_two = {a for a in self.ADDRESSES if two.in_outage(a, 100.0)}
        assert dead_one == dead_two
        assert len(dead_one) == 6  # 10% of 60
        # Windows are anchored at the campaign start and finite.
        assert not any(one.in_outage(a, 100.0 + 2 * 3600.0) for a in dead_one)
        assert not any(one.in_outage(a, 99.9) for a in dead_one)

    def test_profiles_draw_independent_populations(self):
        outage = build_profile("outage", self.ADDRESSES, seed=7, start=0.0)
        mixed = build_profile(
            "mixed",
            self.ADDRESSES,
            seed=7,
            start=0.0,
            refusal_factory=lambda payload: "refused",
        )
        dead_outage = {a for a in self.ADDRESSES if outage.in_outage(a, 0.0)}
        dead_mixed = {a for a in self.ADDRESSES if mixed.in_outage(a, 0.0)}
        assert len(dead_outage) == 6
        assert len(dead_mixed) == 3  # mixed uses the 5% share
