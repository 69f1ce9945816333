"""Tests for repro.net.network and repro.net.latency."""

import random

import pytest

from repro.inet.address import IPv4Address
from repro.net.latency import FixedLatency, LogNormalLatency
from repro.net.network import FunctionHost, Network, QueryTimeout


def echo_host():
    return FunctionHost(lambda payload, src: ("echo", payload))


def silent_host():
    return FunctionHost(lambda payload, src: None)


IP = IPv4Address.parse


class TestLatencyModels:
    def test_fixed_latency_constant(self):
        model = FixedLatency(0.05)
        rng = random.Random(1)
        assert model.sample(rng) == 0.05

    def test_fixed_latency_rejects_negative(self):
        with pytest.raises(ValueError):
            FixedLatency(-0.1)

    def test_lognormal_above_base(self):
        model = LogNormalLatency(base=0.01, median_extra=0.02, sigma=0.5)
        rng = random.Random(2)
        samples = [model.sample(rng) for _ in range(200)]
        assert all(s > 0.01 for s in samples)

    def test_lognormal_median_near_parameter(self):
        model = LogNormalLatency(base=0.0, median_extra=0.03, sigma=0.4)
        rng = random.Random(3)
        samples = sorted(model.sample(rng) for _ in range(2001))
        assert 0.02 < samples[1000] < 0.045

    def test_lognormal_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            LogNormalLatency(base=-1.0)
        with pytest.raises(ValueError):
            LogNormalLatency(median_extra=0.0)


class TestAttachment:
    def test_query_reaches_host(self):
        net = Network()
        net.attach(IP("10.0.0.1"), echo_host())
        assert net.query(IP("10.0.0.1"), "hi") == ("echo", "hi")

    def test_double_attach_rejected(self):
        net = Network()
        net.attach(IP("10.0.0.1"), echo_host())
        with pytest.raises(ValueError):
            net.attach(IP("10.0.0.1"), echo_host())

    def test_detach_makes_unreachable(self):
        net = Network()
        net.attach(IP("10.0.0.1"), echo_host())
        net.detach(IP("10.0.0.1"))
        with pytest.raises(QueryTimeout):
            net.query(IP("10.0.0.1"), "hi", timeout=1.0)

    def test_detach_unknown_raises(self):
        net = Network()
        with pytest.raises(KeyError):
            net.detach(IP("10.0.0.9"))

    def test_is_attached_and_host_at(self):
        net = Network()
        host = echo_host()
        net.attach(IP("10.0.0.1"), host)
        assert net.is_attached(IP("10.0.0.1"))
        assert net.host_at(IP("10.0.0.1")) is host
        assert net.host_at(IP("10.0.0.2")) is None

    def test_invalid_loss_rate_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.attach(IP("10.0.0.1"), echo_host(), loss_rate=1.0)


class TestDelivery:
    def test_unattached_address_times_out(self):
        net = Network()
        with pytest.raises(QueryTimeout):
            net.query(IP("10.0.0.1"), "hi", timeout=2.0)

    def test_timeout_charges_clock(self):
        net = Network()
        start = net.clock.now
        with pytest.raises(QueryTimeout):
            net.query(IP("10.0.0.1"), "hi", timeout=2.0)
        assert net.clock.now == start + 2.0

    def test_success_charges_rtt(self):
        net = Network(default_latency=FixedLatency(0.01))
        net.attach(IP("10.0.0.1"), echo_host())
        start = net.clock.now
        net.query(IP("10.0.0.1"), "hi")
        assert net.clock.now == pytest.approx(start + 0.02)

    def test_administratively_down_host_silent(self):
        net = Network()
        net.attach(IP("10.0.0.1"), echo_host())
        net.set_up(IP("10.0.0.1"), False)
        with pytest.raises(QueryTimeout):
            net.query(IP("10.0.0.1"), "hi", timeout=1.0)
        net.set_up(IP("10.0.0.1"), True)
        assert net.query(IP("10.0.0.1"), "hi") == ("echo", "hi")

    def test_silent_host_times_out(self):
        net = Network()
        net.attach(IP("10.0.0.1"), silent_host())
        with pytest.raises(QueryTimeout):
            net.query(IP("10.0.0.1"), "hi", timeout=1.0)

    def test_loss_rate_drops_some_datagrams(self):
        net = Network(rng=random.Random(5))
        net.attach(IP("10.0.0.1"), echo_host(), loss_rate=0.5)
        outcomes = []
        for _ in range(100):
            try:
                net.query(IP("10.0.0.1"), "x", timeout=0.5)
                outcomes.append(True)
            except QueryTimeout:
                outcomes.append(False)
        assert 20 < sum(outcomes) < 80

    def test_rtt_beyond_timeout_is_a_timeout(self):
        net = Network(default_latency=FixedLatency(1.0))
        net.attach(IP("10.0.0.1"), echo_host())
        with pytest.raises(QueryTimeout):
            net.query(IP("10.0.0.1"), "hi", timeout=0.5)

    def test_non_positive_timeout_rejected(self):
        net = Network()
        with pytest.raises(ValueError):
            net.query(IP("10.0.0.1"), "hi", timeout=0.0)


class TestStats:
    def test_counters(self):
        net = Network()
        net.attach(IP("10.0.0.1"), echo_host())
        net.query(IP("10.0.0.1"), "a")
        net.query(IP("10.0.0.1"), "b")
        try:
            net.query(IP("10.0.0.2"), "c", timeout=0.1)
        except QueryTimeout:
            pass
        assert net.stats.queries_sent == 3
        assert net.stats.responses_received == 2
        assert net.stats.timeouts == 1
        assert net.stats.per_destination[IP("10.0.0.1")] == 2
