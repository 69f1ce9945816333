"""Adaptive resilience: backoff policy, circuit breaker, and the
transient-vs-persistent failure classification they feed.

Unit tests pin the primitives' state machines; the integration tests
run real campaigns over hand-built worlds to show (a) the breaker
records skips as explicit ``BREAKER_OPEN`` outcomes, (b) the retry
round clears transient SERVFAILs (the §III-B re-measurement fix), and
(c) delegation analysis downgrades single-round soft failures to
provisional confidence.
"""

from __future__ import annotations

import hashlib
import io
import json
import random

import pytest

from repro.cli import main
from repro.core.dataset import MeasurementDataset, ServerOutcome
from repro.core.delegation import DelegationAnalysis
from repro.core.probe import ActiveProber, ProbeConfig
from repro.core.shard import CampaignCounters
from repro.dns import (
    A,
    AuthoritativeServer,
    DnsName,
    NS,
    Rcode,
    SOA,
    Zone,
    make_response,
)
from repro.net import IPv4Address, Network
from repro.inet.clock import SimulatedClock
from repro.net.network import FunctionHost
from repro.net.resilience import (
    BackoffPolicy,
    BreakerState,
    CircuitBreaker,
)
from repro.report.resilience import ResilienceReport

IP = IPv4Address.parse
NAME = DnsName.parse


class TestBackoffPolicy:
    def test_zero_base_means_immediate_retransmit(self):
        policy = BackoffPolicy()
        rng = random.Random(1)
        assert policy.delay(1, rng) == 0.0
        assert policy.delay(5, rng) == 0.0

    def test_exponential_growth_and_cap(self):
        policy = BackoffPolicy(base=1.0, multiplier=2.0, cap=5.0)
        rng = random.Random(1)
        assert policy.delay(1, rng) == 1.0
        assert policy.delay(2, rng) == 2.0
        assert policy.delay(3, rng) == 4.0
        assert policy.delay(4, rng) == 5.0  # capped, not 8
        assert policy.delay(10, rng) == 5.0

    def test_jitter_spreads_but_stays_bounded(self):
        policy = BackoffPolicy(base=2.0, multiplier=1.0, cap=2.0, jitter=0.5)
        rng = random.Random(3)
        delays = {policy.delay(1, rng) for _ in range(50)}
        assert len(delays) > 1  # actually random
        assert all(2.0 <= d < 3.0 for d in delays)  # base * [1, 1.5)

    def test_jitter_is_seed_deterministic(self):
        policy = BackoffPolicy(base=1.0, jitter=1.0)
        first = [policy.delay(1, random.Random(9)) for _ in range(1)]
        second = [policy.delay(1, random.Random(9)) for _ in range(1)]
        assert first == second

    @pytest.mark.parametrize(
        "kwargs, fragment",
        [
            ({"base": -1.0}, "-1.0"),
            ({"multiplier": 0.5}, "0.5"),
            ({"base": 2.0, "cap": 1.0}, "cap"),
            ({"jitter": 1.5}, "1.5"),
        ],
    )
    def test_validation_names_the_offending_value(self, kwargs, fragment):
        with pytest.raises(ValueError, match=fragment):
            BackoffPolicy(**kwargs)

    def test_attempt_must_be_positive(self):
        with pytest.raises(ValueError, match="0"):
            BackoffPolicy(base=1.0).delay(0, random.Random(1))


class TestCircuitBreaker:
    ADDR = IP("10.0.0.1")

    def make(self, threshold=3, cooldown=60.0):
        clock = SimulatedClock(now=0.0)
        return clock, CircuitBreaker(clock, threshold, cooldown)

    def test_closed_until_threshold_consecutive_failures(self):
        clock, breaker = self.make(threshold=3)
        for _ in range(2):
            assert breaker.allow(self.ADDR)
            breaker.record_outcome(self.ADDR, responded=False)
        assert breaker.state_of(self.ADDR) == BreakerState.CLOSED
        assert breaker.allow(self.ADDR)
        breaker.record_outcome(self.ADDR, responded=False)
        assert breaker.state_of(self.ADDR) == BreakerState.OPEN
        assert breaker.trips == 1

    def test_success_resets_the_failure_count(self):
        clock, breaker = self.make(threshold=2)
        breaker.record_outcome(self.ADDR, responded=False)
        breaker.record_outcome(self.ADDR, responded=True)
        breaker.record_outcome(self.ADDR, responded=False)
        assert breaker.state_of(self.ADDR) == BreakerState.CLOSED

    def test_open_skips_until_cooldown_then_half_opens(self):
        clock, breaker = self.make(threshold=1, cooldown=60.0)
        breaker.record_outcome(self.ADDR, responded=False)
        assert not breaker.allow(self.ADDR)
        assert breaker.skips == 1
        clock.advance(60.0)
        assert breaker.allow(self.ADDR)  # the half-open re-probe
        assert breaker.state_of(self.ADDR) == BreakerState.HALF_OPEN
        # Only one half-open probe may be in flight.
        assert not breaker.allow(self.ADDR)

    def test_half_open_success_closes(self):
        clock, breaker = self.make(threshold=1, cooldown=60.0)
        breaker.record_outcome(self.ADDR, responded=False)
        clock.advance(60.0)
        assert breaker.allow(self.ADDR)
        breaker.record_outcome(self.ADDR, responded=True)
        assert breaker.state_of(self.ADDR) == BreakerState.CLOSED
        assert breaker.open_count() == 0

    def test_half_open_failure_reopens_immediately(self):
        clock, breaker = self.make(threshold=3, cooldown=60.0)
        for _ in range(3):
            breaker.record_outcome(self.ADDR, responded=False)
        clock.advance(60.0)
        assert breaker.allow(self.ADDR)
        breaker.record_outcome(self.ADDR, responded=False)
        assert breaker.state_of(self.ADDR) == BreakerState.OPEN
        assert breaker.trips == 2

    def test_breakers_are_per_destination(self):
        clock, breaker = self.make(threshold=1)
        other = IP("10.0.0.2")
        breaker.record_outcome(self.ADDR, responded=False)
        assert not breaker.allow(self.ADDR)
        assert breaker.allow(other)
        assert breaker.open_count() == 1

    def test_validation(self):
        clock = SimulatedClock(now=0.0)
        with pytest.raises(ValueError, match="threshold"):
            CircuitBreaker(clock, threshold=0, cooldown=60.0)
        with pytest.raises(ValueError, match="cooldown"):
            CircuitBreaker(clock, threshold=1, cooldown=0.0)


class TestConfigValidation:
    """Satellite: bad knobs fail loudly, naming the offending value."""

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="-2"):
            ProbeConfig(retries=-2)

    def test_zero_retry_interval_rejected(self):
        with pytest.raises(ValueError, match="0"):
            ProbeConfig(retry_interval_days=0)

    def test_breaker_threshold_zero_rejected(self):
        with pytest.raises(ValueError, match="0"):
            ProbeConfig(breaker_threshold=0)

    def test_network_flaky_share_out_of_range(self):
        with pytest.raises(ValueError, match="1.5"):
            Network(flaky_share=1.5)

    def test_network_flaky_loss_rate_out_of_range(self):
        with pytest.raises(ValueError, match="1.0"):
            Network(flaky_loss_rate=1.0)


# ----------------------------------------------------------------------
# Integration worlds
# ----------------------------------------------------------------------
ROOT_ADDRESS = IP("198.41.0.4")
TLD_ADDRESS = IP("1.0.0.1")
DEAD_ADDRESS = IP("9.9.9.9")  # glue points here; nothing ever attached
SRV_ADDRESS = IP("5.0.0.1")


def _build_shared_ns_world(domain_count=4):
    """``d{i}.test.`` all delegate to one glued nameserver whose
    address is dead — the breaker's natural prey."""
    network = Network()

    root_zone = Zone(NAME("."))
    root_zone.add_records(NAME("."), NS(NAME("a.root-servers.net.")))
    root_zone.add_records(NAME("test."), NS(NAME("ns.test.")))
    root_zone.add_records(NAME("ns.test."), A(TLD_ADDRESS))
    root_server = AuthoritativeServer(NAME("a.root-servers.net."))
    root_server.load_zone(root_zone)
    network.attach(ROOT_ADDRESS, root_server)

    tld_zone = Zone(NAME("test."))
    tld_zone.add_records(NAME("test."), NS(NAME("ns.test.")))
    tld_zone.add_records(
        NAME("test."), SOA(NAME("ns.test."), NAME("hostmaster.test."))
    )
    tld_zone.add_records(NAME("ns.test."), A(TLD_ADDRESS))
    domains = []
    for i in range(domain_count):
        domain = NAME(f"d{i}.test.")
        tld_zone.add_records(domain, NS(NAME("ns.shared.test.")))
        domains.append(domain)
    tld_zone.add_records(NAME("ns.shared.test."), A(DEAD_ADDRESS))
    tld_server = AuthoritativeServer(NAME("ns.test."))
    tld_server.load_zone(tld_zone)
    network.attach(TLD_ADDRESS, tld_server)

    return network, domains


def _build_servfail_then_recover_world(recover_at=3600.0):
    """``srv.test.`` has one live nameserver that answers SERVFAIL for
    the first ``recover_at`` simulated seconds, then serves normally —
    the transient-failure shape the retry round exists to absorb."""
    network = Network()

    root_zone = Zone(NAME("."))
    root_zone.add_records(NAME("."), NS(NAME("a.root-servers.net.")))
    root_zone.add_records(NAME("test."), NS(NAME("ns.test.")))
    root_zone.add_records(NAME("ns.test."), A(TLD_ADDRESS))
    root_server = AuthoritativeServer(NAME("a.root-servers.net."))
    root_server.load_zone(root_zone)
    network.attach(ROOT_ADDRESS, root_server)

    tld_zone = Zone(NAME("test."))
    tld_zone.add_records(NAME("test."), NS(NAME("ns.test.")))
    tld_zone.add_records(
        NAME("test."), SOA(NAME("ns.test."), NAME("hostmaster.test."))
    )
    tld_zone.add_records(NAME("ns.test."), A(TLD_ADDRESS))
    tld_zone.add_records(NAME("srv.test."), NS(NAME("ns.srv.test.")))
    tld_zone.add_records(NAME("ns.srv.test."), A(SRV_ADDRESS))
    tld_server = AuthoritativeServer(NAME("ns.test."))
    tld_server.load_zone(tld_zone)
    network.attach(TLD_ADDRESS, tld_server)

    srv_zone = Zone(NAME("srv.test."))
    srv_zone.add_records(NAME("srv.test."), NS(NAME("ns.srv.test.")))
    srv_zone.add_records(
        NAME("srv.test."),
        SOA(NAME("ns.srv.test."), NAME("hostmaster.srv.test.")),
    )
    srv_zone.add_records(NAME("ns.srv.test."), A(SRV_ADDRESS))
    srv_server = AuthoritativeServer(NAME("ns.srv.test."))
    srv_server.load_zone(srv_zone)

    deadline = network.clock.now + recover_at

    def flapping(payload, src):
        if network.clock.now < deadline:
            return make_response(payload, rcode=Rcode.SERVFAIL)
        return srv_server.handle_datagram(payload, src)

    network.attach(SRV_ADDRESS, FunctionHost(flapping))
    return network


def _probe(network, domains, **config_kwargs):
    config_kwargs.setdefault("rate_limit_qps", None)
    prober = ActiveProber(
        network,
        [ROOT_ADDRESS],
        IP("203.0.113.7"),
        config=ProbeConfig(**config_kwargs),
    )
    dataset = prober.probe_all({d: "AU" for d in domains})
    return prober, dataset


class TestBreakerInCampaign:
    def test_open_breaker_records_explicit_outcomes(self):
        network, domains = _build_shared_ns_world(domain_count=4)
        prober, dataset = _probe(
            network,
            domains,
            retry_round=False,
            breaker_threshold=2,
            breaker_cooldown=1e6,  # never re-probes within this campaign
        )
        outcomes = [
            dataset.results[d].servers[NAME("ns.shared.test.")].outcomes[
                DEAD_ADDRESS
            ]
            for d in domains
        ]
        # The first series time out on their own; once two consecutive
        # series have died the breaker opens and later probes are
        # skipped as explicit BREAKER_OPEN outcomes, never lost.
        assert ServerOutcome.TIMEOUT in outcomes
        assert ServerOutcome.BREAKER_OPEN in outcomes
        assert outcomes.count(ServerOutcome.TIMEOUT) == 2
        assert prober.breaker is not None
        assert prober.breaker.trips >= 1
        assert prober.breaker.state_of(DEAD_ADDRESS) == BreakerState.OPEN
        assert prober.resilience.breaker_skipped_probes >= 1

    def test_breaker_open_counts_as_soft_failure(self):
        network, domains = _build_shared_ns_world(domain_count=3)
        _, dataset = _probe(
            network,
            domains,
            retry_round=False,
            breaker_threshold=1,
            breaker_cooldown=1e6,
        )
        skipped = [
            r
            for r in dataset
            if ServerOutcome.BREAKER_OPEN
            in r.servers[NAME("ns.shared.test.")].outcomes.values()
        ]
        assert skipped
        for result in skipped:
            assert result.failure_persistence == "unconfirmed"
            probe = result.servers[NAME("ns.shared.test.")]
            assert probe.defect_confidence == "provisional"

    def test_breaker_off_by_default(self):
        network, domains = _build_shared_ns_world(domain_count=3)
        prober, dataset = _probe(network, domains, retry_round=False)
        assert prober.breaker is None
        for d in domains:
            outcome = dataset.results[d].servers[
                NAME("ns.shared.test.")
            ].outcomes[DEAD_ADDRESS]
            assert outcome == ServerOutcome.TIMEOUT


class TestBackoffInCampaign:
    def test_backoff_spaces_retransmits_and_is_counted(self):
        network, domains = _build_shared_ns_world(domain_count=1)
        prober, dataset = _probe(
            network,
            domains,
            retry_round=False,
            backoff=BackoffPolicy(base=4.0, multiplier=2.0, cap=30.0),
            retries=2,
        )
        counters = prober.resilience
        assert counters.retransmits == 2  # two extra sends to the dead NS
        # First retransmit waits 4 s, second 8 s.
        assert counters.backoff_wait_seconds == pytest.approx(12.0)

    def test_default_backoff_adds_no_wait(self):
        network, domains = _build_shared_ns_world(domain_count=1)
        prober, _ = _probe(network, domains, retry_round=False)
        assert prober.resilience.retransmits > 0
        assert prober.resilience.backoff_wait_seconds == 0.0


class TestTransientVsPersistent:
    def test_retry_clears_servfail_and_classifies_transient(self):
        """Satellite regression: the retry round must re-measure
        transient rcode verdicts (SERVFAIL), not only timeouts."""
        network = _build_servfail_then_recover_world(recover_at=3600.0)
        domain = NAME("srv.test.")
        _, dataset = _probe(network, [domain])
        result = dataset.results[domain]
        assert result.retried
        assert result.responsive
        probe = result.servers[NAME("ns.srv.test.")]
        assert probe.outcomes[SRV_ADDRESS] in ServerOutcome.AUTHORITATIVE
        # The round-one verdict is preserved as evidence, not erased.
        assert probe.prior_outcomes[SRV_ADDRESS] == ServerOutcome.SERVFAIL
        assert result.failure_persistence == "transient"

    def test_servfail_without_retry_round_stays_failed(self):
        network = _build_servfail_then_recover_world(recover_at=3600.0)
        domain = NAME("srv.test.")
        _, dataset = _probe(network, [domain], retry_round=False)
        result = dataset.results[domain]
        assert not result.retried
        assert not result.responsive
        probe = result.servers[NAME("ns.srv.test.")]
        assert probe.outcomes[SRV_ADDRESS] == ServerOutcome.SERVFAIL
        # SERVFAIL is positive evidence (the server *spoke*), so the
        # defect is confirmed even in a single round...
        assert probe.defect_confidence == "confirmed"
        # ...but with no second measurement its *persistence* over time
        # remains unknown.
        assert result.failure_persistence == "unconfirmed"

    def test_two_round_silence_is_persistent_and_confirmed(self):
        network, domains = _build_shared_ns_world(domain_count=1)
        _, dataset = _probe(network, domains)  # retry round on
        result = dataset.results[domains[0]]
        assert result.retried
        assert not result.responsive
        assert result.failure_persistence == "persistent"
        probe = result.servers[NAME("ns.shared.test.")]
        assert probe.prior_outcomes[DEAD_ADDRESS] == ServerOutcome.TIMEOUT
        assert probe.defect_confidence == "confirmed"

    def test_single_round_silence_is_unconfirmed_and_provisional(self):
        network, domains = _build_shared_ns_world(domain_count=1)
        _, dataset = _probe(network, domains, retry_round=False)
        result = dataset.results[domains[0]]
        assert result.failure_persistence == "unconfirmed"
        probe = result.servers[NAME("ns.shared.test.")]
        assert probe.defect_confidence == "provisional"

    def test_prevalence_bounds_collapse_with_retry(self):
        network, domains = _build_shared_ns_world(domain_count=2)
        _, dataset = _probe(network, domains, retry_round=False)
        bounds = DelegationAnalysis(dataset).prevalence_bounds()
        # Single-round soft failures: the defect share is only an upper
        # bound; nothing is confirmed.
        assert bounds["lower"] == 0.0
        assert bounds["upper"] == 1.0

        network, domains = _build_shared_ns_world(domain_count=2)
        _, dataset = _probe(network, domains)
        bounds = DelegationAnalysis(dataset).prevalence_bounds()
        # Two-round silence confirms: the bounds meet.
        assert bounds["lower"] == bounds["upper"] == 1.0

    def test_persistence_counts_histogram(self):
        network, domains = _build_shared_ns_world(domain_count=2)
        _, dataset = _probe(network, domains)
        assert dataset.persistence_counts() == {"persistent": 2}


class TestResilienceReport:
    """``repro campaign --resilience-out``: one report for every
    executor, built from the campaign's counters."""

    CHAOS_CAMPAIGN = ["--scale", "0.004", "campaign", "--chaos", "mixed"]
    # sha256 of the inline report at seed 7: the counters a campaign
    # reports must not move with the executor that ran it.
    INLINE_SHA256 = (
        "563654fc597d62785f6dc45e91397f1dabc18812fd1de707f4a62dd8350691ad"
    )

    @staticmethod
    def report_bytes(tmp_path, argv):
        path = tmp_path / "resilience.json"
        out = io.StringIO()
        assert main(argv + ["--resilience-out", str(path)], out=out) == 0
        assert f"resilience report written to {path}" in out.getvalue()
        return path.read_bytes()

    @pytest.fixture(scope="class")
    def inline(self, tmp_path_factory):
        return self.report_bytes(
            tmp_path_factory.mktemp("inline"), self.CHAOS_CAMPAIGN
        )

    def test_inline_report_is_pinned(self, inline):
        assert hashlib.sha256(inline).hexdigest() == self.INLINE_SHA256

    def test_single_shard_report_matches_inline(self, inline, tmp_path):
        # K=1 keeps the original RNG streams, so every counter matches.
        assert self.report_bytes(
            tmp_path, self.CHAOS_CAMPAIGN + ["--shards", "1"]
        ) == inline

    def test_two_shard_report_folds_worker_counters(self, tmp_path):
        payload = json.loads(
            self.report_bytes(tmp_path, self.CHAOS_CAMPAIGN + ["--shards", "2"])
        )
        assert payload["chaos_profile"] == "mixed"
        assert payload["chaos"] and all(payload["chaos"].values())
        assert payload["retransmits"] > 0

    def test_plain_campaign_reports_no_chaos(self):
        report = ResilienceReport.collect(
            CampaignCounters(retransmits=2), MeasurementDataset({})
        )
        assert report.chaos_profile is None and report.chaos == {}
        assert "chaos profile" not in report.render()
        assert report.payload()["retransmits"] == 2

