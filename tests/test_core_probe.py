"""Tests for the active-measurement pipeline (probe + dataset model)."""

import pytest

from repro.core.dataset import (
    ParentStatus,
    ProbeResult,
    ServerOutcome,
    ServerProbe,
)
from repro.core.probe import ActiveProber, ProbeConfig
from repro.dns import DnsName
from repro.inet.address import IPv4Address
from repro.worldgen.generator import TargetStatus

N = DnsName.parse
IP = IPv4Address.parse


class TestServerProbeModel:
    def test_unresolvable_is_defective(self):
        probe = ServerProbe(hostname=N("ns1.x"), resolvable=False)
        assert probe.defective
        assert not probe.answered

    def test_answering_address_clears_defect(self):
        probe = ServerProbe(
            hostname=N("ns1.x"),
            resolvable=True,
            addresses=(IP("1.1.1.1"),),
            outcomes={IP("1.1.1.1"): ServerOutcome.ANSWER},
        )
        assert probe.answered
        assert not probe.defective

    def test_refused_only_is_defective(self):
        probe = ServerProbe(
            hostname=N("ns1.x"),
            resolvable=True,
            addresses=(IP("1.1.1.1"),),
            outcomes={IP("1.1.1.1"): ServerOutcome.REFUSED},
        )
        assert probe.defective

    def test_nodata_counts_as_authoritative(self):
        probe = ServerProbe(
            hostname=N("ns1.x"),
            resolvable=True,
            addresses=(IP("1.1.1.1"),),
            outcomes={IP("1.1.1.1"): ServerOutcome.NODATA},
        )
        assert probe.answered


class TestProbeResultModel:
    def make(self, **kwargs):
        defaults = dict(
            domain=N("a.gov.x"), iso2="XX", parent_status=ParentStatus.REFERRAL
        )
        defaults.update(kwargs)
        return ProbeResult(**defaults)

    def test_all_ns_union_preserves_order(self):
        result = self.make(
            parent_ns=(N("n1.x"), N("n2.x")),
            child_ns=(N("n2.x"), N("n3.x")),
        )
        assert result.all_ns == (N("n1.x"), N("n2.x"), N("n3.x"))
        assert result.ns_count == 3

    def test_parent_status_predicates(self):
        assert self.make().parent_nonempty
        assert self.make(parent_status=ParentStatus.ANSWER).parent_nonempty
        empty = self.make(parent_status=ParentStatus.EMPTY)
        assert empty.got_parent_response and not empty.parent_nonempty
        silent = self.make(parent_status=ParentStatus.NO_RESPONSE)
        assert not silent.got_parent_response

    def test_responsive_requires_an_answering_server(self):
        result = self.make(parent_ns=(N("n1.x"),))
        result.servers[N("n1.x")] = ServerProbe(
            hostname=N("n1.x"), resolvable=True,
            addresses=(IP("1.1.1.1"),),
            outcomes={IP("1.1.1.1"): ServerOutcome.TIMEOUT},
        )
        assert not result.responsive
        result.servers[N("n1.x")].outcomes[IP("1.1.1.1")] = ServerOutcome.ANSWER
        assert result.responsive


class TestProberAgainstWorld:
    @pytest.fixture(scope="class")
    def prober(self, world):
        return ActiveProber(
            world.network,
            world.root_addresses,
            world.probe_source,
            config=ProbeConfig(rate_limit_qps=None),
        )

    def _first_truth(self, world, predicate):
        for truth in world.truths.values():
            if predicate(truth):
                return truth
        pytest.skip("no matching ground-truth domain in the test world")

    def test_healthy_domain_full_pipeline(self, world, prober):
        truth = self._first_truth(
            world,
            lambda t: t.status == TargetStatus.ALIVE
            and t.plan is not None
            and not t.plan.any_defect
            and t.plan.consistency == "equal"
            and not t.single_ns,
        )
        result = prober.probe_domain(truth.name, truth.iso2)
        assert result.parent_status == ParentStatus.REFERRAL
        assert set(result.parent_ns) == set(truth.parent_ns)
        assert set(result.child_ns) == set(truth.child_ns)
        assert result.responsive
        assert all(not s.defective for s in result.servers.values())

    def test_removed_domain_empty_parent(self, world, prober):
        truth = self._first_truth(
            world, lambda t: t.status == TargetStatus.REMOVED
        )
        result = prober.probe_domain(truth.name, truth.iso2)
        assert result.parent_status == ParentStatus.EMPTY
        assert not result.responsive

    def test_orphaned_domain_no_parent_response(self, world, prober):
        cluster_roots = {c.root for c in world.history.clusters}
        truth = self._first_truth(
            world,
            lambda t: t.status == TargetStatus.ORPHANED
            and t.parent in cluster_roots,
        )
        result = prober.probe_domain(truth.name, truth.iso2)
        assert result.parent_status == ParentStatus.NO_RESPONSE

    def test_stale_domain_referral_but_silent(self, world, prober):
        truth = self._first_truth(
            world,
            lambda t: t.status == TargetStatus.ALIVE
            and t.plan is not None
            and t.plan.stale,
        )
        result = prober.probe_domain(truth.name, truth.iso2)
        assert result.parent_status == ParentStatus.REFERRAL
        assert not result.responsive

    def test_partial_defect_detected(self, world, prober):
        truth = self._first_truth(
            world,
            lambda t: t.status == TargetStatus.ALIVE
            and t.plan is not None
            and not t.plan.stale
            and t.plan.broken_count >= 1,
        )
        result = prober.probe_domain(truth.name, truth.iso2)
        assert result.responsive
        assert any(s.defective for s in result.servers.values())

    def test_single_label_ns_not_resolvable(self, world, prober):
        truth = self._first_truth(
            world,
            lambda t: t.status == TargetStatus.ALIVE
            and t.plan is not None
            and t.plan.single_label
            and not t.plan.stale,
        )
        result = prober.probe_domain(truth.name, truth.iso2)
        bare = [h for h in result.all_ns if len(h) == 1]
        assert bare
        for hostname in bare:
            assert not result.servers[hostname].resolvable

    def test_query_accounting(self, world, prober):
        truth = self._first_truth(
            world, lambda t: t.status == TargetStatus.ALIVE
        )
        before = prober.queries_sent
        result = prober.probe_domain(truth.name, truth.iso2)
        assert result.queries_sent == prober.queries_sent - before
        assert result.queries_sent > 0


class TestRetryRound:
    def test_transient_failure_recovered_by_retry(self, world):
        # Take a healthy domain, knock one of its servers down, probe,
        # bring it back, and confirm the retry round re-queries it.
        truth = None
        for candidate in world.truths.values():
            if (
                candidate.status == TargetStatus.ALIVE
                and candidate.plan is not None
                and not candidate.plan.any_defect
                and candidate.plan.consistency == "equal"
                and not candidate.single_ns
            ):
                truth = candidate
                break
        assert truth is not None
        prober = ActiveProber(
            world.network,
            world.root_addresses,
            world.probe_source,
            config=ProbeConfig(rate_limit_qps=None, retry_interval_days=0.01),
        )
        resolver = prober._resolver
        addresses = []
        for hostname in truth.parent_ns:
            addresses.extend(resolver.resolve_address(hostname))
        for address in addresses:
            world.network.set_up(address, False)
        try:
            dataset = prober.probe_all({truth.name: truth.iso2})
            # Down during round one...
            intermediate = dataset[truth.name]
        finally:
            for address in addresses:
                world.network.set_up(address, True)
        # With servers restored, a fresh campaign's retry round finds them.
        prober2 = ActiveProber(
            world.network,
            world.root_addresses,
            world.probe_source,
            config=ProbeConfig(rate_limit_qps=None, retry_interval_days=0.01),
        )
        dataset2 = prober2.probe_all({truth.name: truth.iso2})
        assert dataset2[truth.name].responsive


class TestDatasetSlices:
    def test_slices_are_consistent(self, dataset):
        total = len(dataset)
        with_response = len(dataset.with_parent_response())
        nonempty = len(dataset.with_nonempty_parent())
        responsive = len(dataset.responsive())
        assert total >= with_response >= nonempty >= responsive > 0

    def test_by_country_partitions(self, dataset):
        grouped = dataset.by_country()
        assert sum(len(v) for v in grouped.values()) == len(dataset)
