"""Exact-value unit tests for the §IV classifiers, on hand-built
probe results (no world, no randomness)."""

import pytest

from repro.core.audit import audit_campaign
from repro.core.consistency import ConsistencyAnalysis, ConsistencyClass
from repro.core.dataset import (
    MeasurementDataset,
    ParentStatus,
    ProbeResult,
    ServerOutcome,
    ServerProbe,
)
from repro.core.delegation import DelegationAnalysis, DelegationClass
from repro.core.diversity import DiversityAnalysis
from repro.dns import DnsName
from repro.geo.asn import AsnRegistry
from repro.geo.geoip import GeoIPDatabase
from repro.inet.address import IPv4Address, IPv4Prefix

N = DnsName.parse
IP = IPv4Address.parse


def server(hostname, addresses, outcome=ServerOutcome.ANSWER, ns=None,
           resolvable=True):
    probe = ServerProbe(
        hostname=N(hostname),
        resolvable=resolvable,
        addresses=tuple(IP(a) for a in addresses),
    )
    for address in addresses:
        probe.outcomes[IP(address)] = outcome
        if outcome == ServerOutcome.ANSWER and ns is not None:
            probe.ns_by_address[IP(address)] = tuple(N(h) for h in ns)
    return probe


def result(domain, parent_ns, child_ns, servers, iso2="XX",
           parent_status=ParentStatus.REFERRAL):
    res = ProbeResult(
        domain=N(domain),
        iso2=iso2,
        parent_status=parent_status,
        parent_ns=tuple(N(h) for h in parent_ns),
        child_ns=tuple(N(h) for h in child_ns),
    )
    for probe in servers:
        res.servers[probe.hostname] = probe
    return res


class TestDelegationClassifier:
    def make_analysis(self, results):
        return DelegationAnalysis(
            MeasurementDataset({r.domain: r for r in results})
        )

    def test_healthy(self):
        r = result(
            "a.gov.xx", ["ns1.a.gov.xx"], ["ns1.a.gov.xx"],
            [server("ns1.a.gov.xx", ["1.0.0.1"], ns=["ns1.a.gov.xx"])],
        )
        report = self.make_analysis([r]).classify(r)
        assert report.verdict == DelegationClass.HEALTHY
        assert report.defective_ns == ()

    def test_partial_from_timeout(self):
        r = result(
            "a.gov.xx",
            ["ns1.a.gov.xx", "ns2.a.gov.xx"],
            ["ns1.a.gov.xx", "ns2.a.gov.xx"],
            [
                server("ns1.a.gov.xx", ["1.0.0.1"], ns=["ns1.a.gov.xx", "ns2.a.gov.xx"]),
                server("ns2.a.gov.xx", ["1.0.0.2"], outcome=ServerOutcome.TIMEOUT),
            ],
        )
        report = self.make_analysis([r]).classify(r)
        assert report.verdict == DelegationClass.PARTIAL
        assert report.defective_ns == (N("ns2.a.gov.xx"),)
        assert report.defective_in_parent == (N("ns2.a.gov.xx"),)

    def test_full_when_nothing_answers(self):
        r = result(
            "a.gov.xx", ["ns1.a.gov.xx"], [],
            [server("ns1.a.gov.xx", ["1.0.0.1"], outcome=ServerOutcome.REFUSED)],
        )
        report = self.make_analysis([r]).classify(r)
        assert report.verdict == DelegationClass.FULL

    def test_unresolvable_counts_as_defective(self):
        r = result(
            "a.gov.xx",
            ["ns1.a.gov.xx", "ns9.dead.zz"],
            ["ns1.a.gov.xx", "ns9.dead.zz"],
            [
                server("ns1.a.gov.xx", ["1.0.0.1"], ns=["ns1.a.gov.xx"]),
                server("ns9.dead.zz", [], resolvable=False),
            ],
        )
        report = self.make_analysis([r]).classify(r)
        assert report.verdict == DelegationClass.PARTIAL
        assert N("ns9.dead.zz") in report.defective_ns

    def test_prevalence_exact(self):
        rows = [
            result("h.gov.xx", ["n1.h.gov.xx"], ["n1.h.gov.xx"],
                   [server("n1.h.gov.xx", ["1.0.0.1"], ns=["n1.h.gov.xx"])]),
            result("p.gov.xx", ["n1.p.gov.xx", "n2.p.gov.xx"], ["n1.p.gov.xx"],
                   [server("n1.p.gov.xx", ["1.0.0.3"], ns=["n1.p.gov.xx"]),
                    server("n2.p.gov.xx", ["1.0.0.4"], outcome=ServerOutcome.TIMEOUT)]),
            result("f.gov.xx", ["n1.f.gov.xx"], [],
                   [server("n1.f.gov.xx", ["1.0.0.5"], outcome=ServerOutcome.SERVFAIL)]),
            result("e.gov.xx", [], [], [], parent_status=ParentStatus.EMPTY),
        ]
        prevalence = self.make_analysis(rows).prevalence()
        # The EMPTY row is excluded from the denominator (3 domains).
        assert prevalence["partial"] == pytest.approx(1 / 3)
        assert prevalence["full"] == pytest.approx(1 / 3)
        assert prevalence["any"] == pytest.approx(2 / 3)


class TestConsistencyClassifier:
    def classify(self, parent_ns, child_ns, servers):
        r = result("a.gov.xx", parent_ns, child_ns, servers)
        analysis = ConsistencyAnalysis(
            MeasurementDataset({r.domain: r})
        )
        return analysis.classify(r)

    def answering(self, hostname, address):
        return server(hostname, [address], ns=["whatever.gov.xx"])

    def test_equal(self):
        report = self.classify(
            ["n1.x", "n2.x"], ["n2.x", "n1.x"],
            [self.answering("n1.x", "1.0.0.1"), self.answering("n2.x", "1.0.0.2")],
        )
        assert report.verdict == ConsistencyClass.EQUAL

    def test_p_subset_c(self):
        report = self.classify(
            ["n1.x"], ["n1.x", "n2.x"],
            [self.answering("n1.x", "1.0.0.1"), self.answering("n2.x", "1.0.0.2")],
        )
        assert report.verdict == ConsistencyClass.P_SUBSET_C
        assert report.child_only == (N("n2.x"),)

    def test_c_subset_p(self):
        report = self.classify(
            ["n1.x", "n2.x"], ["n1.x"],
            [self.answering("n1.x", "1.0.0.1"), self.answering("n2.x", "1.0.0.2")],
        )
        assert report.verdict == ConsistencyClass.C_SUBSET_P
        assert report.parent_only == (N("n2.x"),)

    def test_overlap_neither(self):
        report = self.classify(
            ["n1.x", "n2.x"], ["n1.x", "n3.x"],
            [self.answering("n1.x", "1.0.0.1"),
             self.answering("n2.x", "1.0.0.2"),
             self.answering("n3.x", "1.0.0.3")],
        )
        assert report.verdict == ConsistencyClass.OVERLAP_NEITHER

    def test_disjoint_no_ip_overlap(self):
        report = self.classify(
            ["old1.x"], ["new1.x"],
            [self.answering("old1.x", "1.0.0.1"),
             self.answering("new1.x", "2.0.0.1")],
        )
        assert report.verdict == ConsistencyClass.DISJOINT

    def test_disjoint_with_ip_overlap(self):
        report = self.classify(
            ["old1.x"], ["new1.x"],
            [self.answering("old1.x", "1.0.0.1"),
             self.answering("new1.x", "1.0.0.1")],
        )
        assert report.verdict == ConsistencyClass.DISJOINT_IP_OVERLAP

    def test_single_label_flagged(self):
        bare = ServerProbe(hostname=DnsName(("ns",)), resolvable=False)
        r = result(
            "a.gov.xx", ["n1.x"], ["n1.x", "ns"],
            [self.answering("n1.x", "1.0.0.1")],
        )
        r.servers[DnsName(("ns",))] = bare
        analysis = ConsistencyAnalysis(MeasurementDataset({r.domain: r}))
        report = analysis.classify(r)
        assert report.has_single_label_ns

    def test_unresponsive_domain_not_classified(self):
        r = result("a.gov.xx", ["n1.x"], [], [
            server("n1.x", ["1.0.0.1"], outcome=ServerOutcome.TIMEOUT)
        ])
        analysis = ConsistencyAnalysis(MeasurementDataset({r.domain: r}))
        assert analysis.reports() == {}


class TestDiversityCounting:
    def make_geo(self):
        registry = AsnRegistry()
        geo = GeoIPDatabase(registry)
        a = registry.allocate("A", "XX")
        b = registry.allocate("B", "XX")
        geo.add_block(IPv4Prefix.parse("1.0.0.0/16"), a)
        geo.add_block(IPv4Prefix.parse("2.0.0.0/16"), b)
        return geo

    def measure(self, addresses):
        servers = [
            server(f"n{i}.x", [a], ns=["n1.x"])
            for i, a in enumerate(addresses, start=1)
        ]
        r = result(
            "a.gov.xx",
            [f"n{i}.x" for i in range(1, len(addresses) + 1)],
            [f"n{i}.x" for i in range(1, len(addresses) + 1)],
            servers,
        )
        analysis = DiversityAnalysis(
            MeasurementDataset({r.domain: r}), self.make_geo()
        )
        return analysis.measure_domain(r)

    def test_single_ip(self):
        d = self.measure(["1.0.0.1", "1.0.0.1"])
        assert (d.ip_count, d.prefix_count, d.asn_count) == (1, 1, 1)

    def test_same_slash24(self):
        d = self.measure(["1.0.0.1", "1.0.0.2"])
        assert (d.ip_count, d.prefix_count, d.asn_count) == (2, 1, 1)

    def test_multi_prefix_single_asn(self):
        d = self.measure(["1.0.0.1", "1.0.1.1"])
        assert (d.ip_count, d.prefix_count, d.asn_count) == (2, 2, 1)

    def test_multi_asn(self):
        d = self.measure(["1.0.0.1", "2.0.0.1"])
        assert (d.ip_count, d.prefix_count, d.asn_count) == (2, 2, 2)


class TestCampaignAudit:
    def test_clean_campaign(self, world, study):
        dataset = study.dataset()
        audit = audit_campaign(
            world.network,
            dataset,
            registry_addresses=world.root_addresses,
        )
        assert audit.total_queries > 0
        assert audit.distinct_destinations > 100
        assert not audit.requeried_dead_parents
        assert audit.clean

    def test_rate_violation_detected(self, world, study):
        audit = audit_campaign(
            world.network,
            study.dataset(),
            campaign_seconds=1.0,  # impossible: everything in one second
            max_qps=10.0,
        )
        assert not audit.clean
        assert any("rate" in v for v in audit.violations)

    def test_busiest_destination_identified(self, world, study):
        audit = audit_campaign(world.network, study.dataset())
        assert audit.busiest_destination is not None
        assert audit.busiest_count >= audit.mean_queries_per_destination
