"""Per-smell zonelint fixtures: one minimal hand-built world per rule.

Each scenario wires root → ``gov.xx`` → ``example.gov.xx`` with exactly
the parent/child NS records and server behaviors that should trip one
ZL rule, then asserts the analyzer emits it (and computes the matching
verdict).  A final scenario with a fully healthy, diverse deployment
asserts zonelint stays silent.
"""

from __future__ import annotations

import hashlib
from types import SimpleNamespace

from repro.dns import A, AuthoritativeServer, DnsName, NS, SOA, Zone
from repro.lint.baseline import BaselineMatch
from repro.lint.output import render_json
from repro.net import IPv4Address, Network
from repro.worldgen import WorldConfig, WorldGenerator
from repro.zonelint import (
    StaticConsistency,
    StaticDelegation,
    StaticOutcome,
    StaticStatus,
    ZoneGraph,
    ZoneLinter,
)

parse = DnsName.parse
ip = IPv4Address.parse

ROOT_ADDRESS = ip("198.41.0.4")
SUFFIX_ADDRESS = ip("1.0.0.1")
SOURCE = ip("10.0.0.53")
SUFFIX = parse("gov.xx.")
DOMAIN = parse("example.gov.xx.")

NS1 = parse("ns1.example.gov.xx.")
NS2 = parse("ns2.example.gov.xx.")
NS3 = parse("ns3.example.gov.xx.")
OFFSITE = parse("ns.offsite.net.")

A1 = ip("2.0.1.1")
A2 = ip("2.0.1.2")
A3 = ip("2.0.2.1")


def make_base():
    """Root and ``gov.xx`` suffix servers on a fresh network."""
    network = Network()
    suffix_ns = parse("ns.gov.xx.")

    root_zone = Zone(parse("."))
    root_zone.add_records(parse("."), NS(parse("a.root-servers.net.")))
    root_zone.add_records(parse("a.root-servers.net."), A(ROOT_ADDRESS))
    root_zone.add_records(SUFFIX, NS(suffix_ns))
    root_zone.add_records(suffix_ns, A(SUFFIX_ADDRESS))
    root_server = AuthoritativeServer(parse("a.root-servers.net."))
    root_server.load_zone(root_zone)
    network.attach(ROOT_ADDRESS, root_server)

    suffix_zone = Zone(SUFFIX)
    suffix_zone.add_records(SUFFIX, NS(suffix_ns))
    suffix_zone.add_records(
        SUFFIX, SOA(suffix_ns, parse("hostmaster.gov.xx."))
    )
    suffix_zone.add_records(suffix_ns, A(SUFFIX_ADDRESS))
    suffix_server = AuthoritativeServer(suffix_ns)
    suffix_server.load_zone(suffix_zone)
    network.attach(SUFFIX_ADDRESS, suffix_server)

    return SimpleNamespace(
        network=network, root_zone=root_zone, suffix_zone=suffix_zone
    )


def delegate(base, hostnames):
    """Parent-side delegation for DOMAIN: ``{hostname: glue | None}``."""
    base.suffix_zone.add_records(DOMAIN, *[NS(h) for h in hostnames])
    for hostname, address in hostnames.items():
        if address is not None:
            base.suffix_zone.add_records(hostname, A(address))


def child_zone(apex_ns):
    """The child zone: apex NS set plus in-bailiwick A records."""
    zone = Zone(DOMAIN)
    zone.add_records(DOMAIN, SOA(NS1, parse("hostmaster.example.gov.xx.")))
    zone.add_records(DOMAIN, *[NS(h) for h in apex_ns])
    for hostname, address in apex_ns.items():
        if address is not None and hostname.is_subdomain_of(DOMAIN):
            zone.add_records(hostname, A(address))
    return zone


def serve(base, hostname, address, zone):
    server = AuthoritativeServer(hostname)
    server.load_zone(zone)
    base.network.attach(address, server)
    return server


def linter_for(base, registrar=None, geoip=None):
    return ZoneLinter(
        base.network,
        (ROOT_ADDRESS,),
        SOURCE,
        government_suffixes={"XX": SUFFIX},
        registrar=registrar,
        geoip=geoip,
    )


def analyze(linter):
    truth = linter.analyze_domain(DOMAIN, "XX")
    rules = {f.rule_id for f in linter.findings({DOMAIN: truth})}
    return truth, rules


class StubRegistrar:
    """Every offsite name is one registrable second-level domain."""

    def check(self, hostname):
        return SimpleNamespace(
            domain=parse("offsite.net."), available=True
        )


class StubGeoIP:
    def __init__(self, asns):
        self._asns = asns

    def asn_of(self, address):
        return self._asns.get(address)


# ----------------------------------------------------------------------
# ZL001–ZL004: stale delegation and the per-mode defect taxonomy
# ----------------------------------------------------------------------
def test_zl001_stale_delegation():
    base = make_base()
    delegate(base, {NS1: A1})  # glue points at an empty address
    truth, rules = analyze(linter_for(base))
    assert truth.parent_status == StaticStatus.REFERRAL
    assert not truth.responsive
    assert truth.delegation_verdict == StaticDelegation.FULL
    assert "ZL001" in rules


def test_zl002_unresolvable_ns():
    base = make_base()
    delegate(base, {NS1: A1, OFFSITE: None})
    serve(base, NS1, A1, child_zone({NS1: A1, OFFSITE: None}))
    truth, rules = analyze(linter_for(base))
    assert not truth.servers[OFFSITE].resolvable
    assert truth.delegation_verdict == StaticDelegation.PARTIAL
    assert truth.consistency_verdict == StaticConsistency.EQUAL
    assert "ZL002" in rules
    assert "ZL004" not in rules


def test_zl003_unresponsive_ns():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A2})  # nothing attached at A2
    serve(base, NS1, A1, child_zone({NS1: A1, NS2: A2}))
    truth, rules = analyze(linter_for(base))
    assert truth.servers[NS2].outcomes == {A2: StaticOutcome.TIMEOUT}
    assert truth.delegation_verdict == StaticDelegation.PARTIAL
    assert "ZL003" in rules


def test_zl004_lame_ns():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A2})
    zone = child_zone({NS1: A1, NS2: A2})
    serve(base, NS1, A1, zone)
    # NS2 exists but serves an unrelated zone: REFUSED for DOMAIN.
    other = Zone(parse("other.xx."))
    other.add_records(parse("other.xx."), NS(NS2))
    serve(base, NS2, A2, other)
    truth, rules = analyze(linter_for(base))
    assert truth.servers[NS2].outcomes == {A2: StaticOutcome.REFUSED}
    assert truth.delegation_verdict == StaticDelegation.PARTIAL
    assert "ZL004" in rules


# ----------------------------------------------------------------------
# ZL010–ZL015: Figure-13 consistency classes and the dropped-origin typo
# ----------------------------------------------------------------------
def test_zl010_parent_subset_of_child():
    base = make_base()
    delegate(base, {NS1: A1})
    zone = child_zone({NS1: A1, NS2: A2})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A2, zone)
    truth, rules = analyze(linter_for(base))
    assert truth.consistency_verdict == StaticConsistency.P_SUBSET_C
    assert truth.child_only == (NS2,)
    assert "ZL010" in rules


def test_zl011_child_subset_of_parent():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A2})
    zone = child_zone({NS1: A1})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A2, zone)
    truth, rules = analyze(linter_for(base))
    assert truth.consistency_verdict == StaticConsistency.C_SUBSET_P
    assert truth.parent_only == (NS2,)
    assert "ZL011" in rules


def test_zl012_overlap_neither():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A2})
    zone = child_zone({NS1: A1, NS3: A3})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A2, zone)
    serve(base, NS3, A3, zone)
    truth, rules = analyze(linter_for(base))
    assert truth.consistency_verdict == StaticConsistency.OVERLAP_NEITHER
    assert "ZL012" in rules


def test_zl013_disjoint_with_ip_overlap():
    base = make_base()
    delegate(base, {NS1: A1})
    serve(base, NS1, A1, child_zone({NS2: A1}))  # same address, new name
    truth, rules = analyze(linter_for(base))
    assert truth.consistency_verdict == StaticConsistency.DISJOINT_IP_OVERLAP
    assert "ZL013" in rules


def test_zl014_disjoint_no_ip_overlap():
    base = make_base()
    delegate(base, {NS1: A1})
    zone = child_zone({NS2: A2})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A2, zone)
    truth, rules = analyze(linter_for(base))
    assert truth.consistency_verdict == StaticConsistency.DISJOINT
    assert "ZL014" in rules


def test_zl015_single_label_ns():
    base = make_base()
    delegate(base, {NS1: A1})
    serve(base, NS1, A1, child_zone({NS1: A1, parse("ns2."): None}))
    truth, rules = analyze(linter_for(base))
    assert truth.has_single_label
    assert "ZL015" in rules
    assert "ZL002" not in rules  # the typo rule owns the single label


# ----------------------------------------------------------------------
# ZL020: hijack exposure, both scan paths
# ----------------------------------------------------------------------
def test_zl020_defective_path():
    base = make_base()
    delegate(base, {NS1: A1, OFFSITE: None})
    serve(base, NS1, A1, child_zone({NS1: A1, OFFSITE: None}))
    linter = linter_for(base, registrar=StubRegistrar())
    truth, rules = analyze(linter)
    assert "ZL020" in rules
    hijacks = linter.hijack_scan({DOMAIN: truth})
    assert hijacks == {parse("offsite.net."): [DOMAIN]}


def test_zl020_dangling_path_without_defects():
    base = make_base()
    delegate(base, {NS1: A1})
    base.root_zone.add_records(OFFSITE, A(A3))  # resolves out-of-band
    zone = child_zone({NS1: A1, OFFSITE: None})
    serve(base, NS1, A1, zone)
    serve(base, OFFSITE, A3, zone)  # still serving, yet registrable
    linter = linter_for(base, registrar=StubRegistrar())
    truth, rules = analyze(linter)
    assert truth.delegation_verdict == StaticDelegation.HEALTHY
    assert truth.consistency_verdict == StaticConsistency.P_SUBSET_C
    assert "ZL020" in rules
    assert not rules & {"ZL001", "ZL002", "ZL003", "ZL004"}


# ----------------------------------------------------------------------
# ZL030–ZL032: replication smells
# ----------------------------------------------------------------------
def test_zl030_single_nameserver():
    base = make_base()
    delegate(base, {NS1: A1})
    serve(base, NS1, A1, child_zone({NS1: A1}))
    truth, rules = analyze(linter_for(base))
    assert truth.ns_count == 1
    assert "ZL030" in rules
    assert "ZL031" not in rules  # subsumed by the single-NS finding


def test_zl031_single_slash24():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A2})  # 2.0.1.1 and 2.0.1.2
    zone = child_zone({NS1: A1, NS2: A2})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A2, zone)
    truth, rules = analyze(linter_for(base))
    assert "ZL031" in rules


def test_zl032_single_asn():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A3})  # 2.0.1.1 and 2.0.2.1
    zone = child_zone({NS1: A1, NS2: A3})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A3, zone)
    geoip = StubGeoIP({A1: 64500, A3: 64500})
    _, rules = analyze(linter_for(base, geoip=geoip))
    assert "ZL032" in rules
    # Without ASN data the provider-redundancy rule stays quiet.
    _, rules = analyze(linter_for(base))
    assert "ZL032" not in rules


def test_healthy_diverse_deployment_is_clean():
    base = make_base()
    delegate(base, {NS1: A1, NS2: A3})
    zone = child_zone({NS1: A1, NS2: A3})
    serve(base, NS1, A1, zone)
    serve(base, NS2, A3, zone)
    geoip = StubGeoIP({A1: 64500, A3: 64510})
    truth, rules = analyze(linter_for(base, geoip=geoip))
    assert truth.delegation_verdict == StaticDelegation.HEALTHY
    assert truth.consistency_verdict == StaticConsistency.EQUAL
    assert rules == set()


# ----------------------------------------------------------------------
# The graph mirror on the hand-built mini tree
# ----------------------------------------------------------------------
def test_graph_walk_matches_mini_tree(mini_dns):
    graph = ZoneGraph(
        mini_dns["network"], (mini_dns["root_address"],), SOURCE
    )
    walk = graph.walk(parse("health.gov.au."))
    assert walk.status == StaticStatus.REFERRAL
    assert walk.hostnames == (parse("ns1.health.gov.au."),)
    assert walk.glue == {
        parse("ns1.health.gov.au."): (mini_dns["health_address"],)
    }

    outcome, ns_set = graph.sweep_outcome(
        mini_dns["health_address"], parse("health.gov.au.")
    )
    assert outcome == StaticOutcome.ANSWER
    assert ns_set == (parse("ns1.health.gov.au."),)

    # The parent's server answers non-authoritatively: lame.
    outcome, ns_set = graph.sweep_outcome(
        mini_dns["gov_address"], parse("health.gov.au.")
    )
    assert outcome == StaticOutcome.LAME
    assert ns_set is None

    assert graph.resolve_a(parse("www.health.gov.au.")) == (
        ip("9.9.9.10"),
    )
    assert graph.resolve_a(parse("nope.health.gov.au.")) == ()


# ----------------------------------------------------------------------
# Byte pin over a generated world
# ----------------------------------------------------------------------
def test_generated_world_findings_json_is_pinned():
    world = WorldGenerator(WorldConfig(seed=5, scale=0.004)).generate()
    linter = ZoneLinter.for_world(world)
    targets = {name: truth.iso2 for name, truth in world.truths.items()}
    findings = linter.findings(linter.analyze_all(targets))
    assert findings
    report = render_json(BaselineMatch(new=findings))
    assert hashlib.sha256(report.encode()).hexdigest() == (
        "da4e1af3ee51740948945097f34d37f52fc4d70e8c6b3eb4794a06ac7031fb3d"
    )
