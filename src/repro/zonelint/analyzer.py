"""The zonelint analyzer: ground truth and smell findings per domain.

For every probe target this walks the delegation graph statically
(:mod:`repro.zonelint.graph`), reproduces the active pipeline's
per-server sweep and its §IV-C/§IV-D verdicts without a single
simulated packet, and emits one :class:`~repro.lint.findings.Finding`
per deployment smell.  The resulting :class:`GroundTruth` table keyed
by domain is what the differential oracle compares the campaign
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..dns.name import DnsName
from ..lint.findings import Finding
from ..inet.address import IPv4Address
from .graph import ZoneGraph
from .smells import (
    CONSISTENCY_RULE_IDS,
    RULES_BY_ID,
    StaticConsistency,
    StaticDelegation,
    StaticOutcome,
    StaticStatus,
)

__all__ = ["StaticServer", "GroundTruth", "ZoneLinter"]


@dataclass
class StaticServer:
    """Static counterpart of ``core.dataset.ServerProbe``."""

    hostname: DnsName
    resolvable: bool
    addresses: Tuple[IPv4Address, ...] = ()
    outcomes: Dict[IPv4Address, str] = field(default_factory=dict)
    ns_by_address: Dict[IPv4Address, Tuple[DnsName, ...]] = field(
        default_factory=dict
    )

    @property
    def answered(self) -> bool:
        return any(
            outcome in StaticOutcome.AUTHORITATIVE
            for outcome in self.outcomes.values()
        )

    @property
    def defective(self) -> bool:
        return not self.resolvable or not self.answered


@dataclass
class GroundTruth:
    """What a lossless measurement must find for one domain."""

    domain: DnsName
    iso2: str
    parent_status: str
    parent_ns: Tuple[DnsName, ...] = ()
    child_ns: Tuple[DnsName, ...] = ()
    servers: Dict[DnsName, StaticServer] = field(default_factory=dict)
    walk_addresses: Tuple[IPv4Address, ...] = ()
    delegation_verdict: Optional[str] = None
    defective_ns: Tuple[DnsName, ...] = ()
    consistency_verdict: Optional[str] = None
    parent_only: Tuple[DnsName, ...] = ()
    child_only: Tuple[DnsName, ...] = ()
    has_single_label: bool = False

    @property
    def parent_nonempty(self) -> bool:
        return self.parent_status in (
            StaticStatus.REFERRAL,
            StaticStatus.ANSWER,
        )

    @property
    def responsive(self) -> bool:
        return any(server.answered for server in self.servers.values())

    @property
    def all_ns(self) -> Tuple[DnsName, ...]:
        seen: Dict[DnsName, None] = {}
        for hostname in self.parent_ns + self.child_ns:
            seen.setdefault(hostname, None)
        return tuple(seen)

    @property
    def ns_count(self) -> int:
        return len(self.all_ns)

    def all_addresses(self) -> Tuple[IPv4Address, ...]:
        found: Dict[IPv4Address, None] = {}
        for server in self.servers.values():
            for address in server.addresses:
                found.setdefault(address, None)
        return tuple(found)


class ZoneLinter:
    """Walks the generated world's zones and classifies every target."""

    def __init__(
        self,
        network,
        root_addresses,
        source,
        government_suffixes: Optional[Mapping[str, DnsName]] = None,
        registrar=None,
        geoip=None,
    ) -> None:
        self.graph = ZoneGraph(network, tuple(root_addresses), source)
        self._gov_suffixes: Dict[str, DnsName] = dict(
            government_suffixes or {}
        )
        self._registrar = registrar
        self._geoip = geoip

    @classmethod
    def for_world(cls, world) -> "ZoneLinter":
        """Wire a linter from a generated :class:`worldgen.World`."""
        suffixes = {
            iso2: zone.origin
            for iso2, zone in sorted(world.suffix_zones.items())
        }
        return cls(
            world.network,
            world.root_addresses,
            world.probe_source,
            government_suffixes=suffixes,
            registrar=world.registrar,
            geoip=world.geoip,
        )

    # ------------------------------------------------------------------
    # Ground truth (mirrors ActiveProber._domain_task)
    # ------------------------------------------------------------------
    def analyze_domain(self, domain: DnsName, iso2: str = "") -> GroundTruth:
        walk = self.graph.walk(domain)
        truth = GroundTruth(
            domain=domain,
            iso2=iso2,
            parent_status=walk.status,
            parent_ns=walk.hostnames,
            walk_addresses=walk.queried,
        )
        if truth.parent_nonempty:
            self._sweep(truth, walk.hostnames, walk.glue)
            self._collect_child(truth)
            new_hostnames = [
                h for h in truth.child_ns if h not in truth.servers
            ]
            if new_hostnames:
                self._sweep(truth, new_hostnames, walk.glue)
                self._collect_child(truth)
        self._finalize(truth)
        return truth

    def analyze_all(
        self, targets: Mapping[DnsName, str]
    ) -> Dict[DnsName, GroundTruth]:
        """Ground truth for every target, ``{domain: iso2}`` in."""
        return {
            domain: self.analyze_domain(domain, targets[domain])
            for domain in sorted(targets)
        }

    def _sweep(
        self,
        truth: GroundTruth,
        hostnames,
        glue: Dict[DnsName, Tuple[IPv4Address, ...]],
    ) -> None:
        for hostname in hostnames:
            server = truth.servers.get(hostname)
            if server is None:
                resolvable, addresses = self._resolve_ns(hostname, glue)
                server = StaticServer(
                    hostname=hostname,
                    resolvable=resolvable,
                    addresses=addresses,
                )
                truth.servers[hostname] = server
            for address in server.addresses:
                if address in server.outcomes:
                    continue  # static outcomes are deterministic
                outcome, ns_set = self.graph.sweep_outcome(
                    address, truth.domain
                )
                server.outcomes[address] = outcome
                if ns_set is not None:
                    server.ns_by_address[address] = ns_set

    def _resolve_ns(
        self,
        hostname: DnsName,
        glue: Dict[DnsName, Tuple[IPv4Address, ...]],
    ) -> Tuple[bool, Tuple[IPv4Address, ...]]:
        if hostname in glue:
            return True, glue[hostname]
        if len(hostname) == 1:
            return False, ()
        addresses = self.graph.resolve_a(hostname)
        return (len(addresses) > 0), addresses

    @staticmethod
    def _collect_child(truth: GroundTruth) -> None:
        seen: Dict[DnsName, None] = {}
        for server in truth.servers.values():
            for ns_set in server.ns_by_address.values():
                for hostname in ns_set:
                    seen.setdefault(hostname, None)
        truth.child_ns = tuple(seen)

    # ------------------------------------------------------------------
    # Verdicts (mirror core.delegation / core.consistency)
    # ------------------------------------------------------------------
    def _finalize(self, truth: GroundTruth) -> None:
        if truth.parent_nonempty:
            truth.defective_ns = tuple(
                hostname
                for hostname, server in truth.servers.items()
                if server.defective
            )
            if not truth.responsive:
                truth.delegation_verdict = StaticDelegation.FULL
            elif truth.defective_ns:
                truth.delegation_verdict = StaticDelegation.PARTIAL
            else:
                truth.delegation_verdict = StaticDelegation.HEALTHY
        if (
            truth.responsive
            and truth.parent_status == StaticStatus.REFERRAL
            and truth.child_ns
        ):
            parent = set(truth.parent_ns)
            child = set(truth.child_ns)
            truth.has_single_label = any(
                len(h) == 1 for h in parent | child
            )
            if parent == child:
                verdict = StaticConsistency.EQUAL
            elif parent & child:
                if parent < child:
                    verdict = StaticConsistency.P_SUBSET_C
                elif child < parent:
                    verdict = StaticConsistency.C_SUBSET_P
                else:
                    verdict = StaticConsistency.OVERLAP_NEITHER
            else:
                parent_ips = self._address_set(truth, parent)
                child_ips = self._address_set(truth, child)
                if parent_ips & child_ips:
                    verdict = StaticConsistency.DISJOINT_IP_OVERLAP
                else:
                    verdict = StaticConsistency.DISJOINT
            truth.consistency_verdict = verdict
            truth.parent_only = tuple(sorted(parent - child))
            truth.child_only = tuple(sorted(child - parent))

    @staticmethod
    def _address_set(truth: GroundTruth, hostnames) -> set:
        addresses = set()
        for hostname in hostnames:
            server = truth.servers.get(hostname)
            if server is not None:
                addresses.update(server.addresses)
        return addresses

    # ------------------------------------------------------------------
    # Hijack exposure (mirrors both active scan paths)
    # ------------------------------------------------------------------
    def _is_government_name(self, hostname: DnsName, iso2: str) -> bool:
        suffix = self._gov_suffixes.get(iso2)
        return suffix is not None and hostname.is_subdomain_of(suffix)

    def hijack_scan(
        self, table: Mapping[DnsName, GroundTruth]
    ) -> Dict[DnsName, List[DnsName]]:
        """Registrable nameserver domains → victim domains.

        Merges the defective-entry path (§IV-C hijack exposure) and the
        non-defective inconsistent path (§IV-D dangling scan), with the
        exact skip rules of each.
        """
        if self._registrar is None:
            return {}
        found: Dict[DnsName, List[DnsName]] = {}
        quote_cache: Dict[DnsName, object] = {}

        def check(hostname: DnsName, victim: DnsName) -> None:
            quote = quote_cache.get(hostname)
            if quote is None:
                quote = self._registrar.check(hostname)
                quote_cache[hostname] = quote
            if not quote.available:
                return
            victims = found.setdefault(quote.domain, [])
            if victim not in victims:
                victims.append(victim)

        for domain in sorted(table):
            truth = table[domain]
            if truth.delegation_verdict is None:
                continue
            if truth.delegation_verdict != StaticDelegation.HEALTHY:
                for hostname in truth.defective_ns:
                    if len(hostname) <= 1:
                        continue
                    if self._is_government_name(hostname, truth.iso2):
                        continue
                    server = truth.servers.get(hostname)
                    if server is not None and server.resolvable:
                        continue
                    check(hostname, domain)
            elif truth.consistency_verdict not in (
                None,
                StaticConsistency.EQUAL,
            ):
                for hostname in truth.parent_only + truth.child_only:
                    if len(hostname) <= 1:
                        continue
                    if self._is_government_name(hostname, truth.iso2):
                        continue
                    check(hostname, domain)
        return found

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def findings(
        self, table: Mapping[DnsName, GroundTruth]
    ) -> List[Finding]:
        """One finding per smell, in sorted domain order.

        ``path`` is the virtual location ``world/<domain>`` so the
        shared reporters (text/JSON/SARIF) render unchanged.
        """
        out: List[Finding] = []
        hijacks = self.hijack_scan(table)
        hijacked_victims: Dict[DnsName, List[DnsName]] = {}
        for dns_domain in sorted(hijacks):
            for victim in hijacks[dns_domain]:
                hijacked_victims.setdefault(victim, []).append(dns_domain)
        for domain in sorted(table):
            truth = table[domain]
            out.extend(self._domain_findings(truth, hijacked_victims))
        return out

    def _domain_findings(
        self,
        truth: GroundTruth,
        hijacked_victims: Dict[DnsName, List[DnsName]],
    ) -> List[Finding]:
        out: List[Finding] = []
        domain = truth.domain

        def emit(rule_id: str, message: str, snippet: str) -> None:
            rule = RULES_BY_ID[rule_id]
            out.append(
                Finding(
                    path=f"world/{domain}",
                    line=1,
                    column=1,
                    rule_id=rule_id,
                    severity=rule.severity,
                    message=message,
                    snippet=snippet,
                )
            )

        if truth.parent_nonempty and not truth.responsive:
            emit(
                "ZL001",
                f"stale delegation: {len(truth.parent_ns)} parent NS "
                "listed, none serves the zone",
                f"stale {domain}",
            )
        for hostname, server in truth.servers.items():
            if len(hostname) == 1:
                continue  # ZL015 owns the dropped-origin typo
            if not server.resolvable:
                emit(
                    "ZL002",
                    f"nameserver {hostname} does not resolve",
                    f"unresolvable NS {hostname}",
                )
            elif not server.answered:
                observed = set(server.outcomes.values())
                if observed and observed <= {StaticOutcome.TIMEOUT}:
                    emit(
                        "ZL003",
                        f"nameserver {hostname} resolves but none of its "
                        f"{len(server.addresses)} address(es) answers",
                        f"unresponsive NS {hostname}",
                    )
                else:
                    shown = ", ".join(sorted(observed))
                    emit(
                        "ZL004",
                        f"lame nameserver {hostname}: answers are "
                        f"[{shown}], never authoritative for the zone",
                        f"lame NS {hostname}",
                    )
        if truth.consistency_verdict in CONSISTENCY_RULE_IDS:
            emit(
                CONSISTENCY_RULE_IDS[truth.consistency_verdict],
                f"parent/child NS disagreement "
                f"({truth.consistency_verdict}): parent-only "
                f"{[str(h) for h in truth.parent_only]}, child-only "
                f"{[str(h) for h in truth.child_only]}",
                f"consistency {truth.consistency_verdict}",
            )
        if truth.parent_nonempty and any(
            len(h) == 1 for h in truth.all_ns
        ):
            emit(
                "ZL015",
                "single-label nameserver name in the NS set "
                "(dropped-origin typo)",
                f"single-label NS {domain}",
            )
        for dns_domain in hijacked_victims.get(domain, ()):
            emit(
                "ZL020",
                f"nameserver domain {dns_domain} is registrable by "
                "third parties",
                f"hijackable {dns_domain}",
            )
        self._replication_findings(truth, emit)
        return out

    def _replication_findings(self, truth: GroundTruth, emit) -> None:
        if not truth.parent_nonempty:
            return
        if truth.ns_count == 1:
            emit(
                "ZL030",
                "the delegation lists a single nameserver "
                "(RFC 1034 requires at least 2)",
                f"single NS {truth.domain}",
            )
            return
        addresses = truth.all_addresses()
        if not addresses:
            return
        prefixes = {address.slash24() for address in addresses}
        if len(prefixes) == 1:
            emit(
                "ZL031",
                f"all {len(addresses)} nameserver address(es) share "
                "one /24 — no network redundancy",
                f"single /24 {truth.domain}",
            )
        elif self._geoip is not None:
            systems = set()
            for address in addresses:
                asn = self._geoip.asn_of(address)
                if asn is not None:
                    systems.add(asn)
            if len(systems) == 1:
                emit(
                    "ZL032",
                    f"nameserver addresses span {len(prefixes)} /24s "
                    "but a single AS — no provider redundancy",
                    f"single ASN {truth.domain}",
                )
