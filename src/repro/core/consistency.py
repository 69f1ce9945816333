"""Parent/child delegation consistency (paper §IV-D, Figures 13/14).

Following the Sommese et al. framework: compare the NS set the parent
zone serves for a domain (*P*) with the set the domain's own
authoritative servers return (*C*):

- ``P = C`` — consistent (the paper's 76.8%);
- intersecting: ``P ⊂ C``, ``C ⊂ P``, or neither contains the other;
- disjoint: no common hostname, further split by whether the *address*
  sets still overlap (renamed nameservers vs genuinely different
  infrastructure).

Also scans the inconsistent-but-not-defective cases for dangling
parent-side records whose nameserver domains are registrable — the
paper's 13 d_ns / 26 domains / 7 countries finding.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Mapping, Optional, Set, Tuple

from ..dns.name import DnsName
from ..registry.registrar import Quote, Registrar
from .dataset import (
    CONSISTENCY_CODES,
    UNCLASSIFIED,
    MeasurementDataset,
    ProbeResult,
)
from .delegation import DelegationAnalysis

__all__ = ["ConsistencyClass", "ConsistencyReport", "ConsistencyAnalysis"]


class ConsistencyClass:
    """Figure-13 taxonomy labels."""

    EQUAL = "P=C"
    P_SUBSET_C = "P⊂C"
    C_SUBSET_P = "C⊂P"
    OVERLAP_NEITHER = "P∩C≠∅, neither"
    DISJOINT_IP_OVERLAP = "P∩C=∅, IP overlap"
    DISJOINT = "P∩C=∅, no IP overlap"

    ALL = (
        EQUAL,
        P_SUBSET_C,
        C_SUBSET_P,
        OVERLAP_NEITHER,
        DISJOINT_IP_OVERLAP,
        DISJOINT,
    )


# The dataset layer's fused column pass emits the same taxonomy, byte
# codes indexed in ALL order; keep the two declarations locked together.
assert CONSISTENCY_CODES == ConsistencyClass.ALL


@dataclass(frozen=True)
class ConsistencyReport:
    """One domain's parent/child comparison."""

    domain: DnsName
    iso2: str
    verdict: str
    parent_only: Tuple[DnsName, ...]
    child_only: Tuple[DnsName, ...]
    has_single_label_ns: bool

    @property
    def consistent(self) -> bool:
        return self.verdict == ConsistencyClass.EQUAL


class ConsistencyAnalysis:
    """Figure 13/14 classification plus the dangling-record scan."""

    def __init__(
        self,
        dataset: MeasurementDataset,
        registrar: Optional[Registrar] = None,
        government_suffixes: Optional[Mapping[str, DnsName]] = None,
    ) -> None:
        self._dataset = dataset
        self._registrar = registrar
        self._gov_suffixes = dict(government_suffixes or {})
        self._reports: Optional[Dict[DnsName, ConsistencyReport]] = None

    # ------------------------------------------------------------------
    def _address_set(
        self, result: ProbeResult, hostnames: Iterable[DnsName]
    ) -> Set:
        addresses = set()
        for hostname in hostnames:
            server = result.servers.get(hostname)
            if server is not None:
                addresses.update(server.addresses)
        return addresses

    def classify(self, result: ProbeResult) -> Optional[ConsistencyReport]:
        """Compare P and C for one responsive domain.

        Domains without an authoritative child answer have no C to
        compare and are excluded (as in the paper, which classifies
        responsive domains).
        """
        if result.parent_status != "referral":
            return None
        if not result.child_ns:
            return None
        parent: Set[DnsName] = set(result.parent_ns)
        child: Set[DnsName] = set(result.child_ns)
        single_label = any(len(h) == 1 for h in parent | child)
        if parent == child:
            verdict = ConsistencyClass.EQUAL
        elif parent & child:
            if parent < child:
                verdict = ConsistencyClass.P_SUBSET_C
            elif child < parent:
                verdict = ConsistencyClass.C_SUBSET_P
            else:
                verdict = ConsistencyClass.OVERLAP_NEITHER
        else:
            parent_ips = self._address_set(result, parent)
            child_ips = self._address_set(result, child)
            if parent_ips & child_ips:
                verdict = ConsistencyClass.DISJOINT_IP_OVERLAP
            else:
                verdict = ConsistencyClass.DISJOINT
        return ConsistencyReport(
            domain=result.domain,
            iso2=result.iso2,
            verdict=verdict,
            parent_only=tuple(sorted(parent - child)),
            child_only=tuple(sorted(child - parent)),
            has_single_label_ns=single_label,
        )

    def reports(self) -> Dict[DnsName, ConsistencyReport]:
        """Per-domain taxonomy, swept from the columnar store.

        Equivalent to running :meth:`classify` over every responsive
        domain (the fused column pass computed the same verdicts once
        for the whole dataset).
        """
        if self._reports is None:
            columns = self._dataset.columns
            reports: Dict[DnsName, ConsistencyReport] = {}
            by_code = ConsistencyClass.ALL
            # Same direct-__dict__ construction as the delegation
            # sweep: skip the frozen-dataclass per-field setattr.
            new = object.__new__
            for domain, iso2, code, p_only, c_only, single in zip(
                columns.domains,
                columns.iso2,
                columns.consistency_verdict,
                columns.parent_only,
                columns.child_only,
                columns.single_label_ns,
            ):
                if code == UNCLASSIFIED:
                    continue
                report = new(ConsistencyReport)
                report.__dict__.update(
                    domain=domain,
                    iso2=iso2,
                    verdict=by_code[code],
                    parent_only=p_only,
                    child_only=c_only,
                    has_single_label_ns=single != 0,
                )
                reports[domain] = report
            self._reports = reports
        return self._reports

    # ------------------------------------------------------------------
    # Figure 13: taxonomy summary
    # ------------------------------------------------------------------
    def figure13(self) -> Dict[str, float]:
        """Verdict → share of classified responsive domains."""
        column = self._dataset.columns.consistency_verdict
        total = len(column) - column.count(UNCLASSIFIED)
        if not total:
            return {verdict: 0.0 for verdict in ConsistencyClass.ALL}
        return {
            verdict: column.count(code) / total
            for code, verdict in enumerate(ConsistencyClass.ALL)
        }

    def consistency_by_level(self) -> Dict[int, float]:
        """Level → share consistent (paper: 93.5% at level 2, ≤77%
        deeper)."""
        columns = self._dataset.columns
        # level → [classified, consistent]
        by_level: Dict[int, List[int]] = {}
        for level, code in zip(columns.level, columns.consistency_verdict):
            if code == UNCLASSIFIED:
                continue
            counts = by_level.setdefault(level, [0, 0])
            counts[0] += 1
            if code == 0:  # ConsistencyClass.EQUAL
                counts[1] += 1
        return {
            level: consistent / classified
            for level, (classified, consistent) in sorted(by_level.items())
        }

    def figure14_by_country(self, min_domains: int = 3) -> Dict[str, float]:
        """ISO2 → disagreement rate (share of classified domains with
        P ≠ C)."""
        columns = self._dataset.columns
        # ISO2 → [classified, inconsistent]
        grouped: Dict[str, List[int]] = {}
        for iso2, code in zip(columns.iso2, columns.consistency_verdict):
            if code == UNCLASSIFIED:
                continue
            counts = grouped.setdefault(iso2, [0, 0])
            counts[0] += 1
            if code != 0:  # ConsistencyClass.EQUAL
                counts[1] += 1
        return {
            iso2: inconsistent / classified
            for iso2, (classified, inconsistent) in grouped.items()
            if classified >= min_domains
        }

    def single_label_cases(self) -> List[ConsistencyReport]:
        """The dropped-origin typo cases (bare ``ns``-style entries)."""
        return [
            report
            for report in self.reports().values()
            if report.has_single_label_ns
        ]

    # ------------------------------------------------------------------
    # Cross-analysis: inconsistency vs defects, and dangling records
    # ------------------------------------------------------------------
    def share_inconsistent_with_partial_defect(
        self, delegation: DelegationAnalysis
    ) -> float:
        """Of P≠C domains, the share that also carry a partial defect
        (the paper's 40.9%)."""
        defect_reports = delegation.reports()
        inconsistent = [
            r for r in self.reports().values() if not r.consistent
        ]
        if not inconsistent:
            return 0.0
        both = sum(
            1
            for r in inconsistent
            if r.domain in defect_reports
            and defect_reports[r.domain].any_defect
        )
        return both / len(inconsistent)

    def dangling_scan(
        self, delegation: DelegationAnalysis
    ) -> Dict[DnsName, Tuple[Quote, List[DnsName]]]:
        """Registrable nameserver domains among *non-defective*
        inconsistent cases: the parking-service hijack vector.

        Returns {d_ns → (quote, victim domains)}.
        """
        if self._registrar is None:
            raise ValueError("dangling scan needs a registrar")
        defect_reports = delegation.reports()
        found: Dict[DnsName, Tuple[Quote, List[DnsName]]] = {}
        quote_cache: Dict[DnsName, Quote] = {}
        for report in self.reports().values():
            if report.consistent:
                continue
            defect = defect_reports.get(report.domain)
            if defect is not None and defect.any_defect:
                continue  # §IV-C already covers the defective ones
            for hostname in report.parent_only + report.child_only:
                if len(hostname) <= 1:
                    continue
                suffix = self._gov_suffixes.get(report.iso2)
                if suffix is not None and hostname.is_subdomain_of(suffix):
                    continue
                quote = quote_cache.get(hostname)
                if quote is None:
                    quote = self._registrar.check(hostname)
                    quote_cache[hostname] = quote
                if not quote.available:
                    continue
                entry = found.get(quote.domain)
                if entry is None:
                    found[quote.domain] = (quote, [report.domain])
                elif report.domain not in entry[1]:
                    entry[1].append(report.domain)
        return found
