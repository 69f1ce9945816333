"""Defective-delegation analysis (paper §IV-C, Figures 10/11/12).

A nameserver listed for a zone that does not answer queries for it is a
defective (lame) entry; a delegation is *partially* defective when at
least one listed nameserver is defective, and *fully* defective when no
listed nameserver answers.  Fully defective delegations with still-
listed records are the stale-record/zombie pattern, and defective
entries whose hostnames sit under registrable domains are direct
hijacking opportunities — priced here via the registrar substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..dns.name import DnsName
from ..registry.registrar import Quote, Registrar
from .dataset import (
    DEFECT_FULL,
    DEFECT_PARTIAL,
    UNCLASSIFIED,
    MeasurementDataset,
    ProbeResult,
)

__all__ = [
    "DelegationClass",
    "DefectReport",
    "HijackExposure",
    "DelegationAnalysis",
]


class DelegationClass:
    """Per-domain delegation verdicts."""

    HEALTHY = "healthy"
    PARTIAL = "partially_defective"
    FULL = "fully_defective"

    # Indexed by the dataset layer's defect-verdict byte codes.
    BY_CODE = (HEALTHY, PARTIAL, FULL)


@dataclass(frozen=True)
class DefectReport:
    """One domain's defective-delegation classification.

    ``confidence`` qualifies a defect verdict: ``"confirmed"`` when at
    least one defective server shows positive evidence (unresolvable,
    an active wrong answer, or soft failure across both measurement
    rounds), ``"provisional"`` when every defect rests on single-round
    soft failure only (see
    :attr:`repro.core.dataset.ServerProbe.defect_confidence`).  Healthy
    domains are always ``"confirmed"``.
    """

    domain: DnsName
    iso2: str
    verdict: str
    defective_ns: Tuple[DnsName, ...]
    defective_in_parent: Tuple[DnsName, ...]
    confidence: str = "confirmed"

    @property
    def any_defect(self) -> bool:
        return self.verdict != DelegationClass.HEALTHY


@dataclass
class HijackExposure:
    """Registrable nameserver domains and the victims they control."""

    # registrable d_ns → quotes and victims
    available: Dict[DnsName, Quote] = field(default_factory=dict)
    victims_by_dns: Dict[DnsName, List[DnsName]] = field(default_factory=dict)
    victim_country: Dict[DnsName, str] = field(default_factory=dict)
    # victims with no authoritative response at all (the stale majority)
    silent_victims: List[DnsName] = field(default_factory=list)

    @property
    def victim_domains(self) -> List[DnsName]:
        seen: Dict[DnsName, None] = {}
        for victims in self.victims_by_dns.values():
            for victim in victims:
                seen.setdefault(victim, None)
        return list(seen)

    @property
    def countries(self) -> List[str]:
        return sorted(
            {self.victim_country[v] for v in self.victim_domains if v in self.victim_country}
        )

    def prices(self) -> List[float]:
        return sorted(
            quote.price_usd
            for quote in self.available.values()
            if quote.price_usd is not None
        )

    def price_stats(self) -> Dict[str, float]:
        prices = self.prices()
        if not prices:
            return {}
        mid = len(prices) // 2
        median = (
            prices[mid]
            if len(prices) % 2
            else (prices[mid - 1] + prices[mid]) / 2
        )
        return {"min": prices[0], "median": median, "max": prices[-1]}


class DelegationAnalysis:
    """Classifies delegations and scans the defects for hijack risk."""

    def __init__(
        self,
        dataset: MeasurementDataset,
        registrar: Optional[Registrar] = None,
        government_suffixes: Optional[Mapping[str, DnsName]] = None,
    ) -> None:
        self._dataset = dataset
        self._registrar = registrar
        self._gov_suffixes = dict(government_suffixes or {})
        self._reports: Optional[Dict[DnsName, DefectReport]] = None

    # ------------------------------------------------------------------
    # Classification
    # ------------------------------------------------------------------
    def classify(self, result: ProbeResult) -> DefectReport:
        """Verdict for one domain (requires a non-empty parent answer)."""
        defective = tuple(
            hostname
            for hostname, server in result.servers.items()
            if server.defective
        )
        in_parent = tuple(h for h in defective if h in result.parent_ns)
        if not result.responsive:
            verdict = DelegationClass.FULL
        elif defective:
            verdict = DelegationClass.PARTIAL
        else:
            verdict = DelegationClass.HEALTHY
        confidence = "confirmed"
        if defective and all(
            result.servers[h].defect_confidence == "provisional"
            for h in defective
        ):
            confidence = "provisional"
        return DefectReport(
            domain=result.domain,
            iso2=result.iso2,
            verdict=verdict,
            defective_ns=defective,
            defective_in_parent=in_parent,
            confidence=confidence,
        )

    def reports(self) -> Dict[DnsName, DefectReport]:
        """Per-domain verdicts, swept from the columnar store.

        Equivalent to running :meth:`classify` over every domain with
        a non-empty parent answer (the fused column pass computed the
        same verdicts once for the whole dataset).
        """
        if self._reports is None:
            columns = self._dataset.columns
            reports: Dict[DnsName, DefectReport] = {}
            by_code = DelegationClass.BY_CODE
            # Frozen-dataclass construction pays one object.__setattr__
            # per field; at thousands of reports per sweep that is a
            # visible slice of the analysis phase, so build the
            # instance dict directly.  The result is indistinguishable
            # from normal construction (still frozen, still eq/repr).
            new = object.__new__
            for domain, iso2, code, defective, in_parent, provisional in zip(
                columns.domains,
                columns.iso2,
                columns.defect_verdict,
                columns.defective_ns,
                columns.defective_in_parent,
                columns.defect_provisional,
            ):
                if code == UNCLASSIFIED:
                    continue
                report = new(DefectReport)
                report.__dict__.update(
                    domain=domain,
                    iso2=iso2,
                    verdict=by_code[code],
                    defective_ns=defective,
                    defective_in_parent=in_parent,
                    confidence=(
                        "provisional" if provisional else "confirmed"
                    ),
                )
                reports[domain] = report
            self._reports = reports
        return self._reports

    # ------------------------------------------------------------------
    # Figure 10: prevalence
    # ------------------------------------------------------------------
    def prevalence(self) -> Dict[str, float]:
        """Overall shares: any / partial-only / full (paper: 29.5%,
        25.4%, ~4%), over domains with a non-empty parent response."""
        column = self._dataset.columns.defect_verdict
        total = len(column) - column.count(UNCLASSIFIED)
        if not total:
            return {"any": 0.0, "partial": 0.0, "full": 0.0}
        partial = column.count(DEFECT_PARTIAL)
        full = column.count(DEFECT_FULL)
        return {
            "any": (partial + full) / total,
            "partial": partial / total,
            "full": full / total,
        }

    def prevalence_bounds(self) -> Dict[str, float]:
        """Bounds on the any-defect share, by evidence quality.

        ``lower`` counts only *confirmed* defects (positive evidence or
        two-round silence); ``upper`` additionally counts provisional
        ones (single-round soft failure, indistinguishable from a
        transient outage).  With the §III-B retry round enabled the gap
        collapses to near zero — every surviving silence is two-round —
        which is exactly the over-counting bound the retry exists to
        provide.
        """
        columns = self._dataset.columns
        column = columns.defect_verdict
        total = len(column) - column.count(UNCLASSIFIED)
        if not total:
            return {"lower": 0.0, "upper": 0.0}
        any_defect = column.count(DEFECT_PARTIAL) + column.count(DEFECT_FULL)
        confirmed = any_defect - columns.defect_provisional.count(1)
        return {"lower": confirmed / total, "upper": any_defect / total}

    def figure10_by_country(self) -> Dict[str, Dict[str, float]]:
        """ISO2 → {any, partial, full} shares."""
        columns = self._dataset.columns
        # ISO2 → [total, partial, full]
        grouped: Dict[str, List[int]] = {}
        for iso2, code in zip(columns.iso2, columns.defect_verdict):
            if code == UNCLASSIFIED:
                continue
            counts = grouped.setdefault(iso2, [0, 0, 0])
            counts[0] += 1
            if code == DEFECT_PARTIAL:
                counts[1] += 1
            elif code == DEFECT_FULL:
                counts[2] += 1
        out: Dict[str, Dict[str, float]] = {}
        for iso2, (total, partial, full) in grouped.items():
            out[iso2] = {
                "domains": float(total),
                "any": (partial + full) / total,
                "partial": partial / total,
                "full": full / total,
            }
        return out

    # ------------------------------------------------------------------
    # Figures 11/12: hijack exposure
    # ------------------------------------------------------------------
    def _is_government_name(self, hostname: DnsName, iso2: str) -> bool:
        suffix = self._gov_suffixes.get(iso2)
        return suffix is not None and hostname.is_subdomain_of(suffix)

    def hijack_exposure(self) -> HijackExposure:
        """Scan defective entries for registrable nameserver domains.

        Only nameservers outside the victim's own government namespace
        are checked (the paper found most defects involve governments'
        own names and pose no third-party registration risk).
        """
        if self._registrar is None:
            raise ValueError("hijack scan needs a registrar")
        exposure = HijackExposure()
        quote_cache: Dict[DnsName, Quote] = {}
        for report in self.reports().values():
            if not report.any_defect:
                continue
            result = self._dataset[report.domain]
            for hostname in report.defective_ns:
                if len(hostname) <= 1:
                    continue
                if self._is_government_name(hostname, report.iso2):
                    continue
                server = result.servers.get(hostname)
                if server is not None and server.resolvable:
                    # The domain behind it clearly still exists.
                    continue
                quote = quote_cache.get(hostname)
                if quote is None:
                    quote = self._registrar.check(hostname)
                    quote_cache[hostname] = quote
                if not quote.available:
                    continue
                dns_domain = quote.domain
                exposure.available[dns_domain] = quote
                victims = exposure.victims_by_dns.setdefault(dns_domain, [])
                if report.domain not in victims:
                    victims.append(report.domain)
                exposure.victim_country[report.domain] = report.iso2
                if (
                    report.verdict == DelegationClass.FULL
                    and report.domain not in exposure.silent_victims
                ):
                    exposure.silent_victims.append(report.domain)
        return exposure

    def figure11_by_country(
        self, exposure: Optional[HijackExposure] = None
    ) -> Dict[str, Tuple[int, int]]:
        """ISO2 → (#affected domains, #available d_ns used there)."""
        if exposure is None:
            exposure = self.hijack_exposure()
        victims_per_country: Dict[str, int] = {}
        dns_per_country: Dict[str, set] = {}
        for dns_domain, victims in exposure.victims_by_dns.items():
            for victim in victims:
                iso2 = exposure.victim_country.get(victim)
                if iso2 is None:
                    continue
                victims_per_country[iso2] = victims_per_country.get(iso2, 0) + 1
                dns_per_country.setdefault(iso2, set()).add(dns_domain)
        return {
            iso2: (victims_per_country[iso2], len(dns_per_country[iso2]))
            for iso2 in victims_per_country
        }
