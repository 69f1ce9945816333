"""Responsible-disclosure packages (paper §III-D).

The authors "have taken steps toward responsible disclosure, contacting
operators of domains in which we found vulnerabilities".  This module
assembles those notifications from a completed study: one package per
country, containing only that operator's findings, ordered by severity,
with concrete remediation advice per finding class.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..dns.name import DnsName
from .tables import render_table

__all__ = ["Finding", "DisclosurePackage", "build_disclosures", "render_package"]

# Severity ordering for the findings a study produces.
SEVERITY = {
    "hijackable_ns_domain": 1,   # someone can buy your nameserver
    "dangling_responsive_ns": 2,  # parked/expired but still answering
    "fully_defective": 3,         # zombie delegation
    "partially_defective": 4,
    "single_ns_stale": 5,
    "parent_child_mismatch": 6,
    "single_label_ns": 7,
}

_ADVICE = {
    "hijackable_ns_domain": (
        "Register or reclaim the nameserver domain immediately, then "
        "remove it from the delegation. Until then any third party can "
        "buy it and answer for your zone."
    ),
    "dangling_responsive_ns": (
        "The parent zone lists a nameserver whose domain has lapsed but "
        "still answers. Remove the record at the registry and consider "
        "a registry lock."
    ),
    "fully_defective": (
        "No listed nameserver answers for this zone. If the service is "
        "retired, delete the delegation; if not, restore service or "
        "update the NS set via your registrar."
    ),
    "partially_defective": (
        "At least one listed nameserver does not answer for the zone. "
        "Remove or repair it; stale entries degrade resolution and can "
        "become hijack vectors when their domains lapse."
    ),
    "single_ns_stale": (
        "The domain lists a single nameserver and it no longer answers. "
        "Delete the delegation or restore the host."
    ),
    "parent_child_mismatch": (
        "The parent zone and your nameservers disagree about the NS "
        "set. Align them (CSYNC or a registrar update) to avoid "
        "unpredictable resolution paths."
    ),
    "single_label_ns": (
        "An NS record contains a bare label (a dropped-origin zone-file "
        "typo). Re-enter the record with the full hostname."
    ),
}


@dataclass(frozen=True)
class Finding:
    """One issue affecting one domain."""

    domain: DnsName
    kind: str
    detail: str

    @property
    def severity(self) -> int:
        return SEVERITY.get(self.kind, 99)

    @property
    def advice(self) -> str:
        return _ADVICE.get(self.kind, "Review the record.")


@dataclass
class DisclosurePackage:
    """Everything to send one country's DNS operator."""

    iso2: str
    d_gov: DnsName
    findings: List[Finding] = field(default_factory=list)

    @property
    def worst_severity(self) -> int:
        return min((f.severity for f in self.findings), default=99)

    def by_kind(self) -> Dict[str, List[Finding]]:
        grouped: Dict[str, List[Finding]] = {}
        for finding in sorted(self.findings, key=lambda f: (f.severity, str(f.domain))):
            grouped.setdefault(finding.kind, []).append(finding)
        return grouped


def build_disclosures(study) -> Dict[str, DisclosurePackage]:
    """One package per country with at least one finding."""
    seeds = study.seeds()
    packages: Dict[str, DisclosurePackage] = {}

    def package_for(iso2: str) -> Optional[DisclosurePackage]:
        seed = seeds.get(iso2)
        if seed is None:
            return None
        if iso2 not in packages:
            packages[iso2] = DisclosurePackage(iso2=iso2, d_gov=seed.d_gov)
        return packages[iso2]

    delegation = study.delegation()
    exposure = delegation.hijack_exposure()

    # Hijackable nameserver domains (highest severity).
    for dns_domain, victims in exposure.victims_by_dns.items():
        quote = exposure.available[dns_domain]
        for victim in victims:
            iso2 = exposure.victim_country.get(victim)
            if iso2 is None:
                continue
            package = package_for(iso2)
            if package is not None:
                package.findings.append(
                    Finding(
                        domain=victim,
                        kind="hijackable_ns_domain",
                        detail=(
                            f"nameserver domain {dns_domain} is open for "
                            f"registration (${quote.price_usd:,.2f})"
                        ),
                    )
                )

    # Defective delegations.
    hijack_victims = set(exposure.victim_domains)
    for report in delegation.reports().values():
        if not report.any_defect or report.domain in hijack_victims:
            continue
        package = package_for(report.iso2)
        if package is None:
            continue
        kind = (
            "fully_defective"
            if report.verdict == "fully_defective"
            else "partially_defective"
        )
        result = study.dataset()[report.domain]
        if kind == "fully_defective" and result.ns_count == 1:
            kind = "single_ns_stale"
        package.findings.append(
            Finding(
                domain=report.domain,
                kind=kind,
                detail=(
                    "broken nameservers: "
                    + ", ".join(str(h) for h in report.defective_ns[:4])
                ),
            )
        )

    # Consistency findings (dangling-responsive first, then mismatches).
    consistency = study.consistency()
    dangling = consistency.dangling_scan(delegation)
    dangling_victims = {
        victim: dns_domain
        for dns_domain, (_, victims) in dangling.items()
        for victim in victims
    }
    for report in consistency.reports().values():
        if report.consistent:
            continue
        package = package_for(report.iso2)
        if package is None:
            continue
        if report.domain in dangling_victims:
            package.findings.append(
                Finding(
                    domain=report.domain,
                    kind="dangling_responsive_ns",
                    detail=(
                        f"parent lists a nameserver under the lapsed domain "
                        f"{dangling_victims[report.domain]}"
                    ),
                )
            )
        elif report.has_single_label_ns:
            package.findings.append(
                Finding(
                    domain=report.domain,
                    kind="single_label_ns",
                    detail="an NS record contains a bare single-label name",
                )
            )
        else:
            exclusive = ", ".join(
                str(h) for h in (report.parent_only + report.child_only)[:4]
            )
            package.findings.append(
                Finding(
                    domain=report.domain,
                    kind="parent_child_mismatch",
                    detail=f"[{report.verdict}] exclusive records: {exclusive}",
                )
            )

    return {
        iso2: package for iso2, package in packages.items() if package.findings
    }


def render_package(package: DisclosurePackage) -> str:
    """The notification text for one operator."""
    lines = [
        f"Responsible disclosure — DNS findings for {package.d_gov}",
        "",
        "Dear operator,",
        "",
        "During a measurement study of government DNS deployments we",
        f"observed the following issues under {package.d_gov}. Findings",
        "are ordered by severity; remediation guidance follows each group.",
    ]
    for kind, findings in package.by_kind().items():
        lines.append("")
        lines.append(
            render_table(
                ["Domain", "Detail"],
                [[str(f.domain), f.detail] for f in findings[:25]],
                title=f"{kind} ({len(findings)} affected)",
            )
        )
        if len(findings) > 25:
            lines.append(f"  … and {len(findings) - 25} more")
        lines.append(f"  Recommended action: {findings[0].advice}")
    lines.append("")
    lines.append(
        "We are happy to share raw measurements on request. This notice "
        "was generated from active DNS lookups only; no zone transfer or "
        "intrusive technique was used."
    )
    return "\n".join(lines)
