"""The SV rules and the findings they yield over a generated world.

Each SV rule names one way a domain's client-facing resolution degrades
when the committed ``outage`` profile fires — the profile whose windows
are silence for longer than any serve run, so its verdicts are
deterministic.  Every finding is read straight off the survivability
model's prediction for the domain's popular name
(:meth:`~repro.servelint.model.SurvivabilityModel.predict`); nothing
here is simulated.

Findings use the same virtual ``world/<domain>`` paths as zonelint and
the shared :class:`~repro.lint.findings.RuleDescriptor`, so the shared
text/JSON/SARIF reporters render them unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Tuple

from ..dns.name import DnsName
from ..lint.findings import Finding, RuleDescriptor, Severity
from ..serve.service import DegradationState
from ..zonelint.analyzer import GroundTruth
from ..zonelint.smells import StaticOutcome
from .model import ChaosOutlook, SurvivabilityModel

__all__ = ["ANALYSIS_PROFILE", "RULES_BY_ID", "SV_RULES", "findings"]

# The profile findings are judged under.  Outage windows are total
# silence and outlast every default serve horizon, so the static
# verdicts under it are exact, not probabilistic.
ANALYSIS_PROFILE = "outage"


SV_RULES: Tuple[RuleDescriptor, ...] = (
    RuleDescriptor(
        "SV002",
        "survives only via the RFC 8767 stale window: every upstream "
        "path dies under the outage profile, answers degrade to stale",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "SV004",
        "positive TTL shorter than the committed outage window with no "
        "surviving nameserver: live answers cannot outlast the fault",
        Severity.WARNING,
    ),
)

RULES_BY_ID: Dict[str, RuleDescriptor] = {
    rule.rule_id: rule for rule in SV_RULES
}


def findings(
    model: SurvivabilityModel, truths: Mapping[DnsName, GroundTruth]
) -> List[Finding]:
    """SV findings for every domain in zonelint's ground-truth table."""
    # Chaos predictions start from the cuts the warm phase caches.
    model.warm(list(truths))
    outlook = model.outlook(ANALYSIS_PROFILE)
    out: List[Finding] = []

    def emit(
        rule_id: str, domain: DnsName, message: str, snippet: str
    ) -> None:
        out.append(
            Finding(
                path=f"world/{domain}",
                line=1,
                column=1,
                rule_id=rule_id,
                severity=RULES_BY_ID[rule_id].severity,
                message=message,
                snippet=f"{snippet} {domain}",
            )
        )

    for domain in sorted(truths):
        prediction = model.predict(ANALYSIS_PROFILE, domain, "popular")
        if prediction.chaos_status != "failed":
            continue  # answers fresh through the fault
        ttl = model.clamped_ttl(prediction.qname)
        if prediction.expected == (DegradationState.STALE_SERVED,):
            emit(
                "SV002",
                domain,
                f"survives the {ANALYSIS_PROFILE} profile only via the "
                f"RFC 8767 stale window (entry TTL {ttl}s "
                f"+ stale {model.config.stale_window:.0f}s)",
                "stale-only",
            )
        if (
            ttl is not None
            and ttl < outlook.fault_span
            and not _any_ns_survives(truths[domain], outlook)
        ):
            emit(
                "SV004",
                domain,
                f"positive TTL {ttl}s (clamped) is shorter than the "
                f"{outlook.fault_span:.0f}s fault window and no "
                "nameserver survives it: live answers cannot outlast "
                "the fault",
                "ttl-under-outage",
            )
    return out


def _any_ns_survives(truth: GroundTruth, outlook: ChaosOutlook) -> bool:
    """Does any nameserver keep an authoritative address outside the
    profile's dead set?"""
    return any(
        server.outcomes.get(address) in StaticOutcome.AUTHORITATIVE
        and not outlook.is_dead(address)
        for server in truth.servers.values()
        for address in server.addresses
    )
