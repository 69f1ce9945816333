"""Rule vocabulary for the static cache-survivability analyzer.

Each SV rule names one way client-facing resolution degrades when
infrastructure fails — the serving-layer twin of zonelint's delegation
smells.  Where zonelint asks "is this delegation broken *now*?",
servelint asks "when the committed chaos profiles fire, does this
domain keep answering, answer stale, or go dark?" — the question the
paper's resilience findings (single-NS governments, provider
concentration) pose and the follow-on resilience study measures.

Rules are the shared :class:`~repro.lint.findings.RuleDescriptor`, so
the shared text/JSON/SARIF reporters render them unchanged.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..lint.findings import RuleDescriptor, Severity

__all__ = [
    "SV_RULES",
    "RULES_BY_ID",
    "NEGATIVE_TTL_FLOOR",
    "TTL_COHORT_SHARE",
    "TTL_COHORT_MIN",
]

# SV005 fires when the effective negative TTL drops below this floor:
# every NXDOMAIN in a typo storm then re-hits the upstream within the
# storm itself instead of being absorbed by the negative cache.
NEGATIVE_TTL_FLOOR = 60

# SV006 fires when at least this share of answerable domains (and at
# least TTL_COHORT_MIN of them) collapse to one clamped TTL: a warm
# phase synchronizes their expiries, so they all refresh in one burst.
TTL_COHORT_SHARE = 0.5
TTL_COHORT_MIN = 8


SV_RULES: Tuple[RuleDescriptor, ...] = (
    RuleDescriptor(
        "SV001",
        "dark under outage: every serve path dies and no cache entry "
        "bridges the fault window — clients see SERVFAIL",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "SV002",
        "survives only via the RFC 8767 stale window: every upstream "
        "path dies under the outage profile, answers degrade to stale",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "SV003",
        "single-NS domain whose entire serve path dies under the "
        "outage profile (the paper's d_1NS resilience finding)",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "SV004",
        "positive TTL shorter than the committed outage window with no "
        "surviving nameserver: live answers cannot outlast the fault",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "SV005",
        "negative-TTL amplification: the effective negative TTL is so "
        "short that NXDOMAIN storms re-hit the upstream",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "SV006",
        "refresh-storm risk: a dominant cohort of domains shares one "
        "clamped TTL, so warmed entries expire (and refresh) in sync",
        Severity.NOTE,
    ),
    RuleDescriptor(
        "SV007",
        "background refresh futile: the entire bounded backoff schedule "
        "lands inside the outage window — every refresh is abandoned",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "SV008",
        "stale window too small to bridge a committed chaos profile's "
        "fault window",
        Severity.NOTE,
    ),
)

RULES_BY_ID: Dict[str, RuleDescriptor] = {
    rule.rule_id: rule for rule in SV_RULES
}
