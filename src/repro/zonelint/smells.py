"""Smell vocabulary for the static delegation-graph analyzer.

Each ZL rule names one deployment smell the paper measures actively:
stale delegations and the per-mode defect taxonomy (§IV-C), the
Figure-13 parent/child consistency classes (§IV-D), hijackable
nameserver domains (§IV-E), and the replication smells behind
Figures 8–10.  Rules are the shared
:class:`~repro.lint.findings.RuleDescriptor`, so the reprolint SARIF
renderer emits them unchanged.

The ``Static*`` constant classes mirror the *string values* used by the
active pipeline (``repro.core.dataset`` / ``delegation`` /
``consistency``) without importing it — ``repro.zonelint`` must stay
importable from ``repro.core`` for the differential oracle, so the
dependency points the other way (ARCH001).
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..lint.findings import RuleDescriptor, Severity

__all__ = [
    "ZL_RULES",
    "RULES_BY_ID",
    "CONSISTENCY_RULE_IDS",
    "StaticStatus",
    "StaticOutcome",
    "StaticDelegation",
    "StaticConsistency",
]


class StaticStatus:
    """Parent-walk outcomes (mirrors ``core.dataset.ParentStatus``)."""

    REFERRAL = "referral"
    ANSWER = "answer"
    EMPTY = "empty"
    NO_RESPONSE = "no_response"


class StaticOutcome:
    """Per-server sweep outcomes (mirrors ``core.dataset.ServerOutcome``)."""

    ANSWER = "answer"
    NODATA = "nodata"
    NXDOMAIN = "nxdomain"
    REFUSED = "refused"
    SERVFAIL = "servfail"
    UPWARD = "upward_referral"
    LAME = "lame"
    TIMEOUT = "timeout"

    AUTHORITATIVE = frozenset({"answer", "nodata"})


class StaticDelegation:
    """Delegation verdicts (mirrors ``core.delegation.DelegationClass``)."""

    HEALTHY = "healthy"
    PARTIAL = "partially_defective"
    FULL = "fully_defective"


class StaticConsistency:
    """Figure-13 classes (mirrors ``core.consistency.ConsistencyClass``)."""

    EQUAL = "P=C"
    P_SUBSET_C = "P⊂C"
    C_SUBSET_P = "C⊂P"
    OVERLAP_NEITHER = "P∩C≠∅, neither"
    DISJOINT_IP_OVERLAP = "P∩C=∅, IP overlap"
    DISJOINT = "P∩C=∅, no IP overlap"


ZL_RULES: Tuple[RuleDescriptor, ...] = (
    RuleDescriptor(
        "ZL001",
        "stale delegation: the parent lists nameservers but none serves "
        "the zone",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "ZL002",
        "delegated nameserver hostname does not resolve",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "ZL003",
        "delegated nameserver resolves but nothing answers at its "
        "addresses",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "ZL004",
        "lame nameserver: a server answers but never authoritatively "
        "for the zone",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "ZL010",
        "parent NS set is a strict subset of the child's (P⊂C)",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "ZL011",
        "child NS set is a strict subset of the parent's (C⊂P)",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "ZL012",
        "parent and child NS sets overlap but neither contains the "
        "other",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "ZL013",
        "parent and child NS sets are disjoint but share addresses",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "ZL014",
        "parent and child NS sets are disjoint with no shared address",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "ZL015",
        "single-label nameserver name (dropped-origin typo)",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "ZL020",
        "nameserver under a registrable domain: hijack exposure",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "ZL030",
        "single point of failure: the delegation lists one nameserver",
        Severity.NOTE,
    ),
    RuleDescriptor(
        "ZL031",
        "no network diversity: every nameserver address sits in one /24",
        Severity.NOTE,
    ),
    RuleDescriptor(
        "ZL032",
        "nameserver addresses span multiple /24s inside a single AS",
        Severity.NOTE,
    ),
)

RULES_BY_ID: Dict[str, RuleDescriptor] = {rule.rule_id: rule for rule in ZL_RULES}

# Figure-13 deviation class → the rule that reports it.
CONSISTENCY_RULE_IDS: Dict[str, str] = {
    StaticConsistency.P_SUBSET_C: "ZL010",
    StaticConsistency.C_SUBSET_P: "ZL011",
    StaticConsistency.OVERLAP_NEITHER: "ZL012",
    StaticConsistency.DISJOINT_IP_OVERLAP: "ZL013",
    StaticConsistency.DISJOINT: "ZL014",
}
