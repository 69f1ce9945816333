"""zonelint: a static delegation-graph analyzer and ground-truth oracle.

The second analyzer family on the shared lint infrastructure
(``repro.lint`` supplies findings, baselines, and the text/JSON/SARIF
reporters).  Where reprolint checks the *source code*, zonelint checks
the *generated world*: it walks zones and the delegation graph without
issuing a single simulated query and emits typed findings for every
deployment smell the paper measures actively — plus a ground-truth
table the differential oracle (``repro.core.oracle``) holds the active
campaign to.

Layering: ``repro.zonelint`` may import ``repro.dns``/``net``/
``worldgen``/``lint`` but never ``repro.core`` — the oracle imports
this package, not the other way around (enforced by ARCH001).
"""

from .analyzer import GroundTruth, StaticServer, ZoneLinter
from .graph import StaticWalk, ZoneGraph
from .smells import (
    CONSISTENCY_RULE_IDS,
    RULES_BY_ID,
    ZL_RULES,
    StaticConsistency,
    StaticDelegation,
    StaticOutcome,
    StaticStatus,
)
from .verify import PlanMismatch, verify_world

__all__ = [
    "GroundTruth",
    "StaticServer",
    "ZoneLinter",
    "StaticWalk",
    "ZoneGraph",
    "ZL_RULES",
    "RULES_BY_ID",
    "CONSISTENCY_RULE_IDS",
    "StaticConsistency",
    "StaticDelegation",
    "StaticOutcome",
    "StaticStatus",
    "PlanMismatch",
    "verify_world",
]
