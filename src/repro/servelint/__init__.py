"""servelint: static cache-survivability analysis of the serving layer.

An analyzer on the shared lint chassis, next to reprolint (source code)
and zonelint (the delegation graph).  Where zonelint judges the
delegation graph as it stands, servelint predicts how the *serving*
layer degrades when the committed ``outage`` profile fires: which
domains survive only on RFC 8767 stale answers (SV002), and which have
no nameserver left and a TTL shorter than the fault (SV004) — computed
analytically from zonelint's ground truth, no simulation.

``servelint --verify`` then runs the real serving pipeline per profile
and demands that every static-vs-observed disagreement classify into an
explained bucket (chaos-masked, workload-never-queried,
breaker-shadowed); anything unexplained fails the build.
"""

from .model import SurvivabilityModel
from .rules import RULES_BY_ID, SV_RULES, findings

__all__ = [
    "RULES_BY_ID",
    "SV_RULES",
    "SurvivabilityModel",
    "findings",
]
