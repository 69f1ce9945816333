"""servelint: static cache-survivability analysis of the serving layer.

The fourth analyzer family on the shared lint chassis (after reprolint,
zonelint, and flowlint).  Where zonelint judges the delegation graph as
it stands, servelint judges how the *serving* layer degrades when the
committed chaos profiles fire: per-domain TTL floors, RFC 8767 stale
coverage, background-refresh reachability, and fault-window overlap —
all computed analytically from zonelint's ground truth, no simulation.

``servelint --verify`` then runs the real serving pipeline per profile
and demands that every static-vs-observed disagreement classify into an
explained bucket (chaos-masked, workload-never-queried,
breaker-shadowed); anything unexplained fails the build.
"""

from .analyzer import ServeLinter
from .model import SurvivabilityModel
from .rules import RULES_BY_ID, SV_RULES

__all__ = [
    "RULES_BY_ID",
    "SV_RULES",
    "ServeLinter",
    "SurvivabilityModel",
]
