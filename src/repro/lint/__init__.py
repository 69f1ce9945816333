"""reprolint — AST-based invariant checker for this reproduction.

The repository's claim to validity rests on two properties that ordinary
linters do not check:

* **Determinism** — every figure and table must be bit-for-bit
  reproducible from a world seed.  Wall-clock reads, global-RNG calls,
  and unsorted set iteration all silently break that.
* **Semantic fidelity** — the resolver pipeline must respect DNS
  case-insensitivity (:class:`repro.dns.name.DnsName`, never raw string
  comparison) and explicit timeout/retry policy, the way the paper's
  active measurement did.

``reprolint`` parses every file once, walks the AST once, and dispatches
each node to every registered :class:`~repro.lint.engine.Rule`.  Each
rule flags the line to fix: a nondeterminism source where it enters,
or a hazard inside one function; none follows a value across calls.  Any
finding fails the build; the one way to accept one is an inline,
justified ``# reprolint: disable=RULE`` comment on the offending line.

Run it as ``python -m repro.lint src/`` or ``repro lint src/``.
"""

from __future__ import annotations

from .engine import LintEngine, ModuleContext, Rule, default_rules
from .findings import Finding, Severity
from .rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "LintEngine",
    "ModuleContext",
    "Rule",
    "Severity",
    "default_rules",
]
