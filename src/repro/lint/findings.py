"""Finding and severity value types shared by the engine, rules, and
reporters."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Tuple


class Severity(enum.Enum):
    """How bad a finding is.

    Exit status does not depend on severity — any finding fails a
    reprolint run — but reporters surface it (SARIF ``level``, text
    prefix) so readers can triage.
    """

    ERROR = "error"
    WARNING = "warning"
    NOTE = "note"

    @property
    def sarif_level(self) -> str:
        return str(self.value)


@dataclass(frozen=True)
class RuleDescriptor:
    """One rule's reporting metadata (SARIF ``rules`` / ``--list-rules``).

    Every analyzer family whose rules are data rather than AST visitors
    (flowlint, zonelint, servelint) describes them with this one type;
    reprolint's :class:`~repro.lint.engine.Rule` classes carry the same
    three attributes, so the shared reporters accept either.
    """

    rule_id: str
    description: str
    severity: Severity


@dataclass(frozen=True, order=True)
class TraceHop:
    """One step on a finding's source→sink path.

    Interprocedural findings (the ``flowlint`` family) carry the whole
    path a tainted value travelled: where nondeterminism entered, every
    call boundary it crossed, and the sink it reached.  Reporters
    render the hops as SARIF ``codeFlows``/``threadFlows`` plus
    ``relatedLocations``.
    """

    path: str
    line: int
    column: int
    note: str = ""


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` is the stripped text of the offending line.  ``trace``
    (empty for single-location findings) is the ordered source→sink
    hop list and stays out of ordering and equality: a finding is
    identified by where it fires, not by the route its flow took.
    """

    path: str
    line: int
    column: int
    rule_id: str
    severity: Severity
    message: str
    snippet: str = ""
    trace: Tuple[TraceHop, ...] = field(default=(), compare=False)

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity.value} [{self.rule_id}] {self.message}"
        )
