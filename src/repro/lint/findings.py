"""Finding and severity value types shared by the engine, rules, and
reporters."""

from __future__ import annotations

import enum
from dataclasses import dataclass


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
    (zonelint, servelint) describes them with this one type;
    reprolint's :class:`~repro.lint.engine.Rule` classes carry the same
    three attributes, so the shared reporters accept either.
    """

    rule_id: str
    description: str
    severity: Severity


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location.

    ``snippet`` is the stripped text of the offending line.
    """

    path: str
    line: int
    column: int
    rule_id: str
    severity: Severity
    message: str
    snippet: str = ""

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity.value} [{self.rule_id}] {self.message}"
        )
