"""Finding and severity value types shared by the engine, rules, and
reporters."""

from __future__ import annotations

import enum
import hashlib
from dataclasses import dataclass, field
from typing import Tuple


def normalize_snippet(text: str) -> str:
    """Whitespace-normalize an offending line for fingerprinting.

    Collapsing interior runs and stripping the ends makes the
    fingerprint survive re-indentation and formatting-only edits, which
    are exactly the line drifts a baseline should not churn on.
    """
    return " ".join(text.split())


def snippet_digest(text: str) -> str:
    """Short stable hash of the normalized snippet (fingerprint part)."""
    normalized = normalize_snippet(text)
    return hashlib.sha256(normalized.encode("utf-8")).hexdigest()[:16]


class Severity(enum.Enum):
    """How bad a finding is.

    Exit status does not depend on severity — any non-baselined finding
    fails the run — but reporters surface it (SARIF ``level``, text
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

    ``snippet`` is the stripped text of the offending line; a hash of
    its whitespace-normalized form, together with ``path`` and
    ``rule_id``, is the baseline fingerprint — deliberately
    line-number-free so unrelated edits above a grandfathered finding
    do not un-baseline it, and whitespace-insensitive so reformatting
    does not either.  ``trace`` (empty for single-location findings)
    is the ordered source→sink hop list and stays outside the
    fingerprint: a re-routed flow to the same sink is still the same
    grandfathered finding.
    """

    path: str
    line: int
    column: int
    rule_id: str
    severity: Severity
    message: str
    snippet: str = ""
    trace: Tuple[TraceHop, ...] = field(default=(), compare=False)

    def fingerprint(self) -> Tuple[str, str, str]:
        """Stable identity for baseline matching:
        ``(rule, path, hash(normalized snippet))``."""
        return (self.rule_id, self.path, snippet_digest(self.snippet))

    def render(self) -> str:
        """One-line human-readable form."""
        return (
            f"{self.path}:{self.line}:{self.column}: "
            f"{self.severity.value} [{self.rule_id}] {self.message}"
        )
