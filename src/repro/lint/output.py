"""Reporters: text, JSON, and SARIF 2.1.0.

SARIF is the interchange format GitHub code scanning and most editors
ingest; the emitted document carries every rule's metadata plus a
``baselineState`` per result so a viewer can distinguish ratcheted
findings from new ones.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from .baseline import BaselineMatch
from .findings import Finding

__all__ = ["render_text", "render_json", "render_sarif", "render_report", "FORMATS"]

FORMATS = ("text", "json", "sarif")

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(match: BaselineMatch) -> str:
    """Human-readable report, new findings first."""
    lines: List[str] = []
    for finding in match.new:
        lines.append(finding.render())
        lines.extend(_trace_lines(finding))
    for finding in match.baselined:
        lines.append(f"{finding.render()} (baselined)")
        lines.extend(_trace_lines(finding))
    for rule, path, snippet in match.stale:
        shown = snippet if len(snippet) <= 60 else snippet[:57] + "..."
        lines.append(
            f"stale baseline entry: [{rule}] {path}: {shown!r} no longer fires"
        )
    summary = (
        f"{len(match.new)} new finding(s), "
        f"{len(match.baselined)} baselined, "
        f"{len(match.stale)} stale baseline entr(y/ies)"
    )
    lines.append(summary)
    return "\n".join(lines)


def _trace_lines(finding: Finding) -> List[str]:
    """Indented source→sink hops for the text reporter."""
    return [
        f"    {index}. {hop.path}:{hop.line}:{hop.column} {hop.note}"
        for index, hop in enumerate(finding.trace, start=1)
    ]


def _finding_dict(finding: Finding, baselined: bool) -> Dict[str, Any]:
    payload: Dict[str, Any] = {
        "rule": finding.rule_id,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "message": finding.message,
        "snippet": finding.snippet,
        "baselined": baselined,
    }
    if finding.trace:
        payload["trace"] = [
            {
                "path": hop.path,
                "line": hop.line,
                "column": hop.column,
                "note": hop.note,
            }
            for hop in finding.trace
        ]
    return payload


def render_json(match: BaselineMatch) -> str:
    """Machine-readable report mirroring the text reporter's content."""
    payload = {
        "findings": (
            [_finding_dict(f, baselined=False) for f in match.new]
            + [_finding_dict(f, baselined=True) for f in match.baselined]
        ),
        "stale_baseline": [
            {"rule": rule, "path": path, "snippet": snippet}
            for rule, path, snippet in match.stale
        ],
        "summary": {
            "new": len(match.new),
            "baselined": len(match.baselined),
            "stale": len(match.stale),
        },
    }
    return json.dumps(payload, indent=2)


def _physical_location(path: str, line: int, column: int) -> Dict[str, Any]:
    return {
        "artifactLocation": {"uri": path, "uriBaseId": "SRCROOT"},
        "region": {"startLine": line, "startColumn": column},
    }


def _sarif_result(finding: Finding, baselined: bool) -> Dict[str, Any]:
    result: Dict[str, Any] = {
        "ruleId": finding.rule_id,
        "level": finding.severity.sarif_level,
        "message": {"text": finding.message},
        "baselineState": "unchanged" if baselined else "new",
        "locations": [
            {
                "physicalLocation": _physical_location(
                    finding.path, finding.line, finding.column
                )
            }
        ],
    }
    if finding.trace:
        # The interprocedural source→sink path: threadFlow locations in
        # hop order (what SARIF viewers step through), mirrored as
        # relatedLocations so flat renderers surface the hops too.
        hop_locations = [
            {
                "location": {
                    "physicalLocation": _physical_location(
                        hop.path, hop.line, hop.column
                    ),
                    "message": {"text": hop.note or "flow step"},
                }
            }
            for hop in finding.trace
        ]
        result["codeFlows"] = [
            {"threadFlows": [{"locations": hop_locations}]}
        ]
        result["relatedLocations"] = [
            {
                "physicalLocation": _physical_location(
                    hop.path, hop.line, hop.column
                ),
                "message": {"text": hop.note or "flow step"},
            }
            for hop in finding.trace
        ]
    return result


def render_sarif(
    match: BaselineMatch,
    rules: Sequence[Any],
    version: str,
    tool: str = "reprolint",
    information_uri: str = "https://github.com/example/repro",
) -> str:
    """A minimal-but-valid SARIF 2.1.0 document.

    ``rules`` is any sequence of objects with ``rule_id``,
    ``description`` and ``severity`` attributes — reprolint's AST rules
    and every other family's
    :class:`~repro.lint.findings.RuleDescriptor` both qualify, which is
    what lets all analyzer families share one reporter.
    """
    driver_rules = [
        {
            "id": rule.rule_id,
            "shortDescription": {"text": rule.description},
            "defaultConfiguration": {"level": rule.severity.sarif_level},
        }
        for rule in rules
    ]
    document = {
        "$schema": _SARIF_SCHEMA,
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool,
                        "version": version,
                        "informationUri": information_uri,
                        "rules": driver_rules,
                    }
                },
                "results": (
                    [_sarif_result(f, baselined=False) for f in match.new]
                    + [
                        _sarif_result(f, baselined=True)
                        for f in match.baselined
                    ]
                ),
            }
        ],
    }
    return json.dumps(document, indent=2)


def render_report(
    match: BaselineMatch,
    fmt: str,
    rules: Sequence[Any],
    version: str,
    tool: str,
    preamble: Optional[str] = None,
) -> str:
    """``match`` in one of :data:`FORMATS` — the one report dispatch
    every analyzer CLI shares.  ``preamble`` heads the text report
    only; the JSON and SARIF documents stay machine-clean."""
    if fmt == "json":
        return render_json(match)
    if fmt == "sarif":
        return render_sarif(match, rules, version, tool=tool)
    text = render_text(match)
    return text if preamble is None else f"{preamble}\n{text}"
