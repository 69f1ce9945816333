"""Reporters: text, JSON, and SARIF 2.1.0.

SARIF is the interchange format GitHub code scanning and most editors
ingest; the emitted document carries every rule's metadata plus one
result per finding.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional, Sequence

from .findings import Finding

__all__ = ["render_text", "render_json", "render_sarif", "render_report", "FORMATS"]

FORMATS = ("text", "json", "sarif")

_SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)


def render_text(findings: Sequence[Finding]) -> str:
    """Human-readable report: one line per finding, then a summary."""
    lines = [finding.render() for finding in findings]
    lines.append(f"{len(findings)} new finding(s)")
    return "\n".join(lines)


def _finding_dict(finding: Finding) -> Dict[str, Any]:
    return {
        "rule": finding.rule_id,
        "severity": finding.severity.value,
        "path": finding.path,
        "line": finding.line,
        "column": finding.column,
        "message": finding.message,
        "snippet": finding.snippet,
    }


def render_json(findings: Sequence[Finding]) -> str:
    """Machine-readable report mirroring the text reporter's content."""
    payload = {
        "findings": [_finding_dict(f) for f in findings],
        "summary": {"new": len(findings)},
    }
    return json.dumps(payload, indent=2)


def _sarif_result(finding: Finding) -> Dict[str, Any]:
    return {
        "ruleId": finding.rule_id,
        "level": finding.severity.sarif_level,
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.column,
                    },
                }
            }
        ],
    }


def render_sarif(
    findings: Sequence[Finding],
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
                "results": [_sarif_result(f) for f in findings],
            }
        ],
    }
    return json.dumps(document, indent=2)


def render_report(
    findings: Sequence[Finding],
    fmt: str,
    rules: Sequence[Any],
    version: str,
    tool: str,
    preamble: Optional[str] = None,
) -> str:
    """``findings`` in one of :data:`FORMATS` — the one report dispatch
    every analyzer CLI shares.  ``preamble`` heads the text report
    only; the JSON and SARIF documents stay machine-clean."""
    if fmt == "json":
        return render_json(findings)
    if fmt == "sarif":
        return render_sarif(findings, rules, version, tool=tool)
    text = render_text(findings)
    return text if preamble is None else f"{preamble}\n{text}"
