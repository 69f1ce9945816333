"""SARIF 2.1.0 schema-shape audit, shared by every analyzer family.

``repro.lint.output.render_sarif`` is the single renderer behind
``reprolint``, ``zonelint`` and ``servelint``; this test pins the
document shape GitHub code scanning requires — for *all three* tools —
so no family can drift away from the interchange contract without
failing here.
"""

from __future__ import annotations

import json

from repro.lint import ALL_RULES, LintEngine
from repro.lint.findings import Finding, Severity
from repro.lint.output import render_sarif
from repro.servelint import RULES_BY_ID as SV_BY_ID, SV_RULES
from repro.zonelint import RULES_BY_ID, ZL_RULES

_LEVELS = {"error", "warning", "note"}


def assert_sarif_shape(document, tool_name, rules):
    assert document["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in document["$schema"]
    (run,) = document["runs"]

    driver = run["tool"]["driver"]
    assert driver["name"] == tool_name
    assert driver["version"]
    assert driver["informationUri"].startswith("https://")
    assert {r["id"] for r in driver["rules"]} == {
        rule.rule_id for rule in rules
    }
    for rule in driver["rules"]:
        assert rule["shortDescription"]["text"]
        assert rule["defaultConfiguration"]["level"] in _LEVELS

    assert run["results"]
    known_ids = {rule.rule_id for rule in rules}
    for result in run["results"]:
        assert result["ruleId"] in known_ids
        assert result["level"] in _LEVELS
        assert result["message"]["text"]
        (location,) = result["locations"]
        physical = location["physicalLocation"]
        assert physical["artifactLocation"]["uri"]
        assert physical["artifactLocation"]["uriBaseId"] == "SRCROOT"
        assert physical["region"]["startLine"] >= 1
        assert physical["region"]["startColumn"] >= 1


def test_reprolint_sarif_shape():
    findings = LintEngine().lint_source(
        "import time\nSTAMP = time.time()\n", "clock.py"
    )
    assert findings
    document = json.loads(
        render_sarif(findings, ALL_RULES, "0.0-test", tool="reprolint")
    )
    assert_sarif_shape(document, "reprolint", ALL_RULES)


def test_zonelint_sarif_shape():
    findings = [
        Finding(
            path="world/example.gov.xx.",
            line=1,
            column=1,
            rule_id=rule_id,
            severity=RULES_BY_ID[rule_id].severity,
            message=f"synthetic {rule_id} smell",
            snippet=f"{rule_id} example.gov.xx.",
        )
        for rule_id in sorted(RULES_BY_ID)
    ]
    document = json.loads(
        render_sarif(findings, ZL_RULES, "1.0.0", tool="zonelint")
    )
    assert_sarif_shape(document, "zonelint", ZL_RULES)
    # The virtual world/ paths survive the renderer untouched.
    uris = {
        result["locations"][0]["physicalLocation"]["artifactLocation"][
            "uri"
        ]
        for result in document["runs"][0]["results"]
    }
    assert uris == {"world/example.gov.xx."}


def test_servelint_sarif_shape():
    findings = [
        Finding(
            path=(
                "world/serving-config"
                if rule_id in ("SV006", "SV008")
                else "world/example.gov.xx."
            ),
            line=1,
            column=1,
            rule_id=rule_id,
            severity=SV_BY_ID[rule_id].severity,
            message=f"synthetic {rule_id} degradation",
            snippet=f"{rule_id} example.gov.xx.",
        )
        for rule_id in sorted(SV_BY_ID)
    ]
    document = json.loads(
        render_sarif(findings, SV_RULES, "1.0.0", tool="servelint")
    )
    assert_sarif_shape(document, "servelint", SV_RULES)
    # Every SV rule appears once; both virtual path anchors survive.
    results = document["runs"][0]["results"]
    assert sorted(r["ruleId"] for r in results) == sorted(SV_BY_ID)
    uris = {
        result["locations"][0]["physicalLocation"]["artifactLocation"][
            "uri"
        ]
        for result in results
    }
    assert uris == {"world/example.gov.xx.", "world/serving-config"}


def test_servelint_rule_severity_tiers():
    # Going-dark verdicts are errors, degraded-service verdicts are
    # warnings, fleet-shape observations are notes.
    by_tier = {
        Severity.ERROR: {"SV001", "SV003"},
        Severity.WARNING: {"SV002", "SV004", "SV005", "SV007"},
        Severity.NOTE: {"SV006", "SV008"},
    }
    for severity, expected in by_tier.items():
        actual = {
            rule.rule_id
            for rule in SV_RULES
            if rule.severity is severity
        }
        assert actual == expected


def test_single_location_findings_omit_code_flows():
    findings = LintEngine().lint_source(
        "import time\nSTAMP = time.time()\n", "clock.py"
    )
    document = json.loads(
        render_sarif(findings, ALL_RULES, "1.1.0", tool="reprolint")
    )
    for result in document["runs"][0]["results"]:
        assert "codeFlows" not in result
        assert "relatedLocations" not in result


def test_zonelint_rules_have_error_severity_for_defects():
    # The severity tiering the SARIF levels derive from: delegation
    # defects and hijack exposure are errors, Figure-13 deviations are
    # warnings, replication smells are notes.
    by_tier = {
        Severity.ERROR: {"ZL001", "ZL002", "ZL003", "ZL004", "ZL020"},
        Severity.WARNING: {
            "ZL010", "ZL011", "ZL012", "ZL013", "ZL014", "ZL015"
        },
        Severity.NOTE: {"ZL030", "ZL031", "ZL032"},
    }
    for severity, expected in by_tier.items():
        actual = {
            rule.rule_id
            for rule in ZL_RULES
            if rule.severity is severity
        }
        assert actual == expected
