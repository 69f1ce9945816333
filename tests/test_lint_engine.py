"""Engine-level tests: CLI exit codes, analyzer selection, JSON/SARIF."""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintEngine
from repro.lint.cli import main as lint_main
from repro.lint.flow import FLOW_RULES

# One violation of each shipped rule, one file per rule.
VIOLATIONS = {
    "det001.py": "import time\n\nSTAMP = time.time()\n",
    "det002.py": "import random\n\nVALUE = random.random()\n",
    "det003.py": "ORDER = list(set([3, 1, 2]))\n",
    "err001.py": (
        "try:\n    RESULT = 1\nexcept Exception:\n    pass\n"
    ),
    "dns001.py": 'MATCH = domain == "ns1.example.com"\n',
    "res001.py": "CLIENT = Resolver(network, roots)\n",
    "res002.py": (
        "for attempt in range(3):\n"
        "    try:\n"
        "        RESULT = fetch()\n"
        "    except TimeoutError:\n"
        "        clock.advance(2.0)\n"
        "        continue\n"
    ),
    # ARCH001 only fires inside a repro package tree, so this fixture
    # is nested under a synthetic repro/dns/.
    "repro/dns/arch001.py": "from ..net.network import Network\n",
    # DET004 only fires in epoch-scoped modules (repro/core/epoch*).
    "repro/core/epoch004.py": (
        "ROWS = [probe(d) for d in study.targets()]\n"
    ),
}


@pytest.fixture
def violation_tree(tmp_path: Path) -> Path:
    tree = tmp_path / "badsrc"
    tree.mkdir()
    for name, source in VIOLATIONS.items():
        target = tree / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
    return tree


def run_cli(*argv: str) -> tuple[int, str]:
    out = io.StringIO()
    status = lint_main(list(argv), out=out)
    return status, out.getvalue()


class TestFixtureTree:
    def test_each_rule_fires_exactly_once(self, violation_tree: Path):
        findings = LintEngine().lint_paths([violation_tree])
        fired = sorted(finding.rule_id for finding in findings)
        assert fired == sorted(rule.rule_id for rule in ALL_RULES)

    def test_cli_exits_nonzero_on_violations(self, violation_tree: Path):
        status, text = run_cli(str(violation_tree))
        assert status == 1
        assert f"{len(VIOLATIONS)} new finding(s)" in text

    def test_clean_tree_exits_zero(self, tmp_path: Path):
        (tmp_path / "ok.py").write_text("VALUE = 1\n", encoding="utf-8")
        status, text = run_cli(str(tmp_path))
        assert status == 0
        assert "0 new finding(s)" in text


class TestReporters:
    def test_json_schema(self, violation_tree: Path):
        status, text = run_cli(str(violation_tree), "--format", "json")
        assert status == 1
        payload = json.loads(text)
        assert payload["summary"] == {"new": len(VIOLATIONS)}
        first = payload["findings"][0]
        assert set(first) == {
            "rule",
            "severity",
            "path",
            "line",
            "column",
            "message",
            "snippet",
        }

    def test_sarif_smoke(self, violation_tree: Path):
        status, text = run_cli(str(violation_tree), "--format", "sarif")
        assert status == 1
        document = json.loads(text)
        assert document["version"] == "2.1.0"
        assert "sarif-schema-2.1.0" in document["$schema"]
        (run,) = document["runs"]
        driver = run["tool"]["driver"]
        assert driver["name"] == "reprolint"
        # The default run carries both analyzer families' metadata.
        assert {r["id"] for r in driver["rules"]} == {
            rule.rule_id for rule in ALL_RULES
        } | {rule.rule_id for rule in FLOW_RULES}
        assert len(run["results"]) == len(VIOLATIONS)
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1
        assert location["artifactLocation"]["uri"]


class TestAnalyzerSelector:
    FLOW_ONLY = (
        "import json\n"
        "import os\n"
        "\n"
        "def emit():\n"
        '    return json.dumps({"m": os.environ.get("M", "x")})\n'
    )

    def test_flow_selector_runs_only_flow_rules(self, tmp_path: Path):
        (tmp_path / "m.py").write_text(self.FLOW_ONLY, encoding="utf-8")
        status, text = run_cli(str(tmp_path), "--analyzer", "flow")
        assert status == 1
        assert "FLW003" in text

    def test_ast_selector_skips_flow_rules(self, tmp_path: Path):
        (tmp_path / "m.py").write_text(self.FLOW_ONLY, encoding="utf-8")
        status, text = run_cli(str(tmp_path), "--analyzer", "ast")
        assert status == 0
        assert "FLW" not in text

    def test_default_runs_both_families(self, tmp_path: Path):
        source = self.FLOW_ONLY + "\nimport time\nSTAMP = time.time()\n"
        (tmp_path / "m.py").write_text(source, encoding="utf-8")
        status, text = run_cli(str(tmp_path))
        assert status == 1
        assert "FLW003" in text and "DET001" in text

    def test_flow_findings_render_trace_in_text(self, tmp_path: Path):
        (tmp_path / "m.py").write_text(self.FLOW_ONLY, encoding="utf-8")
        _, text = run_cli(str(tmp_path), "--analyzer", "flow")
        assert "os.environ.get" in text  # source hop note
        assert "reaches serialized output" in text  # sink hop note

    def test_list_rules_covers_both_families(self):
        status, text = run_cli("--list-rules")
        assert status == 0
        assert "DET001" in text and "FLW001" in text and "FLW103" in text

    def test_list_rules_respects_selector(self):
        status, text = run_cli("--list-rules", "--analyzer", "flow")
        assert status == 0
        assert "FLW001" in text and "DET001" not in text


class TestCliPlumbing:
    def test_list_rules(self):
        status, text = run_cli("--list-rules")
        assert status == 0
        for rule in ALL_RULES:
            assert rule.rule_id in text

    def test_missing_path_is_usage_error(self, tmp_path: Path):
        status, text = run_cli(str(tmp_path / "nope"))
        assert status == 2
        assert "no such path" in text

    def test_repro_cli_lint_subcommand(self, violation_tree: Path):
        from repro.cli import main as repro_main

        out = io.StringIO()
        status = repro_main(
            ["lint", str(violation_tree)], out=out
        )
        assert status == 1
        assert "new finding(s)" in out.getvalue()
