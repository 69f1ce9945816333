"""reprolint applied to this repository itself.

``src/`` must stay free of reprolint findings: every finding is either
fixed or carries an inline, justified ``# reprolint: disable=`` comment.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.lint import LintEngine
from repro.lint.engine import default_rules
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def test_src_tree_has_no_new_findings():
    findings = LintEngine().lint_paths([SRC], root=REPO_ROOT)
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"reprolint findings:\n{rendered}"


def test_flw_rules_self_run_is_clean():
    # The generator, seed and freeze rules that replaced flowlint hold
    # on this repository on their own: each is fixed or justified inline.
    flw_rules = [
        rule for rule in default_rules() if rule.rule_id.startswith("FLW")
    ]
    assert [rule.rule_id for rule in flw_rules] == [
        "FLW101", "FLW102", "FLW103",
    ]
    findings = LintEngine(flw_rules).lint_paths([SRC], root=REPO_ROOT)
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"FLW findings:\n{rendered}"


def test_cli_exits_zero_on_src():
    out = io.StringIO()
    status = lint_main([str(SRC)], out=out)
    assert status == 0, out.getvalue()
