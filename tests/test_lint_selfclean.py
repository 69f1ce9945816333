"""reprolint applied to this repository itself.

``src/`` must stay free of reprolint findings: every finding is either
fixed or carries an inline, justified ``# reprolint: disable=`` comment.
"""

from __future__ import annotations

import io
from pathlib import Path

from repro.lint import LintEngine
from repro.lint.cli import main as lint_main
from repro.lint.flow import analyze_paths as analyze_flow

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def test_src_tree_has_no_new_findings():
    findings = LintEngine().lint_paths([SRC], root=REPO_ROOT)
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"reprolint findings:\n{rendered}"


def test_flowlint_self_run_is_clean():
    # The interprocedural family holds on this repository too: every
    # flow finding is either fixed or carries an inline justification.
    findings = analyze_flow([SRC], root=REPO_ROOT)
    rendered = "\n".join(finding.render() for finding in findings)
    assert not findings, f"non-suppressed flowlint findings:\n{rendered}"


def test_cli_exits_zero_on_src():
    out = io.StringIO()
    status = lint_main([str(SRC)], out=out)
    assert status == 0, out.getvalue()
