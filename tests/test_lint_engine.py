"""Engine-level tests: CLI exit codes, JSON/SARIF, and the analyzer's
own determinism."""

from __future__ import annotations

import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.lint import ALL_RULES, LintEngine
from repro.lint.cli import main as lint_main

REPO_ROOT = Path(__file__).resolve().parents[1]

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
    "det005.py": "import os\n\nHOME = os.getenv('HOME')\n",
    "flw101.py": (
        "def task(state):\n"
        "    global SEEN\n"
        "    yield state\n"
        "    SEEN = state\n"
    ),
    "flw102.py": "import random\n\nRNG = random.Random(7)\n",
    "flw103.py": (
        "def warm(cache):\n    cache.freeze()\n    cache.flush()\n"
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
        assert {r["id"] for r in driver["rules"]} == {
            rule.rule_id for rule in ALL_RULES
        }
        assert len(run["results"]) == len(VIOLATIONS)
        result = run["results"][0]
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1
        assert location["artifactLocation"]["uri"]


ENV_TO_JSON = (
    "import json\n"
    "import os\n"
    "\n"
    "def emit():\n"
    '    return json.dumps({"m": os.environ.get("M", "x")})\n'
)


class TestCliPlumbing:
    def test_list_rules(self):
        status, text = run_cli("--list-rules")
        assert status == 0
        for rule in ALL_RULES:
            assert rule.rule_id in text

    def test_list_rules_names_exactly_the_rule_pack(self):
        status, text = run_cli("--list-rules")
        assert status == 0
        listed = [line.split()[0] for line in text.splitlines()]
        assert listed == [
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "ERR001", "DNS001", "RES001", "RES002", "ARCH001",
            "FLW101", "FLW102", "FLW103",
        ]

    def test_analyzer_option_is_a_usage_error(self, tmp_path: Path, capsys):
        # One engine runs every rule; the old family selector is gone.
        with pytest.raises(SystemExit) as exit_info:
            run_cli(str(tmp_path), "--analyzer", "flow")
        assert exit_info.value.code == 2
        assert "--analyzer" in capsys.readouterr().err

    def test_list_rules_rejects_analyzer_option(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            run_cli("--list-rules", "--analyzer", "flow")
        assert exit_info.value.code == 2
        assert "--analyzer" in capsys.readouterr().err

    def test_environment_read_fires_det005_without_selector(
        self, tmp_path: Path
    ):
        # flowlint flagged this env-to-JSON flow as FLW003, and only
        # under ``--analyzer flow`` or ``all``; DET005 flags the read.
        (tmp_path / "m.py").write_text(ENV_TO_JSON, encoding="utf-8")
        status, text = run_cli(str(tmp_path))
        assert status == 1
        assert "DET005" in text
        assert "m.py:5:" in text

    def test_default_run_reports_det_and_flw_rules(self, tmp_path: Path):
        source = (
            ENV_TO_JSON
            + "\nimport random\nimport time\n"
            + "STAMP = time.time()\nRNG = random.Random(3)\n"
        )
        (tmp_path / "m.py").write_text(source, encoding="utf-8")
        status, text = run_cli(str(tmp_path))
        assert status == 1
        assert "DET001" in text and "DET005" in text and "FLW102" in text

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


# A tree that fires several rules, three per-function DET003 names in
# one function among them: the set tracking is the code most likely to
# leak hash order into a report.
NOISY_TREE = {
    "pkg/__init__.py": "",
    "pkg/a.py": """
        import json
        import os
        import time

        from .b import digest_of

        def emit_env():
            return json.dumps({"mode": os.environ.get("MODE", "x")})

        def emit_clock():
            return digest_of(str(time.time()))

        def emit_order(names, extra):
            first = set(names)
            second = {n.upper() for n in extra}
            third = frozenset(first | second)
            return json.dumps([list(first), tuple(second), ",".join(third)])
        """,
    "pkg/b.py": """
        import hashlib

        def digest_of(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        class Task:
            def run(self):
                yield ("query", 1)
                self.done = id(self)
        """,
}


def _lint_json(
    target: Path, cwd: Path, hash_seed: str
) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", str(target), "--format", "json"],
        env=env,
        cwd=str(cwd),
        capture_output=True,
        check=False,
    )


class TestAnalyzerDeterminism:
    """PYTHONHASHSEED randomizes str hashing, and with it every set and
    dict the rules build.  The report must not care."""

    def test_output_byte_identical_across_hashseed(self, tmp_path: Path):
        tree = tmp_path / "tree"
        for path, source in NOISY_TREE.items():
            (tree / path).parent.mkdir(parents=True, exist_ok=True)
            (tree / path).write_text(textwrap.dedent(source), encoding="utf-8")
        outputs = set()
        for seed in ("0", "1", "4242"):
            result = _lint_json(tree, tmp_path, seed)
            assert result.returncode == 1, result.stderr.decode()
            outputs.add(result.stdout)
        (output,) = outputs
        fired = [row["rule"] for row in json.loads(output)["findings"]]
        assert sorted(fired) == [
            "DET001", "DET003", "DET003", "DET003", "DET005", "DET005",
            "FLW101",
        ]

    def test_repeated_runs_are_identical(self):
        sources = [
            (path, textwrap.dedent(source))
            for path, source in NOISY_TREE.items()
        ]

        def render(order):
            engine = LintEngine()
            findings = sorted(
                finding
                for path, source in order
                for finding in engine.lint_source(source, path)
            )
            return [finding.render() for finding in findings]

        first = render(sources)
        assert first and first == render(list(reversed(sources)))

    def test_self_run_byte_identical_across_hashseed(self):
        outputs = set()
        for seed in ("0", "1", "4242"):
            result = _lint_json(REPO_ROOT / "src", REPO_ROOT, seed)
            assert result.returncode == 0, result.stdout.decode()
            outputs.add(result.stdout)
        assert len(outputs) == 1
