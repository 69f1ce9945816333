"""Unit tests for flowlint's pipeline stages, plus the determinism
property the analyzer demands of itself: byte-identical output across
repeated runs and across PYTHONHASHSEED values."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.harvest import harvest_module, module_name_for
from repro.lint.flow.model import ParamAtom, SourceAtom
from repro.lint.flow import analyze_sources
from repro.lint.flow.taint import TaintAnalyzer

REPO_ROOT = Path(__file__).resolve().parents[1]


def harvest(path, source, modname=None):
    return harvest_module(
        path,
        modname or module_name_for(path),
        textwrap.dedent(source),
        is_package=path.endswith("__init__.py"),
    )


def build_graph(*files):
    modules, summaries = [], []
    for path, source in files:
        info, funcs = harvest(path, source)
        modules.append(info)
        summaries.extend(funcs)
    return CallGraph(modules, summaries)


# ----------------------------------------------------------------------
# Module naming and import absolutization
# ----------------------------------------------------------------------
def test_module_name_for_repro_tree():
    assert module_name_for("src/repro/core/shard.py") == "repro.core.shard"
    assert module_name_for("src/repro/core/__init__.py") == "repro.core"
    assert module_name_for("pkg/mod.py") == "pkg.mod"
    assert module_name_for("README.md") is None


def test_relative_imports_absolutize_against_module():
    info, _ = harvest(
        "pkg/sub/mod.py",
        """
        from ..top import helper
        from . import sibling
        from .other import thing as alias
        """,
    )
    assert info.imports["helper"] == "pkg.top.helper"
    assert info.imports["sibling"] == "pkg.sub.sibling"
    assert info.imports["alias"] == "pkg.sub.other.thing"


def test_package_init_relative_import_names_the_package():
    info, _ = harvest(
        "pkg/__init__.py",
        """
        from .core import build
        """,
    )
    assert info.imports["build"] == "pkg.core.build"


# ----------------------------------------------------------------------
# Harvested summaries
# ----------------------------------------------------------------------
def test_summary_records_source_atoms_in_returns():
    _, summaries = harvest(
        "pkg/m.py",
        """
        import time

        def now():
            return time.time()
        """,
    )
    (summary,) = summaries
    assert summary.key == "pkg.m:now"
    sources = [a for a in summary.returns if isinstance(a, SourceAtom)]
    assert sources and sources[0].kind == "clock"


def test_summary_records_param_passthrough_and_generator_flag():
    _, summaries = harvest(
        "pkg/m.py",
        """
        def identity(value):
            return value

        def ticker():
            yield 1
        """,
    )
    by_name = {s.qualname: s for s in summaries}
    assert ParamAtom(0) in by_name["identity"].returns
    assert by_name["ticker"].is_generator
    assert not by_name["identity"].is_generator


def test_self_call_hint_is_qualified_with_the_class():
    _, summaries = harvest(
        "pkg/m.py",
        """
        class Walker:
            def step(self):
                return self.advance()

            def advance(self):
                return 1
        """,
    )
    step = next(s for s in summaries if s.qualname == "Walker.step")
    (record,) = step.calls
    assert record.callee == "pkg.m.Walker.advance"


# ----------------------------------------------------------------------
# Call-graph resolution
# ----------------------------------------------------------------------
def test_cross_module_function_resolution():
    graph = build_graph(
        (
            "pkg/a.py",
            """
            from .b import helper

            def caller():
                return helper()
            """,
        ),
        (
            "pkg/b.py",
            """
            def helper():
                return 1
            """,
        ),
    )
    assert graph.resolve_hint("pkg.b.helper") == "pkg.b:helper"
    assert graph.callees_of("pkg.a:caller") == ("pkg.b:helper",)


def test_constructor_resolves_to_init():
    graph = build_graph(
        (
            "pkg/m.py",
            """
            class Widget:
                def __init__(self, size):
                    self.size = size

            def build():
                return Widget(3)
            """,
        )
    )
    assert graph.resolve_hint("pkg.m.Widget") == "pkg.m:Widget.__init__"


def test_reexport_falls_back_to_unique_qualname():
    # `from pkg import Widget` resolves the hint to pkg.Widget even
    # though the class lives in pkg.inner; the unique-tail fallback
    # bridges the __init__ re-export.
    graph = build_graph(
        (
            "pkg/__init__.py",
            """
            from .inner import Widget
            """,
        ),
        (
            "pkg/inner.py",
            """
            class Widget:
                def render(self):
                    return "w"
            """,
        ),
        (
            "app/use.py",
            """
            from pkg import Widget

            def show(w):
                return w.render()
            """,
        ),
    )
    assert (
        graph.resolve_hint("pkg.Widget.render") == "pkg.inner:Widget.render"
    )


def test_unknown_hint_is_unresolved():
    graph = build_graph(("pkg/m.py", "def f():\n    return 1\n"))
    assert graph.resolve_hint("json.dumps") is None
    assert graph.resolve_hint(None) is None


def test_reachability_follows_edges_transitively():
    graph = build_graph(
        (
            "pkg/m.py",
            """
            def _shard_worker():
                return middle()

            def middle():
                return leaf()

            def leaf():
                return 1

            def unrelated():
                return 2
            """,
        )
    )
    reachable = graph.reachable_from(["_shard_worker"])
    assert reachable == {"pkg.m:_shard_worker", "pkg.m:middle", "pkg.m:leaf"}


# ----------------------------------------------------------------------
# Taint summaries
# ----------------------------------------------------------------------
def test_sink_param_summary_composes_across_levels():
    graph = build_graph(
        (
            "pkg/m.py",
            """
            import hashlib

            def inner(data):
                return hashlib.sha256(data)

            def middle(data):
                return inner(data)
            """,
        )
    )
    analyzer = TaintAnalyzer(graph)
    analyzer.run()
    # Both levels expose "param 0 reaches a digest" to their callers.
    for key in ("pkg.m:inner", "pkg.m:middle"):
        flows = analyzer.table[key].sink_flows
        assert 0 in flows
        assert {label for label, _, _ in flows[0]} == {"digest input"}


def test_return_taint_propagates_through_wrappers():
    graph = build_graph(
        (
            "pkg/m.py",
            """
            import time

            def now():
                return time.time()

            def wrapped():
                return now()
            """,
        )
    )
    analyzer = TaintAnalyzer(graph)
    analyzer.run()
    kinds = {tv[0] for tv in analyzer.table["pkg.m:wrapped"].ret_tvs}
    assert kinds == {"clock"}


def test_cycle_does_not_diverge():
    graph = build_graph(
        (
            "pkg/m.py",
            """
            import json
            import time

            def ping(depth):
                if depth:
                    return pong(depth - 1)
                return time.time()

            def pong(depth):
                return ping(depth)

            def emit():
                return json.dumps(ping(3))
            """,
        )
    )
    findings = TaintAnalyzer(graph).run()
    assert [f.rule_id for f in findings] == ["FLW001"]


# ----------------------------------------------------------------------
# Determinism of the analyzer itself
# ----------------------------------------------------------------------
NOISY_TREE = [
    (
        "pkg/a.py",
        """
        import json
        import os
        import time

        from .b import digest_of

        def emit_env():
            return json.dumps({"mode": os.environ.get("MODE", "x")})

        def emit_clock():
            return digest_of(str(time.time()))

        def emit_order(names):
            return json.dumps(list(set(names)))
        """,
    ),
    (
        "pkg/b.py",
        """
        import hashlib

        def digest_of(text):
            return hashlib.sha256(text.encode("utf-8")).hexdigest()

        class Task:
            def run(self):
                yield ("query", 1)
                self.done = True
        """,
    ),
]


def render_all(findings):
    return "\n".join(
        f.render() + "|" + ";".join(h.note for h in f.trace)
        for f in findings
    )


def test_repeated_runs_are_identical():
    first = render_all(
        analyze_sources(
            [(p, textwrap.dedent(s)) for p, s in NOISY_TREE]
        )
    )
    second = render_all(
        analyze_sources(
            [(p, textwrap.dedent(s)) for p, s in reversed(NOISY_TREE)]
        )
    )
    assert first and first == second


def _run_flow_cli(tmp_path: Path, hash_seed: str) -> bytes:
    tree = tmp_path / "tree"
    if not tree.exists():
        tree.mkdir()
        pkg = tree / "pkg"
        pkg.mkdir()
        (pkg / "__init__.py").write_text("", encoding="utf-8")
        for path, source in NOISY_TREE:
            (tree / path).write_text(
                textwrap.dedent(source), encoding="utf-8"
            )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.lint",
            str(tree),
            "--analyzer",
            "flow",
            "--format",
            "json",
        ],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        check=False,
    )
    assert result.returncode == 1, result.stderr.decode()
    return result.stdout


def test_output_byte_identical_across_hashseed(tmp_path: Path):
    """PYTHONHASHSEED randomizes str hashing — and therefore every
    set/dict iteration the analyzer does internally.  The report must
    not care."""
    outputs = {
        _run_flow_cli(tmp_path, seed) for seed in ("0", "1", "4242")
    }
    assert len(outputs) == 1
    assert b"FLW001" in next(iter(outputs))


def test_self_run_byte_identical_across_hashseed():
    """The whole-package self-run is the heaviest set/dict workout the
    analyzer gets; it must serialize identically under different hash
    seeds."""
    outputs = set()
    for seed in ("0", "7"):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = seed
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        result = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro.lint",
                "src",
                "--analyzer",
                "flow",
                "--format",
                "json",
            ],
            env=env,
            cwd=str(REPO_ROOT),
            capture_output=True,
            check=False,
        )
        assert result.returncode == 0, result.stdout.decode()
        outputs.add(result.stdout)
    assert len(outputs) == 1
