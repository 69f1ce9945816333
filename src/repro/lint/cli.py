"""Command-line front end: ``python -m repro.lint`` and ``repro lint``.

Exit status: 0 when no non-baselined findings, 1 when new findings
exist, 2 on usage errors.  ``configure_parser`` is shared with the main
``repro`` CLI so both entry points accept identical options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, Any, List, Optional, Sequence

from .baseline import DEFAULT_BASELINE_NAME, Baseline
from .engine import LintEngine
from .findings import Finding
from .flow import FLOW_RULES, analyze_paths as analyze_flow
from .output import FORMATS, render_report

__all__ = [
    "build_parser",
    "configure_parser",
    "load_baseline",
    "run",
    "main",
    "write_baseline",
]

_VERSION = "1.1.0"

ANALYZERS = ("ast", "flow", "all")


def configure_parser(parser: argparse.ArgumentParser) -> None:
    """Attach reprolint's options to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        help=(
            "baseline file for grandfathered findings "
            f"(default: ./{DEFAULT_BASELINE_NAME} when present)"
        ),
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="re-generate the baseline from this run's findings and exit 0",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore any baseline file; every finding is treated as new",
    )
    parser.add_argument(
        "--analyzer",
        choices=ANALYZERS,
        default="all",
        help=(
            "which analyzer family to run: 'ast' (per-line syntactic "
            "rules), 'flow' (interprocedural dataflow/concurrency), or "
            "'all' (default)"
        ),
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help=(
            "drop baseline rows whose file no longer exists or whose "
            "fingerprinted line no longer appears, rewrite the file, "
            "and exit 0"
        ),
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "AST-based invariant checker: determinism, error hygiene, "
            "and DNS semantics"
        ),
    )
    configure_parser(parser)
    return parser


def _resolve_baseline_path(args: argparse.Namespace) -> Optional[Path]:
    if args.no_baseline:
        return None
    if args.baseline is not None:
        return Path(args.baseline)
    default = Path(DEFAULT_BASELINE_NAME)
    if default.exists() or args.write_baseline:
        return default
    return None


def load_baseline(path: Path, out: IO[str]) -> Optional[Baseline]:
    """Read the baseline at ``path`` (missing: empty).  An unreadable or
    malformed file is reported as ``error: …`` and yields ``None``,
    which every analyzer CLI returns as its usage-error exit 2."""
    try:
        return Baseline.load(path)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return None


def write_baseline(
    findings: Sequence[Finding], target: Path, out: IO[str]
) -> int:
    """Record ``findings`` as the new baseline at ``target``; exit 0."""
    Baseline.from_findings(findings).dump(target)
    print(
        f"baseline written: {target} ({len(findings)} finding(s))",
        file=out,
    )
    return 0


def _selected_rules(engine: LintEngine, analyzer: str) -> List[Any]:
    """Rule descriptors for reporting, per analyzer selection."""
    rules: List[Any] = []
    if analyzer in ("ast", "all"):
        rules.extend(engine.rules)
    if analyzer in ("flow", "all"):
        rules.extend(FLOW_RULES)
    return rules


def run(args: argparse.Namespace, out: IO[str]) -> int:
    """Execute a lint run described by parsed arguments."""
    engine = LintEngine()
    analyzer = getattr(args, "analyzer", "all")
    if args.list_rules:
        for rule in _selected_rules(engine, analyzer):
            print(
                f"{rule.rule_id}  [{rule.severity.value}]  {rule.description}",
                file=out,
            )
        return 0

    if getattr(args, "prune_baseline", False):
        target = (
            Path(args.baseline)
            if args.baseline is not None
            else Path(DEFAULT_BASELINE_NAME)
        )
        baseline = load_baseline(target, out)
        if baseline is None:
            return 2
        pruned, dropped = baseline.prune()
        pruned.dump(target)
        for rule, path, shown in dropped:
            print(f"pruned: [{rule}] {path}: {shown!r}", file=out)
        print(
            f"baseline pruned: {target} "
            f"({len(dropped)} row(s) dropped, {len(pruned)} kept)",
            file=out,
        )
        return 0

    paths: List[Path] = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        shown = ", ".join(str(p) for p in missing)
        print(f"error: no such path(s): {shown}", file=out)
        return 2

    findings: List[Finding] = []
    if analyzer in ("ast", "all"):
        findings.extend(engine.lint_paths(paths))
    if analyzer in ("flow", "all"):
        findings.extend(analyze_flow(paths))
    findings.sort()
    baseline_path = _resolve_baseline_path(args)

    if args.write_baseline:
        target = baseline_path if baseline_path is not None else Path(
            DEFAULT_BASELINE_NAME
        )
        return write_baseline(findings, target, out)

    baseline = (
        load_baseline(baseline_path, out)
        if baseline_path is not None
        else Baseline()
    )
    if baseline is None:
        return 2
    match = baseline.match(findings)
    print(
        render_report(
            match,
            args.format,
            _selected_rules(engine, analyzer),
            _VERSION,
            tool="reprolint",
        ),
        file=out,
    )
    return 1 if match.new else 0


def main(
    argv: Optional[Sequence[str]] = None, out: Optional[IO[str]] = None
) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args, out if out is not None else sys.stdout)
    except BrokenPipeError:
        # Report truncated by a closed pipe (e.g. `... | head`); the
        # findings already shown are all the reader asked for.
        return 1
