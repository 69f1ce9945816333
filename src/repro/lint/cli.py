"""Command-line front end: ``python -m repro.lint`` and ``repro lint``.

Exit status: 0 when there are no findings, 1 when any finding exists,
2 on usage errors.  A finding is either fixed or carries an inline,
justified ``# reprolint: disable=RULE`` comment; there is no other way
to accept one.  ``configure_parser`` is shared with the main
``repro`` CLI so both entry points accept identical options.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import IO, List, Optional, Sequence

from .engine import LintEngine
from .output import FORMATS, render_report

__all__ = ["build_parser", "configure_parser", "run", "main"]

_VERSION = "2.0.0"


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
        "--list-rules",
        action="store_true",
        help="print the rule pack and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "AST-based invariant checker: determinism, error hygiene, "
            "DNS semantics and task concurrency"
        ),
    )
    configure_parser(parser)
    return parser


def run(args: argparse.Namespace, out: IO[str]) -> int:
    """Execute a lint run described by parsed arguments."""
    engine = LintEngine()
    if args.list_rules:
        for rule in engine.rules:
            print(
                f"{rule.rule_id}  [{rule.severity.value}]  {rule.description}",
                file=out,
            )
        return 0

    paths: List[Path] = [Path(p) for p in args.paths]
    missing = [p for p in paths if not p.exists()]
    if missing:
        shown = ", ".join(str(p) for p in missing)
        print(f"error: no such path(s): {shown}", file=out)
        return 2

    findings = engine.lint_paths(paths)
    print(
        render_report(
            findings, args.format, engine.rules, _VERSION, tool="reprolint"
        ),
        file=out,
    )
    return 1 if findings else 0


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
