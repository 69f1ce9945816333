"""CLI for ``repro zonelint``.

Exit codes: 0 — analysis ran (findings are expected properties of the
generated world, not failures); 1 — ``--verify`` found a disagreement
between the static analysis and the generator's fault plans; 2 —
usage errors (argparse).
"""

from __future__ import annotations

import argparse

from ..lint.baseline import BaselineMatch
from ..lint.output import FORMATS, render_report
from ..worldgen.churn import world_at_epoch
from .analyzer import ZoneLinter
from .smells import ZL_RULES
from .verify import verify_world

__all__ = ["configure_parser", "run"]

_VERSION = "1.0.0"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "differentially verify the static analysis against the "
            "generator's applied fault plans (exit 1 on any mismatch)"
        ),
    )


def run(args: argparse.Namespace, out) -> int:
    world = world_at_epoch(args.seed, args.scale)
    linter = ZoneLinter.for_world(world)
    targets = {
        name: truth.iso2 for name, truth in world.truths.items()
    }
    table = linter.analyze_all(targets)
    findings = linter.findings(table)
    print(
        render_report(
            BaselineMatch(new=findings),
            args.format,
            ZL_RULES,
            _VERSION,
            tool="zonelint",
            preamble=f"zonelint: {len(table)} domain(s) analyzed",
        ),
        file=out,
    )

    if not args.verify:
        return 0
    mismatches = verify_world(world, table, linter)
    for mismatch in mismatches:
        print(mismatch.render(), file=out)
    print(
        f"verify: {len(mismatches)} plan-recovery mismatch(es) over "
        f"{len(table)} domain(s)",
        file=out,
    )
    return 1 if mismatches else 0
