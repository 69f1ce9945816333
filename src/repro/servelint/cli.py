"""CLI for ``repro servelint``.

Exit codes: 0 — analysis ran (and, with ``--baseline``, no finding
escaped the ratchet); 1 — a finding not in the baseline, or
``--verify`` left a disagreement unexplained; 2 — usage errors
(argparse, an unreadable or malformed ``--allow`` or ``--baseline``
file).
"""

from __future__ import annotations

import argparse
from pathlib import Path

from ..lint.baseline import Baseline
from ..lint.cli import load_baseline, write_baseline
from ..lint.output import FORMATS, render_report
from ..worldgen.churn import world_at_epoch
from .analyzer import ServeLinter
from .rules import SV_RULES
from .verify import load_allowlist, oracle_json, render_oracle, verify_profile

__all__ = ["configure_parser", "run"]

_VERSION = "1.0.0"

_DEFAULT_PROFILES = "idle,outage,mixed"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=None,
        metavar="PATH",
        help="suppress findings recorded in this baseline file",
    )
    parser.add_argument(
        "--write-baseline",
        default=None,
        metavar="PATH",
        help="write current findings as the new baseline and exit",
    )
    parser.add_argument(
        "--duration",
        type=float,
        default=600.0,
        help="serve horizon in seconds the model predicts over",
    )
    parser.add_argument(
        "--qps",
        type=float,
        default=20.0,
        help="mean workload arrival rate for --verify runs",
    )
    parser.add_argument(
        "--verify",
        action="store_true",
        help=(
            "run the serving pipeline per profile and classify every "
            "static-vs-observed disagreement (exit 1 on unexplained)"
        ),
    )
    parser.add_argument(
        "--profiles",
        default=_DEFAULT_PROFILES,
        help=(
            "comma-separated chaos profiles for --verify "
            f"(default: {_DEFAULT_PROFILES})"
        ),
    )
    parser.add_argument(
        "--allow",
        default=None,
        metavar="PATH",
        help="JSON allowlist of vouched {profile, domain, kind} triples",
    )
    parser.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="write the --verify oracle report as JSON to PATH",
    )


def run(args: argparse.Namespace, out) -> int:
    # Read every input file first: a bad one is a usage error (exit 2)
    # reported before any analysis runs.
    try:
        allow = load_allowlist(args.allow)
    except ValueError as exc:
        print(f"error: {exc}", file=out)
        return 2
    baseline = (
        load_baseline(Path(args.baseline), out)
        if args.baseline is not None
        else Baseline()
    )
    if baseline is None:
        return 2

    world = world_at_epoch(args.seed, args.scale)
    linter = ServeLinter.for_world(
        world, seed=args.seed, duration=args.duration
    )
    targets = {
        name: truth.iso2 for name, truth in world.truths.items()
    }
    table = linter.zones.analyze_all(targets)
    findings = linter.findings(table)

    if args.write_baseline is not None:
        return write_baseline(findings, Path(args.write_baseline), out)
    match = baseline.match(findings)
    print(
        render_report(
            match,
            args.format,
            SV_RULES,
            _VERSION,
            tool="servelint",
            preamble=f"servelint: {len(table)} domain(s) analyzed",
        ),
        file=out,
    )

    ratchet_failed = args.baseline is not None and bool(match.new)

    if not args.verify:
        return 1 if ratchet_failed else 0

    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    oracles = []
    for profile in profiles:
        oracle = verify_profile(
            args.seed,
            args.scale,
            profile,
            duration=args.duration,
            qps=args.qps,
            allow=allow,
        )
        oracles.append(oracle)
        print(render_oracle(oracle), file=out)
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(oracle_json(oracles))
        print(f"oracle report written to {args.json_out}", file=out)
    failed = ratchet_failed or any(o.unexplained for o in oracles)
    return 1 if failed else 0
