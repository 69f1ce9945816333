"""CLI for ``repro servelint``.

Exit codes: 0 — analysis ran (findings describe the generated world,
they are not failures); 1 — ``--verify`` left a disagreement
unexplained; 2 — usage errors (argparse, an unknown ``--profiles``
name, ``--json-out`` without ``--verify``).
"""

from __future__ import annotations

import argparse

from ..cliargs import positive
from ..lint.output import FORMATS, render_report
from ..net.chaos import PROFILES
from ..worldgen.churn import world_at_epoch
from ..zonelint.analyzer import ZoneLinter
from .model import IDLE_PROFILE, SurvivabilityModel
from .rules import SV_RULES, findings
from .verify import oracle_json, render_oracle, verify_profile

__all__ = ["configure_parser", "run"]

_VERSION = "2.0.0"

_DEFAULT_PROFILES = "idle,outage,mixed"


def configure_parser(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--format",
        choices=FORMATS,
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--duration",
        type=positive,
        default=600.0,
        help="serve horizon in seconds the model predicts over",
    )
    parser.add_argument(
        "--qps",
        type=positive,
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
        "--json-out",
        default=None,
        metavar="PATH",
        help=(
            "write the --verify oracle report as JSON to PATH "
            "(needs --verify)"
        ),
    )


def run(args: argparse.Namespace, out) -> int:
    # Usage errors are reported before worldgen.
    if args.json_out is not None and not args.verify:
        print(
            "error: --json-out writes the --verify oracle report; "
            "add --verify",
            file=out,
        )
        return 2
    profiles = [p.strip() for p in args.profiles.split(",") if p.strip()]
    valid = (IDLE_PROFILE, *PROFILES)
    unknown = [p for p in profiles if p not in valid]
    if unknown:
        print(
            f"error: unknown profile(s) {', '.join(unknown)}; choose "
            f"from {', '.join(valid)}",
            file=out,
        )
        return 2

    world = world_at_epoch(args.seed, args.scale)
    targets = {name: truth.iso2 for name, truth in world.truths.items()}
    truths = ZoneLinter.for_world(world).analyze_all(targets)
    model = SurvivabilityModel.for_world(
        world, seed=args.seed, duration=args.duration
    )
    print(
        render_report(
            findings(model, truths),
            args.format,
            SV_RULES,
            _VERSION,
            tool="servelint",
            preamble=f"servelint: {len(truths)} domain(s) analyzed",
        ),
        file=out,
    )
    if not args.verify:
        return 0

    oracles = []
    for profile in profiles:
        oracle = verify_profile(
            args.seed,
            args.scale,
            profile,
            duration=args.duration,
            qps=args.qps,
        )
        oracles.append(oracle)
        print(render_oracle(oracle), file=out)
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(oracle_json(oracles))
        print(f"oracle report written to {args.json_out}", file=out)
    return 1 if any(o.unexplained for o in oracles) else 0
