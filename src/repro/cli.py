"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``headline``   run the study, print headline findings vs the paper
``paperkit``   regenerate every §IV table/figure into an output directory
``audit``      per-country audit (defects, inconsistency, hijack exposure)
``hijackscan`` list registrable nameserver domains with prices
``remediate``  apply the §V-B toolbox and report before/after
``disclose``   responsible-disclosure notifications per operator
``lint``       run reprolint, the AST-based invariant checker
``zonelint``   statically analyze the generated world's delegation graph
``servelint``  static cache-survivability analysis of the serving layer
``oracle``     differentially verify the campaign against zonelint truth
``campaign``   run the probe campaign with chaos/journal/resume controls
``bench``      run the probe benchmark suite (writes BENCH_probe.json)
``longitudinal`` run churn epochs with change-detection-scoped re-probing

Common options: ``--seed`` and ``--scale`` select the deterministic
world; everything else derives from them.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Callable, Optional, Sequence

from .core.study import GovernmentDnsStudy
from .lint import cli as lint_cli
from .net.chaos import PROFILES as _ORACLE_CHAOS_PROFILES
from .servelint import cli as servelint_cli
from .zonelint import cli as zonelint_cli
from .report.paperkit import ARTIFACTS, export_all
from .report.tables import format_count, format_percent, render_table
from .worldgen.churn import world_at_epoch

__all__ = ["main", "build_parser"]


def _parse_shards(value: str) -> int:
    """argparse ``type=`` for every ``--shards`` option: a positive
    worker count, or ``auto`` for the CPU count."""
    if value == "auto":
        return os.cpu_count() or 1
    try:
        shards = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"must be an integer or 'auto', got {value!r}"
        ) from None
    if shards < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {shards}")
    return shards


def _at_least(minimum: int) -> Callable[[str], int]:
    """argparse ``type=`` for an integer count of at least ``minimum``,
    so a count that would make a gate vacuous is a usage error."""

    def parse(value: str) -> int:
        try:
            count = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"must be an integer, got {value!r}"
            ) from None
        if count < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {count}"
            )
        return count

    return parse


def _positive(value: str) -> float:
    """argparse ``type=`` for a positive, finite number (a scale, a
    duration, a rate), so a value no run can use fails before worldgen."""
    try:
        number = float(value)
    except ValueError:
        number = math.nan
    if not 0 < number < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be a positive finite number, got {value!r}"
        )
    return number


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'A Comprehensive, Longitudinal Study of "
            "Government DNS Deployment at Global Scale' (DSN 2022)"
        ),
    )
    parser.add_argument("--seed", type=int, default=7, help="world seed")
    parser.add_argument(
        "--scale",
        type=_positive,
        default=0.02,
        help="world size relative to the paper's 147k targets",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    headline = sub.add_parser("headline", help="study headline vs the paper")
    headline.set_defaults(run=_cmd_headline)

    kit = sub.add_parser("paperkit", help="export every table/figure")
    kit.add_argument("outdir", help="directory for .txt/.csv artifacts")
    kit.set_defaults(run=_cmd_paperkit)

    audit = sub.add_parser("audit", help="audit one country")
    audit.add_argument("iso2", help="ISO-3166 alpha-2 code, e.g. TR")
    audit.set_defaults(run=_cmd_audit)

    hijackscan = sub.add_parser(
        "hijackscan", help="registrable nameserver domains"
    )
    hijackscan.set_defaults(run=_cmd_hijackscan)

    remediate = sub.add_parser(
        "remediate", help="apply §V-B remedies, re-measure"
    )
    remediate.set_defaults(run=_cmd_remediate)

    disclose = sub.add_parser(
        "disclose", help="render responsible-disclosure notifications"
    )
    disclose.add_argument(
        "iso2", nargs="?", default=None,
        help="country to render (default: list all affected)",
    )
    disclose.set_defaults(run=_cmd_disclose)

    lint = sub.add_parser(
        "lint", help="check determinism/error-hygiene/DNS-semantics invariants"
    )
    lint_cli.configure_parser(lint)
    lint.set_defaults(run=lint_cli.run)

    zonelint = sub.add_parser(
        "zonelint",
        help=(
            "statically analyze the generated world's delegation graph "
            "(no simulated queries)"
        ),
    )
    zonelint_cli.configure_parser(zonelint)
    zonelint.set_defaults(run=zonelint_cli.run)

    servelint = sub.add_parser(
        "servelint",
        help=(
            "statically analyze cache survivability of the serving "
            "layer under the committed chaos profiles"
        ),
    )
    servelint_cli.configure_parser(servelint)
    servelint.set_defaults(run=servelint_cli.run)

    oracle = sub.add_parser(
        "oracle",
        help=(
            "differentially verify the active campaign against "
            "zonelint's static ground truth"
        ),
    )
    oracle.add_argument(
        "--modes",
        default="serial,concurrent,chaos",
        help=(
            "comma-separated campaign modes to verify: serial, "
            "concurrent, chaos, sharded (default: serial,concurrent,chaos)"
        ),
    )
    oracle.add_argument(
        "--chaos",
        choices=_ORACLE_CHAOS_PROFILES,
        default="mixed",
        help="chaos profile for the chaos mode (default: mixed)",
    )
    oracle.add_argument(
        "--json-out",
        default=None,
        metavar="PATH",
        help="also write the full per-mode report as JSON to PATH",
    )
    oracle.set_defaults(run=_cmd_oracle)

    campaign = sub.add_parser(
        "campaign",
        help="run the probe campaign with chaos/journal/resume controls",
    )
    campaign.add_argument(
        "--chaos",
        default=None,
        metavar="NAME|list",
        help=(
            "inject a canonical deterministic fault profile "
            "('list' prints the available profiles)"
        ),
    )
    campaign.add_argument(
        "--journal",
        default=None,
        metavar="PATH",
        help="record a checkpoint journal (JSONL) to PATH",
    )
    campaign.add_argument(
        "--resume",
        default=None,
        metavar="PATH",
        help=(
            "resume a killed campaign from its journal (and keep "
            "journaling to the same file); requires the same seed, "
            "scale, and --chaos profile as the original run"
        ),
    )
    campaign.add_argument(
        "--kill-at-event",
        type=_at_least(1),
        default=None,
        metavar="N",
        help="abort after N scheduler events (kill-at-event harness)",
    )
    campaign.add_argument(
        "--resilience-out",
        default=None,
        metavar="PATH",
        help="write the resilience-counter report as JSON to PATH",
    )
    campaign.add_argument(
        "--shards",
        type=_parse_shards,
        default=None,
        metavar="N|auto",
        help=(
            "run the campaign across N worker processes (auto = CPU "
            "count); the merged dataset digest is identical for any N"
        ),
    )
    campaign.set_defaults(run=_cmd_campaign)

    serve = sub.add_parser(
        "serve",
        help=(
            "run a client workload through the caching recursive "
            "serving layer (serve-stale, prefetch, degradation states)"
        ),
    )
    serve.add_argument(
        "--chaos",
        default=None,
        metavar="NAME|list",
        help=(
            "chaos profile to serve under "
            "('list' prints the available profiles)"
        ),
    )
    serve.add_argument(
        "--duration",
        type=_positive,
        default=600.0,
        metavar="SECONDS",
        help="simulated workload duration (default: 600)",
    )
    serve.add_argument(
        "--qps",
        type=_positive,
        default=20.0,
        metavar="RATE",
        help="mean client query rate across all countries (default: 20)",
    )
    serve.add_argument(
        "--no-serve-stale",
        action="store_true",
        help="disable RFC 8767 serve-stale (expired entries are misses)",
    )
    serve.add_argument(
        "--no-prefetch",
        action="store_true",
        help="disable prefetch of hot names approaching TTL expiry",
    )
    serve.add_argument(
        "--no-warm",
        action="store_true",
        help="skip the pre-chaos cache warm phase",
    )
    serve.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the ServingReport as JSON to PATH",
    )
    serve.set_defaults(run=_cmd_serve)

    bench = sub.add_parser(
        "bench",
        help=(
            "run the probe benchmark suite (serial / concurrent / "
            "sharded) and write BENCH_probe.json"
        ),
    )
    bench.add_argument(
        "--out",
        default="BENCH_probe.json",
        metavar="PATH",
        help="where to write the benchmark report (default: BENCH_probe.json)",
    )
    bench.add_argument(
        "--check",
        default=None,
        metavar="PATH",
        help=(
            "perf-regression gate: compare this run's deterministic "
            "counters and dataset digests against a committed "
            "BENCH_probe.json; exit 1 on any mismatch"
        ),
    )
    bench.add_argument(
        "--labels",
        default=(
            "serial,concurrent,sharded,"
            "longitudinal_full,longitudinal_incremental"
        ),
        help="comma-separated configurations to run (default: all five)",
    )
    bench.add_argument(
        "--scales",
        default=None,
        metavar="S1,S2",
        help=(
            "comma-separated scales to bench into one suite file "
            "(default: the top-level --scale; with --check, every "
            "scale committed to the baseline file)"
        ),
    )
    bench.set_defaults(run=_cmd_bench)

    longitudinal = sub.add_parser(
        "longitudinal",
        help=(
            "run a churn-driven epoch campaign with change-detection-"
            "scoped re-probing and print the trend report"
        ),
    )
    longitudinal.add_argument(
        "--epochs",
        type=_at_least(0),
        default=3,
        metavar="N",
        help="churn epochs to run after the bootstrap (default: 3)",
    )
    longitudinal.add_argument(
        "--audit-rate",
        type=float,
        default=0.01,
        metavar="RATE",
        help=(
            "fraction of the universe re-probed each epoch regardless "
            "of sensor opinion (default: 0.01)"
        ),
    )
    longitudinal.add_argument(
        "--shards",
        type=_parse_shards,
        default=None,
        metavar="N|auto",
        help=(
            "probe each epoch through N worker processes (auto = CPU "
            "count)"
        ),
    )
    longitudinal.add_argument(
        "--full",
        action="store_true",
        help=(
            "naive baseline: re-probe the whole universe every epoch "
            "instead of the sensor-scoped subset"
        ),
    )
    longitudinal.add_argument(
        "--compare-full",
        action="store_true",
        help=(
            "run the incremental campaign AND a from-scratch full "
            "campaign per epoch, asserting digest equality at every "
            "epoch; exit 1 on any divergence (CI smoke mode)"
        ),
    )
    longitudinal.add_argument(
        "--report-out",
        default=None,
        metavar="PATH",
        help="write the trend report as JSON to PATH",
    )
    longitudinal.set_defaults(run=_cmd_longitudinal)
    return parser


def _make_study(args: argparse.Namespace) -> GovernmentDnsStudy:
    return GovernmentDnsStudy(world_at_epoch(args.seed, args.scale))


# Headline metrics that are counts (``len()`` of a target or result
# set); every other metric is a share.
_HEADLINE_COUNTS = frozenset(
    {"targets", "parent_response", "parent_nonempty", "responsive"}
)


def _cmd_headline(args: argparse.Namespace, out) -> int:
    study = _make_study(args)
    headline = study.headline()
    paper = {
        "targets": "147k",
        "parent_response": "115k",
        "parent_nonempty": "96k",
        "responsive": "—",
        "share_ge2_ns": "98.4%",
        "single_ns_stale_share": "60.1%",
        "defective_any": "29.5%",
        "defective_partial": "25.4%",
        "defective_full": "~4.1%",
        "consistent_share": "76.8%",
    }
    rows = [
        [
            key,
            paper.get(key, "—"),
            format_count(value) if key in _HEADLINE_COUNTS else format_percent(value),
        ]
        for key, value in headline.items()
    ]
    print(render_table(["Metric", "Paper", "Measured"], rows), file=out)
    return 0


def _cmd_paperkit(args: argparse.Namespace, out) -> int:
    study = _make_study(args)
    written = export_all(study, args.outdir)
    for artifact in ARTIFACTS:
        txt, csv = written[artifact]
        print(f"{artifact}: {txt} {csv}", file=out)
    print(f"{len(written)} artifacts written to {args.outdir}", file=out)
    return 0


def _cmd_audit(args: argparse.Namespace, out) -> int:
    study = _make_study(args)
    iso2 = args.iso2.upper()
    seed = study.seeds().get(iso2)
    if seed is None:
        print(f"no seed domain for {iso2!r}", file=out)
        return 1
    results = [r for r in study.dataset() if r.iso2 == iso2]
    listed = [r for r in results if r.parent_nonempty]
    defects = [
        rep
        for rep in study.delegation().reports().values()
        if rep.iso2 == iso2 and rep.any_defect
    ]
    inconsistent = [
        rep
        for rep in study.consistency().reports().values()
        if rep.iso2 == iso2 and not rep.consistent
    ]
    exposure = study.delegation().hijack_exposure()
    exposed = [
        (dns_domain, victims)
        for dns_domain, victims in exposure.victims_by_dns.items()
        if any(exposure.victim_country.get(v) == iso2 for v in victims)
    ]
    print(f"d_gov: {seed.d_gov} ({'suffix' if seed.is_suffix else 'registered domain'})", file=out)
    print(f"domains probed: {len(results)}, delegated: {len(listed)}", file=out)
    print(f"defective delegations: {len(defects)}", file=out)
    print(f"parent/child disagreements: {len(inconsistent)}", file=out)
    print(f"hijack-exposed nameserver domains: {len(exposed)}", file=out)
    for dns_domain, victims in exposed:
        quote = exposure.available[dns_domain]
        print(f"  {dns_domain} (${quote.price_usd:,.2f}) → {len(victims)} domain(s)", file=out)
    return 0


def _cmd_hijackscan(args: argparse.Namespace, out) -> int:
    study = _make_study(args)
    exposure = study.delegation().hijack_exposure()
    if not exposure.available:
        print("no registrable nameserver domains found", file=out)
        return 0
    rows = [
        [
            str(dns_domain),
            f"${quote.price_usd:,.2f}",
            len(exposure.victims_by_dns.get(dns_domain, [])),
        ]
        for dns_domain, quote in sorted(
            exposure.available.items(), key=lambda kv: kv[1].price_usd or 0
        )
    ]
    print(
        render_table(
            ["Nameserver domain", "Price", "Victims"],
            rows,
            title=(
                f"{len(exposure.available)} registrable d_ns controlling "
                f"{len(exposure.victim_domains)} government domains in "
                f"{len(exposure.countries)} countries"
            ),
        ),
        file=out,
    )
    return 0


def _cmd_remediate(args: argparse.Namespace, out) -> int:
    from .remedies.sweeper import RemediationSweeper

    world = world_at_epoch(args.seed, args.scale)
    before_study = GovernmentDnsStudy(world)
    before = before_study.headline()
    report = RemediationSweeper(before_study).sweep()
    after = GovernmentDnsStudy(world).headline()
    print(
        render_table(
            ["Metric", "Before", "After"],
            [
                ["any defective", format_percent(before["defective_any"]),
                 format_percent(after["defective_any"])],
                ["fully defective", format_percent(before["defective_full"]),
                 format_percent(after["defective_full"])],
                ["P = C", format_percent(before["consistent_share"]),
                 format_percent(after["consistent_share"])],
            ],
            title=(
                f"{report.total_changes} changes "
                f"({len(report.zombies_deleted)} deletes, "
                f"{len(report.delegations_updated)} updates, "
                f"{len(report.synchronized)} syncs, "
                f"{len(report.locked)} locks)"
            ),
        ),
        file=out,
    )
    return 0


def _cmd_disclose(args: argparse.Namespace, out) -> int:
    from .report.disclosure import build_disclosures, render_package

    study = _make_study(args)
    packages = build_disclosures(study)
    if args.iso2 is None:
        rows = sorted(
            ((p.worst_severity, iso2, len(p.findings)) for iso2, p in packages.items())
        )
        print(
            render_table(
                ["Country", "Findings", "Worst severity"],
                [[iso2, count, severity] for severity, iso2, count in rows],
                title=f"{len(packages)} operators to notify",
            ),
            file=out,
        )
        return 0
    package = packages.get(args.iso2.upper())
    if package is None:
        print(f"no findings for {args.iso2.upper()}", file=out)
        return 1
    print(render_package(package), file=out)
    return 0


def _cmd_oracle(args: argparse.Namespace, out) -> int:
    from .core.oracle import ORACLE_MODES, run_oracle_mode
    from .report.oracle import (
        oracle_json,
        render_oracle_report,
        render_oracle_summary,
    )

    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    unknown = [m for m in modes if m not in ORACLE_MODES]
    if unknown:
        print(
            f"unknown oracle mode(s): {', '.join(unknown)} "
            f"(choose from {', '.join(ORACLE_MODES)})",
            file=out,
        )
        return 2
    reports = []
    for mode in modes:
        report = run_oracle_mode(
            args.seed, args.scale, mode, chaos_profile=args.chaos
        )
        reports.append(report)
        print(render_oracle_report(report), file=out)
    print(render_oracle_summary(reports), file=out)
    if args.json_out is not None:
        with open(args.json_out, "w", encoding="utf-8") as handle:
            handle.write(oracle_json(reports))
        print(f"oracle report written to {args.json_out}", file=out)
    return 1 if any(r.unexplained for r in reports) else 0


def _check_chaos_arg(chaos: Optional[str], out) -> Optional[int]:
    """Handle ``--chaos list`` / unknown names; None means proceed."""
    from .net.chaos import PROFILES, describe_profiles

    if chaos is None or chaos in PROFILES:
        return None
    if chaos == "list":
        print("available chaos profiles:", file=out)
        print(describe_profiles(), file=out)
        return 0
    print(
        f"unknown chaos profile {chaos!r}; choose from "
        f"{', '.join(PROFILES)} (or 'list' to describe them)",
        file=out,
    )
    return 2


def _cmd_serve(args: argparse.Namespace, out) -> int:
    from .report.serving import ServingReport
    from .serve.profiles import run_serve
    from .serve.service import ServeConfig
    from .serve.workload import workload_digest

    chaos_status = _check_chaos_arg(args.chaos, out)
    if chaos_status is not None:
        return chaos_status

    world = world_at_epoch(args.seed, args.scale)
    config = ServeConfig(
        serve_stale=not args.no_serve_stale,
        prefetch=not args.no_prefetch,
    )
    try:
        run = run_serve(
            world,
            args.seed,
            args.chaos,
            args.duration,
            args.qps,
            config=config,
            warm=not args.no_warm,
        )
    except ValueError as error:
        print(f"error: {error}", file=out)
        return 2
    digest = workload_digest(run.queries)

    report = ServingReport.collect(
        run.answers,
        run.service,
        seed=args.seed,
        profile=args.chaos,
        duration=args.duration,
        workload_digest=digest,
        chaos_stats=(
            world.network.chaos.stats.as_dict()
            if world.network.chaos is not None
            else None
        ),
    )
    print(
        f"queries served: {len(run.answers)} "
        f"(warmed {run.warmed} names, workload digest {digest[:12]}…)",
        file=out,
    )
    print(report.render(), file=out)
    print(f"serving-digest: {report.digest()}", file=out)
    if args.report_out is not None:
        report.write(args.report_out)
        print(f"serving report written to {args.report_out}", file=out)
    return 0


def _cmd_campaign(args: argparse.Namespace, out) -> int:
    from .core.journal import dataset_digest
    from .core.probe import ProbeConfig
    from .core.shard import government_suffixes, run_campaign
    from .net.events import CampaignAborted
    from .report.resilience import ResilienceReport
    from .serve.profiles import install_chaos_profile

    chaos_status = _check_chaos_arg(args.chaos, out)
    if chaos_status is not None:
        return chaos_status

    if args.journal and args.resume:
        print(
            "--journal and --resume are mutually exclusive "
            "(--resume keeps journaling to the same file)",
            file=out,
        )
        return 2
    if args.resume is not None and not os.path.exists(args.resume):
        print(f"error: --resume {args.resume}: no such journal", file=out)
        return 2
    if args.journal is not None and os.path.exists(args.journal):
        print(
            f"error: --journal {args.journal} already exists; use "
            f"--resume {args.journal} to continue it",
            file=out,
        )
        return 2

    if args.shards is not None and args.kill_at_event is not None:
        print(
            "--kill-at-event needs the single-process engine (its "
            "event count is tied to one scheduler); drop --shards",
            file=out,
        )
        return 2

    world = world_at_epoch(args.seed, args.scale)
    study = GovernmentDnsStudy(world)
    # Seed selection runs its own queries; compute targets before
    # installing chaos or arming the kill switch so both anchor at the
    # campaign proper.
    targets = study.targets()

    if args.chaos is not None:
        install_chaos_profile(world.network, args.chaos, seed=args.seed)

    journal_path = args.resume or args.journal
    try:
        dataset, counters = run_campaign(
            world,
            targets,
            ProbeConfig(),
            shards=args.shards,
            suffixes=government_suffixes(study.seeds().values()),
            journal_path=journal_path,
            kill_at_event=args.kill_at_event,
        )
    except ValueError as error:
        # A journal/campaign mismatch, a shard manifest opened as a
        # plain journal and similar refusals are user errors.
        print(f"error: {error}", file=out)
        return 2
    except CampaignAborted as aborted:
        print(f"campaign killed: {aborted}", file=out)
        if journal_path is not None:
            print(
                f"journal preserved: resume with --resume {journal_path}",
                file=out,
            )
        return 0

    print(f"domains probed: {len(dataset)}", file=out)
    print(f"dataset-digest: {dataset_digest(dataset)}", file=out)
    report = ResilienceReport.collect(counters, args.chaos)
    print(report.render(), file=out)
    for index, stats in enumerate(counters.per_shard):
        print(
            f"shard {index}: targets={stats.targets} "
            f"queries={stats.queries_sent} "
            f"(warm={stats.warm_queries}) "
            f"net={stats.network_queries} "
            f"sim={stats.simulated_seconds:.1f}s",
            file=out,
        )
    if args.resilience_out is not None:
        report.write(args.resilience_out)
        print(f"resilience report written to {args.resilience_out}", file=out)
    return 0


def _cmd_bench(args: argparse.Namespace, out) -> int:
    from .report.bench import (
        BENCH_CONFIGS,
        LONGITUDINAL_LABELS,
        gate_suite,
        load_report_payload,
        run_probe_suite,
        scale_payloads,
    )

    # Every argument is checked before the first label runs.
    labels = tuple(
        label.strip() for label in args.labels.split(",") if label.strip()
    )
    valid = (*BENCH_CONFIGS, *LONGITUDINAL_LABELS)
    unknown = [label for label in labels if label not in valid]
    if unknown:
        print(
            f"error: unknown bench label(s) {', '.join(unknown)}; choose "
            f"from {', '.join(valid)}",
            file=out,
        )
        return 2
    try:
        scales = tuple(
            _positive(scale)
            for scale in (args.scales or "").split(",")
            if scale.strip()
        )
    except argparse.ArgumentTypeError:
        print(
            "error: --scales must be comma-separated numbers, each positive "
            f"and finite, got {args.scales!r}",
            file=out,
        )
        return 2

    committed = None
    if args.check is not None:
        try:
            committed = load_report_payload(args.check)
            committed_scales = tuple(sorted(scale_payloads(committed)))
        except ValueError as error:
            print(f"error: {args.check}: {error}", file=out)
            return 2
        # Gate mode defaults to every scale the committed file holds,
        # so "check" always means "check everything committed".
        scales = scales or committed_scales
    scales = scales or (args.scale,)

    suite = run_probe_suite(args.seed, scales, labels=labels)
    suite.write(args.out)
    print(f"benchmark suite written to {args.out}", file=out)
    for scale in sorted(suite.reports):
        report = suite.reports[scale]
        print(f"scale {scale}:", file=out)
        for record in report.records:
            print(
                f"  {record.label:<12} queries={record.queries_sent:<7} "
                f"net={record.network_queries:<7} "
                f"sim={record.simulated_seconds:.1f}s "
                f"digest={record.dataset_digest[:12]}…",
                file=out,
            )

    if committed is not None:
        violations = gate_suite(suite, committed)
        if violations:
            print(f"perf gate FAILED against {args.check}:", file=out)
            for violation in violations:
                print(f"  {violation}", file=out)
            return 1
        print(f"perf gate passed against {args.check}", file=out)
    return 0


def _cmd_longitudinal(args: argparse.Namespace, out) -> int:
    from .core.epoch import EpochRunner
    from .report.trend import TrendReport

    if args.full and args.compare_full:
        print(
            "error: --full and --compare-full are mutually exclusive",
            file=out,
        )
        return 2
    runner = EpochRunner(
        world_at_epoch(args.seed, args.scale),
        incremental=not args.full,
        audit_rate=args.audit_rate,
        shards=args.shards,
    )
    runner.run(args.epochs)
    report = TrendReport.from_runner(runner)
    print(report.render(), file=out)
    if args.report_out is not None:
        report.write(args.report_out)
        print(f"trend report written to {args.report_out}", file=out)

    if args.compare_full:
        # The equivalence certificate: every epoch's folded delta
        # dataset must hash identically to a from-scratch full campaign
        # over that epoch's world.
        from .core.journal import dataset_digest

        divergent = False
        for epoch in range(args.epochs + 1):
            fresh = world_at_epoch(args.seed, args.scale, epoch)
            full_digest = dataset_digest(GovernmentDnsStudy(fresh).dataset())
            incremental_digest = runner.dataset.epoch_digest(epoch)
            if full_digest == incremental_digest:
                print(
                    f"epoch {epoch}: incremental digest matches full "
                    f"campaign ({full_digest[:12]}…)",
                    file=out,
                )
            else:
                divergent = True
                print(
                    f"epoch {epoch}: DIGEST DIVERGENCE incremental="
                    f"{incremental_digest} full={full_digest}",
                    file=out,
                )
        if divergent:
            print("incremental-vs-full verification FAILED", file=out)
            return 1
        print(
            f"incremental-vs-full verification passed for all "
            f"{args.epochs + 1} epochs",
            file=out,
        )
    return 0


def main(argv: Optional[Sequence[str]] = None, out=None) -> int:
    args = build_parser().parse_args(argv)
    return args.run(args, out if out is not None else sys.stdout)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
