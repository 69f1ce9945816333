"""The probe benchmark suite behind ``repro bench``.

One entrypoint — :func:`run_probe_bench` — runs the campaign under each
engine configuration on identically-seeded worlds, decomposes the
wall-clock cost per phase (worldgen / probe / merge / analysis), stamps
every record with the dataset digest, and writes ``BENCH_probe.json``.
Both the CLI subcommand and ``benchmarks/test_perf_probe.py`` call it,
so CI, pytest-benchmark, and humans measure exactly the same thing.

``--check`` mode (:func:`check_probe_bench`) is the perf-regression
gate: the deterministic counters and dataset digests in a fresh run
must match the committed ``BENCH_probe.json`` byte-for-byte, while
wall-clock numbers are advisory only (CI runners are noisy; counters
are not).

This module intentionally reads the host's real clock — it *measures*
wall time, which is the one place the determinism lint must not apply;
the inline suppressions below mark each deliberate call site.
"""

from __future__ import annotations

import cProfile
import gc
import pstats
import time
from typing import Dict, List, Optional, Tuple

from ..core.epoch import EpochRunner
from ..core.journal import dataset_digest
from ..core.probe import ProbeConfig
from ..core.shard import (
    CampaignCounters,
    ProcessCampaignRunner,
    government_suffixes,
    run_campaign,
)
from ..core.study import GovernmentDnsStudy
from ..worldgen.churn import world_at_epoch
from .perf import (
    PerfRecord,
    PerfReport,
    PerfSuite,
    gate_suite,
    load_report_payload,
)

__all__ = [
    "BENCH_CONFIGS",
    "DEFAULT_SHARDS",
    "LONGITUDINAL_EPOCHS",
    "LONGITUDINAL_LABELS",
    "check_probe_bench",
    "collect_hotspots",
    "render_hotspot_table",
    "run_longitudinal_record",
    "run_probe_bench",
    "run_probe_record",
    "run_probe_suite",
]

# The sharded record is committed at a fixed K: its network-query total
# depends on K (each worker warms its own cache), so the CI gate needs
# one canonical shard count rather than "however many cores the runner
# had".  Wall-clock still benefits from more cores at fixed K=4 only up
# to 4; the CLI lets humans pass --shards auto for real speed runs.
DEFAULT_SHARDS = 4

BENCH_CONFIGS: Dict[str, Dict[str, object]] = {
    "serial": {"max_in_flight": 1, "zone_cut_caching": False},
    "concurrent": {"max_in_flight": 64, "zone_cut_caching": True},
    "sharded": {"max_in_flight": 64, "zone_cut_caching": True},
}

# The longitudinal epoch suite: both labels run the same churn sequence
# on identically-seeded worlds with the concurrent engine — the *full*
# label re-probes the whole universe each epoch (the naive baseline),
# the *incremental* label probes only what the change sensor implicates
# plus the audit sample.  Equal final dataset digests certify the two
# measured the same thing; the gated query counters record how much
# cheaper the incremental loop is per steady-state epoch.
LONGITUDINAL_LABELS = ("longitudinal_full", "longitudinal_incremental")
LONGITUDINAL_EPOCHS = 3


def _now() -> float:
    return time.perf_counter()  # reprolint: disable=DET001


def run_probe_record(
    label: str,
    seed: int,
    scale: float,
    shards: Optional[int] = None,
    profiler: Optional[cProfile.Profile] = None,
) -> PerfRecord:
    """Run one configuration's full campaign and measure everything.

    ``shards`` only applies to the ``sharded`` label (None there means
    :data:`DEFAULT_SHARDS`).  When ``profiler`` is given it is enabled
    around the probe, merge, and analysis phases only — worldgen is
    out of scope for the hotspot table, and for the sharded label the
    worker processes are opaque (only spawn/collect/merge appear).
    """
    if label not in BENCH_CONFIGS:
        raise ValueError(f"unknown bench config: {label!r}")
    config = ProbeConfig(**BENCH_CONFIGS[label])  # type: ignore[arg-type]
    shard_count = (
        (shards if shards is not None else DEFAULT_SHARDS)
        if label == "sharded"
        else None
    )
    phases: Dict[str, float] = {}

    mark = _now()
    world = world_at_epoch(seed, scale)
    study = GovernmentDnsStudy(world, probe_config=config)
    targets = study.targets()
    suffixes = government_suffixes(study.seeds().values())
    # The generated world is immutable and lives for the whole record:
    # move it to the GC's permanent generation so the cycle detector
    # never rescans it during the phases we are measuring (the
    # CPython long-lived-base-state pattern; forked shard workers get
    # the frozen heap copy-on-write for free).  Undone at record end.
    gc.freeze()
    phases["worldgen"] = _now() - mark

    base_network_queries = world.network.stats.queries_sent
    base_timeouts = world.network.stats.timeouts
    if profiler is not None:
        profiler.enable()
    if shard_count is not None:
        # Collect and merge are timed apart, so the runner is driven
        # here rather than through run_campaign.
        runner = ProcessCampaignRunner(
            world, targets, config, shards=shard_count, suffixes=suffixes
        )
        mark = _now()
        collected = runner.collect()
        phases["probe"] = _now() - mark
        mark = _now()
        dataset = runner.merge(collected)
        phases["merge"] = _now() - mark
        counters = CampaignCounters.fold_shards(runner.shard_stats)
    else:
        mark = _now()
        dataset, counters = run_campaign(
            world, targets, config, suffixes=suffixes
        )
        phases["probe"] = _now() - mark
        phases["merge"] = 0.0
    if profiler is not None:
        profiler.disable()
    study._dataset = dataset

    # Same pattern for the finished dataset: it is read-only from here
    # on, so freeze it too — the analyses then run against an empty
    # young heap and the collector has nothing old to rescan.
    gc.freeze()

    if profiler is not None:
        profiler.enable()
    mark = _now()
    study.delegation().reports()
    study.consistency().reports()
    phases["analysis"] = _now() - mark
    if profiler is not None:
        profiler.disable()

    # Record isolation: hand the heap back to the collector and reap
    # this record's cycles now, so the next record's phases never pay
    # for this one's garbage.
    gc.unfreeze()
    gc.collect()

    # The inter-round wait is methodology, not engine cost: subtract it
    # to compare what the engine actually controls.  The analyses above
    # materialized the columnar store, so the counters below are free
    # column scans.
    retried = 1 in dataset.columns.retried
    waits = config.retry_interval_days * 86_400 if retried else 0.0
    return PerfRecord(
        label=label,
        max_in_flight=config.max_in_flight,
        zone_cut_caching=config.zone_cut_caching,
        targets=len(targets),
        # Campaign cost only (probe + merge): worldgen and analysis are
        # identical across configurations and would dilute the ratios.
        wall_seconds=round(phases["probe"] + phases["merge"], 3),
        simulated_seconds=round(counters.simulated_seconds, 3),
        active_seconds=round(counters.simulated_seconds - waits, 3),
        queries_sent=counters.queries_sent,
        # Network totals include seed selection's queries.
        network_queries=base_network_queries + counters.network_queries,
        timeouts=base_timeouts + counters.timeouts,
        responsive_domains=dataset.columns.responsive.count(1),
        dataset_digest=dataset_digest(dataset),
        shards=shard_count,
        phases={name: round(phases[name], 3) for name in sorted(phases)},
    )


def run_longitudinal_record(
    label: str,
    seed: int,
    scale: float,
    epochs: int = LONGITUDINAL_EPOCHS,
    profiler: Optional[cProfile.Profile] = None,
) -> PerfRecord:
    """Run one longitudinal mode's full epoch loop and measure it.

    The gated counters are *steady-state* totals (epochs 1..N; the
    bootstrap campaign is identical in both modes and would dilute the
    ratio), while ``responsive_domains`` and ``dataset_digest`` are the
    final epoch's — the digest doubling as the incremental-vs-full
    equivalence certificate.
    """
    if label not in LONGITUDINAL_LABELS:
        raise ValueError(f"unknown longitudinal config: {label!r}")
    config = ProbeConfig(**BENCH_CONFIGS["concurrent"])  # type: ignore[arg-type]
    incremental = label == "longitudinal_incremental"
    phases: Dict[str, float] = {}

    mark = _now()
    world = world_at_epoch(seed, scale)
    runner = EpochRunner(world, probe_config=config, incremental=incremental)
    gc.freeze()
    phases["worldgen"] = _now() - mark

    if profiler is not None:
        profiler.enable()
    mark = _now()
    runner.bootstrap()
    phases["epoch0"] = _now() - mark
    mark = _now()
    for _ in range(epochs):
        runner.run_epoch()
    phases["epochs"] = _now() - mark
    if profiler is not None:
        profiler.disable()

    gc.unfreeze()
    gc.collect()

    steady = runner.stats[1:]
    final = runner.stats[-1]
    simulated = sum(s.simulated_seconds for s in steady)
    return PerfRecord(
        label=label,
        max_in_flight=config.max_in_flight,
        zone_cut_caching=config.zone_cut_caching,
        targets=len(runner.targets),
        # Steady-state epoch cost only: bootstrap is shared overhead.
        wall_seconds=round(phases["epochs"], 3),
        simulated_seconds=round(simulated, 3),
        active_seconds=round(simulated, 3),
        queries_sent=sum(s.queries_sent for s in steady),
        network_queries=sum(s.network_queries for s in steady),
        timeouts=sum(s.timeouts for s in steady),
        responsive_domains=final.responsive,
        dataset_digest=final.epoch_digest,
        shards=None,
        phases={name: round(phases[name], 3) for name in sorted(phases)},
    )


def run_probe_bench(
    seed: int,
    scale: float,
    shards: Optional[int] = None,
    labels: Tuple[str, ...] = ("serial", "concurrent", "sharded"),
    profiler: Optional[cProfile.Profile] = None,
) -> PerfReport:
    """Run the benchmark suite; ``serial`` (when present) is the
    baseline for reduction ratios.  Longitudinal labels dispatch to the
    epoch-suite runner; everything else is a one-shot campaign."""
    report = PerfReport(scale=scale, seed=seed)
    for label in labels:
        if label in LONGITUDINAL_LABELS:
            record = run_longitudinal_record(
                label, seed, scale, profiler=profiler
            )
        else:
            record = run_probe_record(
                label, seed, scale, shards=shards, profiler=profiler
            )
        report.add(record, baseline=(label == "serial"))
    return report


def run_probe_suite(
    seed: int,
    scales: Tuple[float, ...],
    shards: Optional[int] = None,
    labels: Tuple[str, ...] = ("serial", "concurrent", "sharded"),
    profiler: Optional[cProfile.Profile] = None,
) -> PerfSuite:
    """Run the full benchmark at each scale into one suite."""
    suite = PerfSuite(seed=seed)
    for scale in scales:
        suite.add(
            run_probe_bench(
                seed, scale, shards=shards, labels=labels, profiler=profiler
            )
        )
    return suite


def check_probe_bench(suite: PerfSuite, committed_path: str) -> List[str]:
    """Gate a fresh suite against the committed baseline file.

    Every scale present in the committed file is checked (suite files
    carry several; legacy single-report files carry one).
    """
    return gate_suite(suite, load_report_payload(committed_path))


# ----------------------------------------------------------------------
# Hotspot profiling (``repro bench --profile``)
# ----------------------------------------------------------------------
def _short_location(filename: str, lineno: int, name: str) -> str:
    """``pkg/module.py:123(func)`` with site-packages noise stripped."""
    if name == "<built-in method builtins.exec>":
        return name
    for marker in ("/repro/", "/lib/python"):
        cut = filename.rfind(marker)
        if cut != -1:
            filename = filename[cut + 1 :]
            break
    if filename.startswith("~"):  # pstats' marker for built-ins
        return name
    return f"{filename}:{lineno}({name})"


def collect_hotspots(
    profiler: cProfile.Profile, top: int = 25
) -> List[Dict[str, object]]:
    """Top-``top`` functions by cumulative time, as JSON-ready rows."""
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative")
    rows: List[Dict[str, object]] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, nc, tt, ct, _callers = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(
            {
                "function": _short_location(filename, lineno, name),
                "ncalls": nc,
                "primitive_calls": cc,
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
    return rows


def render_hotspot_table(rows: List[Dict[str, object]]) -> str:
    """Fixed-width text rendering of :func:`collect_hotspots` rows."""
    lines = [
        f"{'ncalls':>10} {'tottime':>9} {'cumtime':>9}  function",
        f"{'-' * 10} {'-' * 9} {'-' * 9}  {'-' * 40}",
    ]
    for row in rows:
        lines.append(
            f"{row['ncalls']:>10} {row['tottime']:>9.3f} "
            f"{row['cumtime']:>9.3f}  {row['function']}"
        )
    return "\n".join(lines)
