"""Probe-engine perf baseline: serial vs concurrent vs sharded.

Thin pytest wrapper around :mod:`repro.report.bench` — the same runner
``repro bench`` invokes — so CI, pytest-benchmark, and humans measure
exactly the same campaign.  Three records per run:

* **serial** — ``max_in_flight=1``, zone-cut caching off: the
  historical strictly-blocking engine (and still the bit-exact
  reference configuration);
* **concurrent** — the default engine: a 64-deep in-flight window over
  the discrete-event scheduler plus the warm-then-frozen zone-cut
  cache;
* **sharded** — the concurrent engine partitioned across 4 worker
  processes with a deterministic merge.

What the ratios can and cannot show at this scale: the per-IP sweep is
irreducible measurement traffic (every address must be queried per
target), so query-count reduction is bounded by the walk share, while
*active* campaign time (simulated seconds excluding the fixed
inter-round wait) collapses by an order of magnitude because
concurrent timeout waits overlap.  Sharded wall-clock reduction needs
real cores: the digest assertions hold everywhere, the speedup
assertion is gated on CPU count (a 1-core runner pays fork overhead
for no parallelism).  EXPERIMENTS.md works through the decomposition.

The package records no wall time, so this wrapper times its spans
itself (:func:`timed_record`): the campaign is timed around the
record's own ``run_campaign`` call, and the delegation and consistency
analyses are timed over the dataset that campaign produced.

The committed ``BENCH_probe.json`` (a multi-scale suite) is produced
by ``repro bench --scales 0.05,0.15``; this wrapper writes its fresh
single-scale suite elsewhere so a local pytest run cannot clobber the
committed two-scale baseline.

``test_perf_smoke_columnar_analysis`` is the ISSUE-7 regression smoke:
against the committed pre-columnar record
(``benchmarks/BENCH_pre_pr.json``) the deterministic counters must be
byte-identical — the wire kernels and columnar store changed *cost*,
never *findings* — and the analysis phase must run at least 2x faster.
Wall-clock assertions are advisory on small runners (noise dominates
below 4 cores); the counter equalities are asserted everywhere.
"""

from __future__ import annotations

import gc
import json
import os
import time
from unittest import mock

from repro.core.dataset import MeasurementDataset
from repro.core.shard import run_campaign
from repro.core.study import GovernmentDnsStudy
from repro.report import bench
from repro.report.bench import (
    DEFAULT_SHARDS,
    GATED_FIELDS,
    PerfReport,
    PerfSuite,
    run_probe_record,
)

from conftest import BENCH_SCALE, BENCH_SEED

BENCH_OUTPUT = os.environ.get(
    "REPRO_BENCH_PROBE_JSON", "BENCH_probe.pytest.json"
)
PRE_PR_BASELINE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "BENCH_pre_pr.json"
)

_CACHE = {}


def timed_record(label):
    """Run one bench record; return it with its wall spans in seconds.

    ``campaign`` is the record's ``run_campaign`` call (probe, plus the
    merge when sharded).  ``analysis`` is the delegation and consistency
    analyses over that campaign's dataset.  The heap is frozen around
    both spans, so a full collection never rescans the read-only world
    or dataset inside one, and reaped afterwards, so one record never
    pays for another's garbage.
    """
    walls = {}

    def timed_campaign(world, targets, config, **kwargs):
        gc.freeze()
        started = time.perf_counter()
        dataset, counters = run_campaign(world, targets, config, **kwargs)
        walls["campaign"] = time.perf_counter() - started
        # A copy whose columns are not built yet: the record builds the
        # original's, and the analysis span includes building them.
        walls["study"] = GovernmentDnsStudy(
            world,
            probe_config=config,
            _dataset=MeasurementDataset(dataset.results),
        )
        return dataset, counters

    try:
        with mock.patch.object(bench, "run_campaign", timed_campaign):
            record = run_probe_record(label, BENCH_SEED, BENCH_SCALE)
        study = walls.pop("study")
        study.seeds()  # seed selection is not part of the analysis span
        gc.freeze()
        started = time.perf_counter()
        study.delegation().reports()
        study.consistency().reports()
        walls["analysis"] = time.perf_counter() - started
    finally:
        gc.unfreeze()
        gc.collect()
    return record, walls


def baseline_report():
    """Serial + concurrent records at the bench scale, run once, with
    their wall spans."""
    if "report" not in _CACHE:
        report = PerfReport(scale=BENCH_SCALE, seed=BENCH_SEED)
        walls = {}
        for label in ("serial", "concurrent"):
            record, walls[label] = timed_record(label)
            report.add(record, baseline=(label == "serial"))
        _CACHE["report"], _CACHE["walls"] = report, walls
    return _CACHE["report"], _CACHE["walls"]


def test_perf_probe_engine(benchmark):
    report, walls = baseline_report()
    sharded, walls["sharded"] = benchmark.pedantic(
        timed_record, args=("sharded",), rounds=1, iterations=1
    )
    report.add(sharded)
    suite = PerfSuite(seed=BENCH_SEED)
    suite.add(report)
    suite.write(BENCH_OUTPUT)

    serial = report.get("serial")
    concurrent = report.get("concurrent")
    print()
    print(f"  perf suite written to {BENCH_OUTPUT}")
    for record in report.records:
        print(
            f"  {record.label:<12} queries={record.queries_sent:<7}"
            f" net={record.network_queries:<7}"
            f" active_sim={record.active_seconds:>9.1f}s"
            f" campaign={walls[record.label]['campaign']:.2f}s"
        )
    reductions = report.reductions("concurrent")
    print(
        "  reductions vs serial: "
        + ", ".join(f"{k}={v:.2f}x" for k, v in sorted(reductions.items()))
    )

    # Every engine must observe the same world: equal target counts and
    # equal responsive-domain counts (caching, concurrency, and
    # sharding change cost, not findings).
    assert concurrent.targets == serial.targets
    assert sharded.targets == serial.targets
    assert concurrent.responsive_domains == serial.responsive_domains
    assert sharded.responsive_domains == serial.responsive_domains

    # The sharded determinism contract: byte-identical dataset digest
    # vs the in-process concurrent engine, at the committed K.
    assert sharded.shards == DEFAULT_SHARDS
    assert sharded.dataset_digest == concurrent.dataset_digest

    # The engine wins that hold at bench scale (see EXPERIMENTS.md for
    # why query reduction is bounded by the irreducible sweep share).
    assert reductions["queries_sent"] >= 1.5
    assert reductions["network_queries"] >= 1.5
    assert reductions["active_seconds"] >= 5.0

    # Wall-clock assertions need real cores; a 1-core CI runner is
    # noisy enough to flip the serial/concurrent ordering (their probe
    # walls are within ~25% of each other), and sharding pays fork +
    # serialization overhead for no parallelism there.
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert walls["serial"]["campaign"] >= walls["concurrent"]["campaign"]
        assert walls["sharded"]["campaign"] < walls["concurrent"]["campaign"]


def test_perf_smoke_columnar_analysis():
    """ISSUE-7 acceptance: counters frozen, analysis >= 2x faster."""
    with open(PRE_PR_BASELINE, encoding="utf-8") as fh:
        pre = json.load(fh)
    pre_records = pre["scales"][str(BENCH_SCALE)]["records"]
    report, walls = baseline_report()

    # Deterministic counters must match the pre-optimization record
    # exactly: the packed kernels and the columnar store are pure
    # representation changes.
    for label in ("serial", "concurrent"):
        record = report.get(label)
        for fieldname in GATED_FIELDS:
            assert getattr(record, fieldname) == pre_records[label][
                fieldname
            ], f"{label}.{fieldname} drifted from BENCH_pre_pr.json"

    # Wall comparison, conservatively: best committed pre-PR analysis
    # vs *worst* fresh analysis across the two in-process records.
    pre_analysis = min(
        rec["phases"]["analysis"] for rec in pre_records.values()
    )
    new_analysis = max(
        walls[label]["analysis"] for label in ("serial", "concurrent")
    )
    pre_probe = pre_records["concurrent"]["phases"]["probe"]
    new_probe = walls["concurrent"]["campaign"]
    speedup = pre_analysis / new_analysis if new_analysis else float("inf")
    print()
    print(
        f"  analysis: {pre_analysis:.3f}s committed -> "
        f"{new_analysis:.3f}s ({speedup:.2f}x)"
    )
    print(f"  probe (concurrent): {pre_probe:.3f}s committed -> "
          f"{new_probe:.3f}s")
    cores = os.cpu_count() or 1
    if cores >= 4:
        assert speedup >= 2.0, (
            f"columnar analysis regressed: {new_analysis:.3f}s vs "
            f"committed {pre_analysis:.3f}s"
        )
        assert new_probe < pre_probe
    else:
        print(f"  (advisory only: {cores} core(s) — wall too noisy)")
