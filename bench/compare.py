"""Paired comparison of benchmark invocations: parent commit vs change.

Usage::

    python3 bench/compare.py --parent P1.json P2.json ... --change C1.json C2.json ...

Each file is a ``bench/out/results.json`` written by ``bench/run.py``.
Run the two commits alternately (parent, change, change, parent, ...)
with the same benchmark code and settings; the i-th parent file is
paired with the i-th change file.  Each invocation contributes its
median per (workload, metric).

For every pair of end-to-end metric and workload, and for the raw wall
times behind ``setup_s`` and ``run_s`` (``wall_setup_s``,
``wall_run_s``, judged against the bound of their normalized twin; only
the paired rule may call them regressed), the verdict is:

* ``improved``   -- at least 10 pairs, the change wins at least 9/10 of
  them (ties count for neither side), and the medians differ by more
  than the interquartile range of the parent's invocations;
* ``slower``     -- the mirror image: the change loses 9/10 of at least
  10 pairs by more than the parent's IQR, but stays inside the bound
  (beyond it, ``regressed``);
* ``unresolved`` -- otherwise, if either side's spread (IQR / median)
  is wider than the metric's bound in ``BENCHMARK.json``, unless every
  change invocation reads better than every parent invocation;
* ``regressed``  -- otherwise, if the change's median is worse than the
  parent's by more than the bound;
* ``unchanged``  -- otherwise.

Flagged: a rise in failed trials; a changed output digest at the same
seed; a ``DETERMINISTIC`` count that got worse at the same seed (bound
0); and a wall time that regressed while its normalized twin did not.
Exit status: 1 on any regression or flag, else 0; ``slower`` is
reported but stays within what the bound allows.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys
from typing import Dict, List, Sequence, Tuple

MIN_PAIRS = 10
WIN_SHARE = 0.9

# Normalized end-to-end times and the raw wall times behind them.  The
# speed probe shares the CPU's caches with the workload, so a change
# that grows the working set slows the probe too and divides part of
# its own slowdown out of the normalized time; the wall time keeps it.
WALLS = {"setup_s": "wall_setup_s", "run_s": "wall_run_s"}

# Per-layer values that repeat exactly at a given seed, so any worsening
# at the same seed is a regression.  They are not steady across seeds,
# which is why they are not end-to-end metrics.
DETERMINISTIC = (
    "net.datagrams_per_op",
    "probe.queries",
    "shard.worker_queries",
    "probe.virtual_campaign_s",
    "serve.latency_p50_ms",
    "serve.latency_p99_ms",
    "serve.failed_share",
)


def summary(values: Sequence[float]) -> Dict[str, float]:
    """Median and quartiles, as ``statistics.quantiles(n=4)`` gives them."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def _spread(values: Sequence[float]) -> float:
    stats = summary(values)
    return (stats["q3"] - stats["q1"]) / abs(stats["median"])


def verdict(
    parent: Sequence[float],
    change: Sequence[float],
    bound: float,
    better: str,
    paired_only: bool = False,
) -> Tuple[str, Dict[str, float]]:
    """Decide one (metric, workload) pair; returns the verdict and the
    numbers it rests on.  Medians of end-to-end metrics are never 0.

    With ``paired_only`` (raw wall times, which drift by tens of
    percent between invocations) only the paired rule may call a
    regression; a median worse by more than the bound without a clear
    paired loss is ``unresolved``.
    """
    sign = 1.0 if better == "higher" else -1.0
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (c - p) > 0)
    losses = sum(1 for p, c in pairs if sign * (c - p) < 0)
    p_stats = summary(parent)
    p_median, c_median = p_stats["median"], summary(change)["median"]
    gain = sign * (c_median - p_median)
    detail = {
        "parent_median": p_median,
        "change_median": c_median,
        "worse_by": -gain / abs(p_median),
        "pairs": len(pairs),
        "wins": wins,
    }
    enough = len(pairs) >= MIN_PAIRS
    parent_iqr = p_stats["q3"] - p_stats["q1"]
    if enough and wins >= WIN_SHARE * len(pairs) and gain > parent_iqr:
        return "improved", detail
    if enough and losses >= WIN_SHARE * len(pairs) and -gain > parent_iqr:
        # The mirror of a gain: a loss this clear is real even inside
        # the bound, so it never reads as unchanged.
        return ("regressed" if detail["worse_by"] > bound else "slower"), detail
    every_change_better = all(
        sign * (c - p) > 0 for c in change for p in parent
    )
    if max(_spread(parent), _spread(change)) > bound and not every_change_better:
        return "unresolved", detail
    if detail["worse_by"] > bound:
        return ("unresolved" if paired_only else "regressed"), detail
    return "unchanged", detail


def _runs(results: List[dict], workload: str) -> List[Tuple[int, dict]]:
    return [
        (result["header"]["seed"], result["workloads"][workload])
        for result in results
        if workload in result["workloads"]
    ]


def _failed_share(runs: List[Tuple[int, dict]]) -> float:
    failed = sum(run["failed"] for _, run in runs)
    return failed / sum(run["attempted"] for _, run in runs)


def _row(workload, name, metric, p_runs, c_runs, section) -> dict:
    decided, detail = verdict(
        [run[section][name]["value"] for _, run in p_runs],
        [run[section][name]["value"] for _, run in c_runs],
        metric["bound"],
        metric["better"],
        paired_only=section == "walls",
    )
    return {"workload": workload, "metric": name, "bound": metric["bound"],
            "verdict": decided, **detail}


def compare(
    parents: List[dict], changes: List[dict], benchmark: dict
) -> Tuple[List[dict], List[str]]:
    """Verdict rows for every (workload, end-to-end metric) and wall
    time, and flags."""
    rows: List[dict] = []
    flags: List[str] = []
    better = {metric["name"]: metric["better"] for metric in benchmark["per_layer"]}
    workloads = sorted(
        {name for result in parents + changes for name in result["workloads"]}
    )
    for workload in workloads:
        p_runs, c_runs = _runs(parents, workload), _runs(changes, workload)
        if not p_runs or not c_runs:
            flags.append(f"{workload}: measured on one side only")
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            row = _row(workload, name, metric, p_runs, c_runs, "metrics")
            rows.append(row)
            if name not in WALLS:
                continue
            wall = _row(workload, WALLS[name], metric, p_runs, c_runs, "walls")
            rows.append(wall)
            if wall["verdict"] == "regressed" and row["verdict"] != "regressed":
                flags.append(
                    f"{workload}: {wall['metric']} regressed while {name} reads "
                    f"{row['verdict']}: the speed probe divided out a slowdown "
                    "it shared (caches or memory)"
                )
        p_failed, c_failed = _failed_share(p_runs), _failed_share(c_runs)
        if c_failed > p_failed:
            flags.append(
                f"{workload}: failed_share rose from {p_failed:.3f} "
                f"to {c_failed:.3f}"
            )
        for seed in sorted({s for s, _ in p_runs} & {s for s, _ in c_runs}):
            at_seed = [
                [run for s, run in side if s == seed] for side in (p_runs, c_runs)
            ]
            outputs = [
                {json.dumps(run["outputs"], sort_keys=True) for run in side}
                for side in at_seed
            ]
            if outputs[0] != outputs[1]:
                flags.append(f"{workload}: output digest changed at seed {seed}")
            for name in DETERMINISTIC:
                values = [
                    [run["counters"][name] for run in side if name in run["counters"]]
                    for side in at_seed
                ]
                if not values[0] or not values[1]:
                    continue
                sign = 1.0 if better[name] == "higher" else -1.0
                best_parent = max(values[0], key=lambda v: sign * v)
                worst_change = min(values[1], key=lambda v: sign * v)
                if sign * (worst_change - best_parent) < 0:
                    flags.append(
                        f"{workload}: {name} got worse at seed {seed}: "
                        f"{best_parent:g} -> {worst_change:g} (bound 0)"
                    )
    return rows, flags


def render(rows: List[dict], flags: List[str]) -> str:
    lines = [
        f"{'workload':<12} {'metric':<12} {'parent':>10} {'change':>10} "
        f"{'worse by':>9} {'bound':>6} {'wins':>7}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row['workload']:<12} {row['metric']:<12} "
            f"{row['parent_median']:>10.4f} {row['change_median']:>10.4f} "
            f"{row['worse_by']:>+9.1%} {row['bound']:>6.0%} "
            f"{row['wins']:>3}/{row['pairs']:<3}  {row['verdict']}"
        )
    lines.extend(f"FLAG {flag}" for flag in flags)
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Paired comparison of benchmark invocations."
    )
    parser.add_argument("--parent", nargs="+", required=True, metavar="JSON")
    parser.add_argument("--change", nargs="+", required=True, metavar="JSON")
    args = parser.parse_args(argv)
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        benchmark = json.load(handle)
    loaded = []
    for paths in (args.parent, args.change):
        side = []
        for path in paths:
            with open(path, encoding="utf-8") as handle:
                side.append(json.load(handle))
        loaded.append(side)
    rows, flags = compare(loaded[0], loaded[1], benchmark)
    print(render(rows, flags))
    regressed = any(row["verdict"] == "regressed" for row in rows)
    return 1 if regressed or flags else 0


if __name__ == "__main__":
    sys.exit(main())
