#!/usr/bin/env python3
"""Whole-run benchmark over four workloads.

Usage::

    python3 bench/run.py [--workload NAME ...] [--seed N] [--seconds S] [--trace 0|1]

Every trial runs in a fresh interpreter (``bench/trial.py``), one at a
time.  Workloads are interleaved round-robin, so host drift spreads
over all of them: at least five rounds run, and more while the next
round still fits in ``--seconds``.  Before the rounds, each workload's
reference digest is taken once through another executor; after them,
``--trace 1`` adds one traced trial per workload for the per-layer
numbers.

The run writes ``bench/out/results.json`` (and one
``bench/out/<workload>.trace.json`` per traced trial), prints every
metric with its unit, and ends its output with one JSON line:
end-to-end metrics under ``--trace 0``, per-layer metrics under
``--trace 1``.  The exit status is 0 only if every trial ran and every
output check held.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

from compare import DETERMINISTIC, WALLS, summary
from trace import LAYER_METRICS

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "out")

# World scale per workload.  A run of one workload (reference plus five
# trials) must average about half a minute, because a benchmark check
# runs each workload 22 times within the hour.  ``sharded`` gets most of
# that budget: from 0.05 up, its traced run has the layer mix of the
# paper-scale 0.15 world (digest and merge each 13-17% of the run),
# while at 0.02 the digest is only 6%.  The other three keep their
# 0.05 mix at 0.02.
SCALES: Dict[str, float] = {
    "study": 0.02,
    "sharded": 0.05,
    "epochs": 0.02,
    "serve-mixed": 0.02,
}

END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "run_s": "s",
    "peak_rss_mb": "MiB",
}

MIN_ROUNDS = 5
TRIAL_TIMEOUT_S = 60.0

# Output digests per (workload, seed, scale): seed 7 at the scales
# above.  Each dataset digest also equals the reference executor's;
# sharded's is the 0.05 concurrent digest committed in BENCH_probe.json.
EXPECTED: Dict[tuple, Dict[str, str]] = {
    ("study", 7, 0.02): {
        "dataset": "7c833e5a191df5a0ff505741c30ed14e17422df59f1b90c585e868268686b18c",
        "render": "31d13b7e10f84d1b68925bffd58b58867fc0ae06b8e33309dcb95d71095124d8",
    },
    ("sharded", 7, 0.05): {
        "dataset": "61804c95727ce617473942f1b009ba4d8036c5fddce383ee215fbfbcd4f61cc8",
    },
    ("epochs", 7, 0.02): {
        "dataset": "90215082c8bc85816adf0cd98bf7279f74f798ea125d94ec568635e683014c86",
        "chain": "523fd8a295e4611c51ff9c89691e5763809e0e913275944333b52360db5ad17c",
    },
    ("serve-mixed", 7, 0.02): {
        "serving": "f387da0e7b8090cf57b32f27c61e96bdc2b1ba5002b7f221f081e2401bb3d00b",
    },
}


def _env() -> Dict[str, str]:
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC + (os.pathsep + path if path else "")
    return env


def run_trial(mode: str, workload: str, seed: int, scale: float, *extra: str) -> dict:
    """Run one ``bench/trial.py`` process; a failure comes back as
    ``{"error": ...}``."""
    command = [
        sys.executable,
        os.path.join(BENCH_DIR, "trial.py"),
        mode,
        workload,
        str(seed),
        repr(scale),
        *extra,
    ]
    process = subprocess.Popen(
        command,
        cwd=ROOT,
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        # Its own process group, so a hung trial is stopped together
        # with any shard workers it forked.
        start_new_session=True,
    )
    try:
        out, err = process.communicate(timeout=TRIAL_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(process.pid, signal.SIGKILL)
        process.communicate()
        return {"error": f"{mode} trial timed out after {TRIAL_TIMEOUT_S:.0f} s"}
    if process.returncode != 0:
        tail = err.strip().splitlines()[-1:] or [f"exit {process.returncode}"]
        return {"error": f"{mode} trial failed: {tail[0]}"}
    return json.loads(out.strip().splitlines()[-1])


class WorkloadRuns:
    """Everything one invocation ran for one workload."""

    def __init__(self, name: str, scale: float) -> None:
        self.name = name
        self.scale = scale
        self.reference: dict = {}
        self.timed: List[dict] = []
        self.traced: Optional[dict] = None

    def any_failed(self) -> bool:
        return any("error" in trial for trial in self.timed + [self.reference])

    def report(self, expected: Optional[Dict[str, str]]) -> dict:
        """Check the outputs and summarize the metrics.

        Every trial must produce the same outputs and the same
        deterministic counts; the dataset digest must match the
        reference executor's and, where known, the committed digests.
        The reference run counts as one more operation attempted.
        """
        trials = self.timed + ([self.traced] if self.traced else [])
        problems = [trial["error"] for trial in trials if "error" in trial]
        good = [trial for trial in trials if "error" not in trial]
        truth = good[0]["outputs"] if good else {}
        agreeing = [trial for trial in good if _observed(trial) == _observed(good[0])]
        if len(agreeing) < len(good):
            problems.append(
                f"{len(good) - len(agreeing)} of {len(good)} trials "
                "disagree with the first on the outputs or counts"
            )
        reference = self.reference.get("reference")
        if "error" in self.reference:
            problems.append(self.reference["error"])
        elif truth and reference is not None and truth["dataset"] != reference:
            problems.append("dataset digest differs from the reference executor's")
            agreeing = []
        if truth and expected is not None and truth != expected:
            problems.append("outputs differ from the committed digests")
            agreeing = []
        attempted = len(trials) + 1
        failed = len(trials) - len(agreeing) + ("error" in self.reference)

        timed = [trial for trial in self.timed if "error" not in trial]
        metrics, walls, counters = {}, {}, {}
        if timed:
            for name, unit in END_TO_END.items():
                metrics[name] = _summarize([trial[name] for trial in timed], unit)
            for name in WALLS.values():
                walls[name] = _summarize([trial[name] for trial in timed], "s")
            known = {**timed[0]["counters"], **_per_op(timed[0])}
            if self.traced is not None and "error" not in self.traced:
                known.update(self.traced["layers"])
            counters = {name: known[name] for name in DETERMINISTIC if name in known}
        layers = {}
        if self.traced is not None and "error" not in self.traced and timed:
            traced = self.traced
            values = {name: 0.0 for name in LAYER_METRICS}
            values.update(traced["layers"])
            values.update(traced["counters"])
            values.update(_per_op(traced))
            # Wall figures taken inside the run come from the untraced
            # trials: tracing would inflate them.
            for name in timed[0]["timed"]:
                values[name] = statistics.median(
                    trial["timed"][name] for trial in timed
                )
            values["trace.overhead"] = (
                traced["run_s"] / metrics["run_s"]["value"] - 1.0
            )
            layers = {
                name: {"unit": unit, "value": values[name]}
                for name, unit in LAYER_METRICS.items()
            }
        return {
            "scale": self.scale,
            "trials": len(self.timed),
            "attempted": attempted,
            "failed": failed,
            "problems": problems,
            "outputs": truth,
            "reference": reference,
            "metrics": metrics,
            "walls": walls,
            "counters": counters,
            "layers": layers,
        }


def _observed(trial: dict) -> tuple:
    """What a trial produced that must not vary between trials."""
    return trial["outputs"], trial["counters"], trial["ops"], trial["datagrams"]


def _per_op(trial: dict) -> Dict[str, float]:
    return {"net.datagrams_per_op": trial["datagrams"] / trial["ops"]}


def _summarize(samples: List[float], unit: str) -> dict:
    stats = summary(samples)
    return {
        "unit": unit,
        "value": stats["median"],
        "q1": stats["q1"],
        "q3": stats["q3"],
        "samples": samples,
    }


def _commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def run_benchmark(
    names: List[str],
    seed: int,
    seconds: float,
    trace: bool,
    min_rounds: int = MIN_ROUNDS,
    scale: Optional[float] = None,
    expected: Dict[tuple, Dict[str, str]] = EXPECTED,
    out_dir: str = OUT_DIR,
    log=sys.stderr,
) -> dict:
    """Run the invocation and return its results document.

    ``scale`` overrides every workload's scale (the smoke test uses a
    tiny world); trace files go to ``out_dir``.
    """
    clock = time.perf_counter
    header = {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "seed": seed,
        "seconds": seconds,
        "min_rounds": min_rounds,
        "trace": trace,
    }
    runs = [WorkloadRuns(name, scale or SCALES[name]) for name in names]
    os.makedirs(out_dir, exist_ok=True)
    for run in runs:
        run.reference = run_trial("reference", run.name, seed, run.scale)

    started = clock()
    round_times: List[float] = []
    while not any(run.any_failed() for run in runs):
        if len(round_times) >= min_rounds and (
            clock() - started + statistics.median(round_times) > seconds
        ):
            break
        round_started = clock()
        for run in runs:
            trial = run_trial("timed", run.name, seed, run.scale)
            run.timed.append(trial)
            print(
                f"[{run.name}] trial {len(run.timed)}: "
                + (trial["error"] if "error" in trial
                   else f"setup {trial['setup_s']:.3f} s, run {trial['run_s']:.3f} s"),
                file=log,
            )
        round_times.append(clock() - round_started)
    header["rounds"] = len(round_times)

    if trace and not any(run.any_failed() for run in runs):
        for run in runs:
            path = os.path.join(out_dir, f"{run.name}.trace.json")
            run.traced = run_trial("traced", run.name, seed, run.scale, path)

    workloads = {
        run.name: run.report(expected.get((run.name, seed, run.scale)))
        for run in runs
    }
    reports = list(workloads.values())
    return {
        "header": header,
        "correct": all(
            not report["failed"]
            and report["metrics"]
            and (report["layers"] or not trace)
            for report in reports
        ),
        "attempted": sum(report["attempted"] for report in reports),
        "failed": sum(report["failed"] for report in reports),
        "workloads": workloads,
    }


def render(results: dict) -> str:
    lines = []
    for name, report in results["workloads"].items():
        lines.append(
            f"{name}: scale {report['scale']}, {report['trials']} timed trials, "
            f"{report['failed']}/{report['attempted']} failed"
        )
        lines.extend(f"  PROBLEM {problem}" for problem in report["problems"])
        for metric, value in {**report["metrics"], **report["walls"]}.items():
            lines.append(
                f"  {metric:<28} {value['value']:>12.4f} {value['unit']:<12}"
                f" [q1 {value['q1']:.4f}, q3 {value['q3']:.4f}]"
            )
        idle = 0
        for metric, value in report["layers"].items():
            if value["value"]:
                lines.append(
                    f"  {metric:<28} {value['value']:>12.4f} {value['unit']}"
                )
            else:
                idle += 1
        if report["layers"]:
            lines.append(f"  ({idle} per-layer metrics read 0: layer not entered)")
    return "\n".join(lines)


def result_line(results: dict, trace: bool) -> str:
    """The closing JSON line: end-to-end metrics, or per-layer ones when
    traced; names carry a ``workload:`` prefix when several ran."""
    several = len(results["workloads"]) > 1
    metrics = {}
    for name, report in results["workloads"].items():
        for metric, value in report["layers" if trace else "metrics"].items():
            key = f"{name}:{metric}" if several else metric
            metrics[key] = {"value": value["value"], "unit": value["unit"]}
    return json.dumps(
        {
            "correct": results["correct"],
            "attempted": results["attempted"],
            "failed": results["failed"],
            "metrics": metrics,
        }
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Whole-run benchmark.")
    parser.add_argument(
        "--workload", "--workloads", dest="workloads", nargs="+",
        choices=sorted(SCALES), default=list(SCALES), metavar="NAME",
        help=f"workloads to run (default: all of {', '.join(SCALES)})",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float, default=0.0,
        help=f"keep adding rounds past {MIN_ROUNDS} while they fit in this budget",
    )
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    results = run_benchmark(args.workloads, args.seed, args.seconds, bool(args.trace))
    with open(os.path.join(OUT_DIR, "results.json"), "w", encoding="utf-8") as handle:
        json.dump(results, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(render(results))
    print(result_line(results, bool(args.trace)))
    return 0 if results["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
