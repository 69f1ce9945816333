"""One benchmark trial in a fresh interpreter.

Usage::

    python3 bench/trial.py timed|traced|reference WORKLOAD SEED SCALE [TRACE_OUT]

``timed`` and ``traced`` generate the world (set-up), run the workload,
and print one JSON line with the trial's times, peak RSS and outcome;
``traced`` also wraps the span table first and writes every span to
TRACE_OUT.  ``reference`` prints the dataset digest another executor
produces for the same (seed, scale).  The orchestrator
(``bench/run.py``) puts ``src`` on ``PYTHONPATH``.

A shared host's speed drifts by tens of percent within minutes, for
the workload and any other code alike.  A :class:`SpeedProbe` therefore
times a fixed kernel every few milliseconds while the trial runs, and
each phase's wall time is also reported scaled to the probe's reference
speed: ``setup_s`` and ``run_s`` are the seconds the phase would take
on a host where the kernel runs in ``REFERENCE_KERNEL_S``.  The raw
wall times are kept beside them.
"""

from __future__ import annotations

import dataclasses
import json
import os
import resource
import signal
import statistics
import sys
import time

import trace
import workloads

# Median kernel time on the 2-core reference host when it is quiet.
REFERENCE_KERNEL_S = 0.00037
PROBE_INTERVAL_S = 0.02

_PROBE_TABLE = bytes(range(256)) * (1 << 14)  # 4 MiB


def _kernel() -> None:
    # Dependent reads scattered over 4 MiB: the drift on the reference
    # host is mostly contention for caches and memory, which a kernel
    # that stays in cache does not feel.  It allocates nothing the GC
    # tracks, so it never shifts the workload's collections.
    table = _PROBE_TABLE
    key = 1
    for _ in range(1500):
        key = (key * 1103515245 + 12345 + table[key & 0x3FFFFF]) & 0x3FFFFFFF


class SpeedProbe:
    """Times ``_kernel`` on SIGALRM every ``PROBE_INTERVAL_S`` seconds.

    The handler runs between bytecodes of the main thread, so it sees
    the same CPU, caches and neighbours as the workload.  Forked shard
    workers do not inherit the interval timer.
    """

    def __init__(self) -> None:
        self.samples: list = []

    def _sample(self, signum, frame) -> None:
        started = time.perf_counter()
        _kernel()
        self.samples.append(time.perf_counter() - started)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scale(self, first: int, last: int) -> float:
        """Reference speed over the speed seen between two sample counts
        (the whole trial's if the phase was too short to sample)."""
        window = self.samples[first:last]
        if len(window) < 5:
            window = self.samples
        return REFERENCE_KERNEL_S / statistics.median(window)


def _peak_rss_mb() -> float:
    # Shard workers are waited-for children; the peak of the larger of
    # the two is the trial's memory footprint.  ru_maxrss is in KiB.
    peak = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return peak / 1024.0


def main(argv) -> int:
    mode, name, seed, scale = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = workloads.WORKLOADS[name]
    if mode == "reference":
        digest = workload.reference(seed, scale) if workload.reference else None
        print(json.dumps({"reference": digest}))
        return 0
    if mode not in ("timed", "traced"):
        raise SystemExit(f"unknown trial mode {mode!r}")
    tracer = None
    if mode == "traced":
        tracer = trace.Tracer()
        tracer.install()
    # One CPU for the whole trial, shard workers included: the probe
    # then always measures the CPU the work runs on.  Both CPUs of a
    # shared 2-CPU host drift independently, and no probe in one process
    # follows work spread over both.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    probe = SpeedProbe()
    clock = time.perf_counter
    probe.start()
    started = clock()
    world = workload.setup(seed, scale)
    set_up, setup_samples = clock(), len(probe.samples)
    outcome = workload.run(world, seed)
    finished = clock()
    probe.stop()
    wall_setup, wall_run = set_up - started, finished - set_up
    result = {
        "setup_s": wall_setup * probe.scale(0, setup_samples),
        "run_s": wall_run * probe.scale(setup_samples, len(probe.samples)),
        "wall_setup_s": wall_setup,
        "wall_run_s": wall_run,
        "peak_rss_mb": _peak_rss_mb(),
        **dataclasses.asdict(outcome),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(finished - started)
        tracer.write(
            argv[4],
            {"workload": name, "seed": seed, "scale": scale},
            origin=started,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
