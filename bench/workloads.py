"""The benchmark's four workloads, each driven the way its CLI command
drives it, through public functions only.

Every workload's set-up is ``generate_world``, which every pipeline
pays before its own work, and ``WORKLOADS[name].run`` is everything
after it, up to and including the pipeline's output digest.  A run
returns an :class:`Outcome`: the digests the orchestrator compares
across trials, the operation and datagram counts behind
``net.datagrams_per_op``, and the deterministic counters the traced run
reports per layer.

Module-level functions that the traced trial wraps (``render_all``,
``dataset_digest``) are called through their modules, so the wrapper
installed on the module attribute is the one that runs.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.core import journal
from repro.core.epoch import EpochRunner
from repro.core.probe import ProbeConfig
from repro.core.shard import ProcessCampaignRunner, government_suffixes
from repro.core.study import GovernmentDnsStudy
from repro.report import paperkit
from repro.report.serving import ServingReport
from repro.serve.profiles import install_chaos_profile
from repro.serve.service import RecursiveService, ServeConfig
from repro.serve.workload import (
    ClientWorkload,
    WorkloadConfig,
    targets_from_world,
    workload_digest,
)
from repro.worldgen.churn import world_at_epoch
from repro.worldgen.config import WorldConfig
from repro.worldgen.generator import WorldGenerator

# Query counts depend on the shard count (each worker warms its own
# caches), so K is fixed; 2 matches the 2-core host the bench targets.
SHARDS = 2
EPOCHS = 3
# The mixed profile's fault windows last 2-3 virtual hours from
# install, so a 600 s stream is served under chaos from end to end.
SERVE_CHAOS = "mixed"
SERVE_DURATION = 600.0
SERVE_QPS = 20.0
# serve-mixed replays streams against one fixed world and fault draw:
# which servers the draw hits makes a run's upstream traffic bimodal
# (about 1.5 or 3 datagrams per query, depending on the seed), so a
# seeded world would measure the draw, not the service.
SERVE_SCENARIO_SEED = 7


class CheckFailed(Exception):
    """A run produced output that contradicts its own accounting."""


@dataclass
class Outcome:
    """What one run of a workload produced."""

    outputs: Dict[str, str]
    ops: int
    datagrams: int
    counters: Dict[str, float] = field(default_factory=dict)
    # Wall-clock figures taken inside the run (untraced trials only
    # report them; tracing would inflate them).
    timed: Dict[str, float] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    run: Callable[..., Outcome]
    # Dataset digest of the same (seed, scale) through another executor;
    # None when the pipeline has no second path to check against.
    reference: Optional[Callable[[int, float], str]]
    # Seed of the world, when it does not follow the run's seed.
    world_seed: Optional[int] = None

    def setup(self, seed: int, scale: float):
        world_seed = seed if self.world_seed is None else self.world_seed
        return generate_world(world_seed, scale)


def generate_world(seed: int, scale: float):
    return WorldGenerator(WorldConfig(seed=seed, scale=scale)).generate()


class _NetworkMark:
    """World-level network counters from a starting point onwards."""

    def __init__(self, world) -> None:
        self._world = world
        self._start = self._read()

    def _read(self) -> Dict[str, int]:
        network = self._world.network
        return {
            "datagrams": network.stats.queries_sent,
            "net.timeouts": network.stats.timeouts,
            "net.datagrams_lost": network.stats.datagrams_lost,
            "events.fired": network.events.fired,
        }

    def delta(self) -> Dict[str, int]:
        now = self._read()
        return {key: now[key] - self._start[key] for key in now}


def _sha256(parts) -> str:
    hasher = hashlib.sha256()
    for part in parts:
        hasher.update(part.encode("utf-8"))
        hasher.update(b"\0")
    return hasher.hexdigest()


def _check_complete(dataset, targets) -> None:
    if len(dataset) != len(targets):
        raise CheckFailed(
            f"dataset holds {len(dataset)} domains for {len(targets)} targets"
        )


# ----------------------------------------------------------------------
# study: the paper end to end, inline campaign plus the five analyses
# ----------------------------------------------------------------------
def run_study(world, seed: int) -> Outcome:
    mark = _NetworkMark(world)
    study = GovernmentDnsStudy(world)
    targets = study.targets()
    campaign_start = world.clock.now
    dataset = study.dataset()
    virtual = world.clock.now - campaign_start
    rendered = paperkit.render_all(study)
    digest = journal.dataset_digest(dataset)
    _check_complete(dataset, targets)
    net = mark.delta()
    return Outcome(
        outputs={
            "dataset": digest,
            "render": _sha256(
                f"{name}\n{text}" for name, text in sorted(rendered.items())
            ),
        },
        ops=len(targets),
        datagrams=net.pop("datagrams"),
        counters={
            "study.targets": len(targets),
            "probe.virtual_campaign_s": virtual,
            **net,
        },
    )


# ----------------------------------------------------------------------
# sharded: a larger world through the forked shard runner
# ----------------------------------------------------------------------
def run_sharded(world, seed: int) -> Outcome:
    mark = _NetworkMark(world)
    study = GovernmentDnsStudy(world)
    targets = study.targets()
    runner = ProcessCampaignRunner(
        world,
        targets,
        ProbeConfig(),
        shards=SHARDS,
        suffixes=government_suffixes(study.seeds().values()),
    )
    dataset = runner.run()
    digest = journal.dataset_digest(dataset)
    _check_complete(dataset, targets)
    shards = runner.shard_stats
    if sum(s.targets for s in shards) != len(targets):
        raise CheckFailed("shard target counts do not add up to the targets")
    net = mark.delta()
    return Outcome(
        outputs={"dataset": digest},
        ops=len(targets),
        datagrams=net.pop("datagrams") + sum(s.network_queries for s in shards),
        counters={
            "study.targets": len(targets),
            "shard.worker_queries": sum(s.queries_sent for s in shards),
            "shard.warm_queries": sum(s.warm_queries for s in shards),
            "probe.virtual_campaign_s": max(
                s.simulated_seconds for s in shards
            ),
            **net,
        },
    )


# ----------------------------------------------------------------------
# epochs: bootstrap plus steady-state incremental epochs
# ----------------------------------------------------------------------
def run_epochs(world, seed: int) -> Outcome:
    mark = _NetworkMark(world)
    runner = EpochRunner(world, incremental=True)
    runner.bootstrap()
    walls = []
    for _ in range(EPOCHS):
        started = time.perf_counter()
        runner.run_epoch()
        walls.append(time.perf_counter() - started)
    steady = runner.stats[1:]
    final = runner.stats[-1]
    universe = len(runner.targets)
    net = mark.delta()
    del net["datagrams"]
    return Outcome(
        outputs={"dataset": final.epoch_digest, "chain": final.chain_digest},
        # Steady-state work: every target kept current in every epoch.
        ops=universe * EPOCHS,
        datagrams=sum(s.network_queries for s in steady),
        counters={
            "study.targets": universe,
            "epoch.probed_share": sum(s.probed for s in steady)
            / (universe * EPOCHS),
            "epoch.changed": sum(s.changed for s in steady),
            "probe.virtual_campaign_s": sum(
                s.simulated_seconds for s in runner.stats
            ),
            **net,
        },
        timed={"epoch.steady_s": statistics.median(walls)},
    )


# ----------------------------------------------------------------------
# serve-mixed: the caching recursive service under mixed chaos
# ----------------------------------------------------------------------
def run_serve(world, seed: int) -> Outcome:
    mark = _NetworkMark(world)
    config = ServeConfig()
    service = RecursiveService(
        world.network,
        world.root_addresses,
        source=world.probe_source,
        config=config,
        seed=seed,
    )
    workload = ClientWorkload(
        targets_from_world(world),
        config=WorkloadConfig(duration=SERVE_DURATION, mean_qps=SERVE_QPS),
        seed=seed,
    )
    queries = workload.generate()
    stream_digest = workload_digest(queries)
    service.warm(queries)
    world.clock.advance(config.max_ttl + 1.0)
    schedule = install_chaos_profile(
        world.network, SERVE_CHAOS, seed=SERVE_SCENARIO_SEED
    )
    started = time.perf_counter()
    answers = service.run(queries)
    serve_wall = time.perf_counter() - started
    chaos = schedule.stats.as_dict()
    report = ServingReport.collect(
        answers,
        service,
        seed=seed,
        profile=SERVE_CHAOS,
        duration=SERVE_DURATION,
        workload_digest=stream_digest,
        chaos_stats=chaos,
    )
    digest = report.digest()
    if report.total_queries != len(queries):
        raise CheckFailed(
            f"served {report.total_queries} of {len(queries)} queries"
        )
    if sum(report.state_counts.values()) != len(queries):
        raise CheckFailed("degradation states do not add up to the queries")
    net = mark.delta()
    return Outcome(
        outputs={"serving": digest},
        ops=len(queries),
        datagrams=net.pop("datagrams"),
        counters={
            "serve.failed_share": 1.0 - report.answered / len(queries),
            "serve.stale_share": report.stale_served_fraction,
            "serve.prefetches": service.prefetches,
            "serve.refreshes_run": service.refreshes_run,
            "serve.refreshes_abandoned": service.refreshes_abandoned,
            "serve.latency_p50_ms": report.latency["p50"] * 1000.0,
            "serve.latency_p99_ms": report.latency["p99"] * 1000.0,
            **{f"chaos.{name}": value for name, value in chaos.items()},
            **net,
        },
        timed={"serve.answers_per_s": len(answers) / serve_wall},
    )


# ----------------------------------------------------------------------
# References: the same dataset through the other campaign executor
# ----------------------------------------------------------------------
def sharded_digest(seed: int, scale: float) -> str:
    """Shard-count invariance: K workers must match the inline run."""
    study = GovernmentDnsStudy(generate_world(seed, scale), shards=SHARDS)
    return journal.dataset_digest(study.dataset())


def inline_digest(seed: int, scale: float) -> str:
    return journal.dataset_digest(
        GovernmentDnsStudy(generate_world(seed, scale)).dataset()
    )


def full_epoch_digest(seed: int, scale: float) -> str:
    """Incremental epochs must match a full campaign on the last
    epoch's world (``repro longitudinal --compare-full``)."""
    world = world_at_epoch(seed, scale, EPOCHS)
    return journal.dataset_digest(GovernmentDnsStudy(world).dataset())


WORKLOADS: Dict[str, Workload] = {
    "study": Workload(run_study, sharded_digest),
    "sharded": Workload(run_sharded, inline_digest),
    "epochs": Workload(run_epochs, full_epoch_digest),
    "serve-mixed": Workload(run_serve, None, world_seed=SERVE_SCENARIO_SEED),
}
