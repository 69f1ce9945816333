"""Sharded multiprocess campaign execution with a deterministic merge.

The concurrent engine (PR 2) collapsed *simulated* time ~10× but left
wall-clock nearly untouched: a campaign is CPU-bound inside one Python
process, and the paper-scale target list (~147k domains) makes
wall-clock the binding constraint for the ROADMAP's re-run-at-many-
seeds ambition.  DNS measurement is embarrassingly parallel at the
domain level (ZDNS's core observation), so this module partitions the
target list into K shards and runs each in its own worker process.

Determinism contract
--------------------
The merged dataset digest is **identical for every shard count,
including K=1, and identical to the single-process concurrent engine**.
Three mechanisms carry that promise:

1. **Stable shard membership.**  A domain's shard is
   ``sha256(registered_domain) % K`` — a pure function of the domain
   and K, independent of target ordering, of Python's per-process hash
   seed, and of the divisor layout (going from K=4 to K=8 moves
   domains, but two runs at the same K always agree).  Hashing the
   *registered* domain co-locates nested targets with their parent.
2. **Per-domain purity.**  After the prober's deterministic warm phase
   freezes the zone-cut cache (:meth:`repro.dns.cache.ZoneCutCache.freeze`),
   every domain's walk cost and observations are a pure function of
   (domain, world): no cross-domain cache races, no mid-campaign TTL
   expiry, no interleaving effects.  Shard-local warming covers the
   same ancestor chains full warming would (every enclosing cut of a
   target lies on its own parent's walk), so all layouts freeze
   equivalent views.  In default worlds the network RNG is never drawn
   (no lossy hosts, fixed latency), completing the purity argument; for
   chaos/lossy worlds each worker derives per-shard RNG streams, which
   keeps runs *reproducible* per (seed, K) though not K-invariant.
3. **Order-free merge.**  Workers ship each result's canonical row
   (:func:`repro.core.journal.result_row`, the bytes the digest is
   defined over).  The parent pairs each worker's rows with the
   domains of its own partition, checks their count and identity on
   the bytes, and merges them back into the campaign's sorted
   admission order (:meth:`repro.core.dataset.MeasurementDataset.merge`),
   so worker completion order is invisible.  The rows are the merged
   dataset's stored form: its digest streams them, and a
   :class:`~repro.core.dataset.ProbeResult` is decoded only when a
   caller asks for one.

Workers prefer the ``fork`` start method (the parent's generated world
is inherited copy-on-write — nothing about it is pickled or
re-generated); under ``spawn`` each worker regenerates the world from
``world.config``, re-derives the identical target list and keeps the
parent's subset of it.  :meth:`ProcessCampaignRunner.run` brackets the
fan-out and the merge in :func:`gc.freeze` / :func:`gc.unfreeze`, so no
full collection, in a worker or in the parent, walks the read-only world
or copies the pages a forked worker shares with the parent (DESIGN.md,
"Heap discipline").  Journals are per-shard files under a manifest (see
:mod:`repro.core.journal`).

:func:`run_campaign` is the one executor every pipeline calls: inline
when ``shards`` is None, this runner otherwise.  Its inline branch is
also the body each worker runs, and both report
:class:`CampaignCounters`.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import random
import traceback
from collections import Counter
from dataclasses import dataclass, field
from multiprocessing.connection import wait as _connection_wait
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

from ..dns.errors import NameError_
from ..dns.name import DnsName
from ..net.events import CampaignAborted
from .dataset import MeasurementDataset
from .journal import (
    CampaignJournal,
    campaign_digest,
    result_row,
    row_is_for,
    shard_journal_path,
    write_shard_manifest,
)
from .probe import ActiveProber, ProbeConfig

__all__ = [
    "CampaignCounters",
    "ProcessCampaignRunner",
    "government_suffixes",
    "partition",
    "run_campaign",
    "shard_index",
    "shard_key",
]


# ----------------------------------------------------------------------
# Shard membership
# ----------------------------------------------------------------------
def government_suffixes(seeds) -> FrozenSet[DnsName]:
    """The public-suffix set sharding keys off: every seed that is a
    reserved government suffix (``gov.au``) rather than a registered
    domain (``regjeringen.no``)."""
    return frozenset(seed.d_gov for seed in seeds if seed.is_suffix)


def shard_key(domain: DnsName, suffixes: FrozenSet[DnsName]) -> DnsName:
    """The name a domain is sharded by: its registered domain.

    Keying on the registered domain rather than the FQDN co-locates a
    registered domain with everything beneath it, so related targets
    land in one worker.  Domains with no registrable form (TLD-level
    oddities) shard by their own name.
    """
    try:
        return domain.registered_domain(suffixes)
    except NameError_:
        return domain


def shard_index(
    domain: DnsName, shards: int, suffixes: FrozenSet[DnsName]
) -> int:
    """Which of ``shards`` shards owns ``domain``.

    sha256, never :func:`hash`: builtin string hashing is randomized
    per process (PYTHONHASHSEED), and shard membership must be a pure
    function of the domain.
    """
    digest = hashlib.sha256(str(shard_key(domain, suffixes)).encode()).digest()
    return int.from_bytes(digest[:8], "big") % shards


def partition(
    targets: Dict[DnsName, str],
    shards: int,
    suffixes: FrozenSet[DnsName],
) -> List[Dict[DnsName, str]]:
    """Split {domain → ISO2} into ``shards`` disjoint maps, each in
    sorted (admission) order."""
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    parts: List[Dict[DnsName, str]] = [{} for _ in range(shards)]
    for domain in sorted(targets):
        parts[shard_index(domain, shards, suffixes)][domain] = targets[domain]
    return parts


# ----------------------------------------------------------------------
# Worker protocol
# ----------------------------------------------------------------------
# The CampaignCounters fields ``+=`` adds up.
_SUMMED = (
    "targets",
    "queries_sent",
    "warm_queries",
    "network_queries",
    "timeouts",
    "simulated_seconds",
    "retransmits",
    "journal_replayed_sends",
    "journal_recovered_results",
)


@dataclass
class CampaignCounters:
    """What a campaign cost and what its failure machinery did: the one
    counter set every executor reports.

    ``+=`` sums two probes run one after another on one clock; a fold
    across shards (:meth:`fold_shards`) sums the counts but takes the
    slowest shard's virtual seconds, since workers advance private
    clock copies side by side.  The journal flags are or-ed.  ``chaos``
    is the chaos-stats delta (empty when no schedule was installed);
    ``persistence`` counts the results' ``failure_persistence`` values.
    ``per_shard`` is set only by a fold; ``+=`` clears it, so a summed
    counter never shows a partial breakdown.
    """

    targets: int = 0
    queries_sent: int = 0
    warm_queries: int = 0
    network_queries: int = 0
    timeouts: int = 0
    simulated_seconds: float = 0.0
    retransmits: int = 0
    chaos: Dict[str, int] = field(default_factory=dict)
    persistence: Dict[str, int] = field(default_factory=dict)
    # The checkpoint journal, when the campaign kept one.
    journaled: bool = False
    resumed: bool = False
    journal_replayed_sends: int = 0
    journal_recovered_results: int = 0
    # The per-worker counters behind a fold, in shard order.
    per_shard: Tuple["CampaignCounters", ...] = field(
        default=(), repr=False, compare=False
    )

    def __iadd__(self, other: "CampaignCounters") -> "CampaignCounters":
        for name in _SUMMED:
            setattr(self, name, getattr(self, name) + getattr(other, name))
        for name in ("chaos", "persistence"):
            mine = getattr(self, name)
            for key, count in getattr(other, name).items():
                mine[key] = mine.get(key, 0) + count
        self.journaled = self.journaled or other.journaled
        self.resumed = self.resumed or other.resumed
        self.per_shard = ()
        return self

    @classmethod
    def fold_shards(
        cls, shards: List["CampaignCounters"]
    ) -> "CampaignCounters":
        total = cls()
        for part in shards:
            total += part
        total.simulated_seconds = max(
            (part.simulated_seconds for part in shards), default=0.0
        )
        total.per_shard = tuple(shards)
        return total


# What one worker ships back: each result's canonical row (its
# ``result_row``, in the worker's admission order) plus its counters.
_Payload = Tuple[List[bytes], CampaignCounters]


@dataclass
class _ShardTask:
    """Everything one worker needs.  Under ``spawn`` this is pickled,
    so the fork-only fields (the live world and pre-partitioned
    targets) are stripped first; the worker then regenerates both."""

    index: int
    shards: int
    seed: int
    scale: float
    config: ProbeConfig
    chaos_profile: Optional[str]
    journal_path: Optional[str]
    kill_at_event: Optional[int]
    epoch: int = 0
    subset: Tuple[str, ...] = ()
    world: Any = field(default=None, repr=False)
    shard_targets: Optional[Dict[DnsName, str]] = field(
        default=None, repr=False
    )

    def materialize(self) -> Tuple[Any, Dict[DnsName, str]]:
        if self.world is not None and self.shard_targets is not None:
            return self.world, self.shard_targets
        # Spawn path: regenerate the identical world and re-derive the
        # identical target list (both pure functions of seed/scale),
        # keep the parent's subset, then take this worker's slice of
        # the canonical partition.  Epoch k's world is seed/scale world
        # plus churn plans 1..k — also pure, so spawned workers
        # converge with forked ones.
        from ..worldgen.churn import world_at_epoch
        from .study import GovernmentDnsStudy

        world = world_at_epoch(self.seed, self.scale, self.epoch)
        study = GovernmentDnsStudy(world, probe_config=self.config)
        wanted = set(self.subset)
        targets = {
            domain: iso2
            for domain, iso2 in study.targets().items()
            if str(domain) in wanted
        }
        suffixes = government_suffixes(study.seeds().values())
        return world, partition(targets, self.shards, suffixes)[self.index]


def _open_journal(path: Optional[str]) -> Optional[CampaignJournal]:
    """Resume the journal at ``path`` if one exists, else start it."""
    if path is None:
        return None
    if os.path.exists(path):
        return CampaignJournal.resume(path)
    return CampaignJournal.create(path)


def _run_inline(
    world,
    targets: Dict[DnsName, str],
    config: ProbeConfig,
    journal_path: Optional[str] = None,
    kill_at_event: Optional[int] = None,
) -> Tuple[MeasurementDataset, CampaignCounters]:
    """Probe ``targets`` in this process and count what it cost: the
    inline executor, and the body every shard worker runs.

    ``kill_at_event`` arms the kill harness relative to the events
    already fired (world generation, seed selection), so it counts
    campaign events only.
    """
    network = world.network
    journal = _open_journal(journal_path)
    prober = ActiveProber(
        network,
        world.root_addresses,
        world.probe_source,
        config=config,
        journal=journal,
    )
    chaos = network.chaos
    base_chaos = chaos.stats.as_dict() if chaos is not None else {}
    started_at = world.clock.now
    base_queries = network.stats.queries_sent
    base_timeouts = network.stats.timeouts
    if kill_at_event is not None:
        network.events.abort_after = network.events.fired + kill_at_event
    dataset = prober.probe_all(targets)
    persistence = Counter(result.failure_persistence for result in dataset)
    del persistence[None]  # nothing to classify
    chaos_delta = (
        {
            key: count - base_chaos[key]
            for key, count in chaos.stats.as_dict().items()
        }
        if chaos is not None
        else {}
    )
    counters = CampaignCounters(
        targets=len(targets),
        queries_sent=prober.queries_sent,
        warm_queries=prober.warm_queries,
        network_queries=network.stats.queries_sent - base_queries,
        timeouts=network.stats.timeouts - base_timeouts,
        simulated_seconds=world.clock.now - started_at,
        retransmits=prober.retransmits,
        chaos=chaos_delta,
        persistence=dict(persistence),
    )
    if journal is not None:
        counters.journaled = True
        counters.resumed = journal.resuming
        counters.journal_replayed_sends = journal.replayed_sends
        counters.journal_recovered_results = journal.recovered_results
    return dataset, counters


def _shard_worker(task: _ShardTask, conn) -> None:
    """Run one shard's campaign and ship results over ``conn``.

    Every exit path reports: success sends ``("ok", rows, counters)``,
    the kill harness sends ``("aborted", fired)``, and any other
    failure sends ``("error", traceback)`` before re-raising so the
    parent never hangs on a silent corpse.
    """
    try:
        world, shard_targets = task.materialize()
        network = world.network
        if task.chaos_profile is not None and network.chaos is None:
            from ..serve.profiles import install_chaos_profile

            install_chaos_profile(network, task.chaos_profile, task.seed)
        if task.shards > 1:
            # Disjoint derived streams per worker: sharing the base
            # stream would make each worker's draws depend on traffic
            # it never sees.  K=1 keeps the original streams so the
            # single-shard runner is bit-identical to the in-process
            # engine even on chaos/lossy worlds.
            material = f"{task.seed}:shard:{task.index}"
            network.restore_rng_state(random.Random(material).getstate())
            if network.chaos is not None:
                network.chaos.derive_rng(task.index)
        journal_path = (
            shard_journal_path(task.journal_path, task.index)
            if task.journal_path is not None
            else None
        )
        dataset, counters = _run_inline(
            world,
            shard_targets,
            task.config,
            journal_path,
            task.kill_at_event,
        )
        conn.send(
            ("ok", [result_row(result) for result in dataset], counters)
        )
    except CampaignAborted as aborted:
        conn.send(("aborted", aborted.fired))
    except BaseException:
        conn.send(("error", traceback.format_exc()))
        raise
    finally:
        conn.close()


# ----------------------------------------------------------------------
# The runner
# ----------------------------------------------------------------------
class ProcessCampaignRunner:
    """Partition, fan out, collect, merge — deterministically.

    Parameters mirror :func:`run_campaign`'s: the generated world, the
    target list, the probe config, and the suffix set the shard hash
    keys off.  ``kill_at_event`` arms the kill harness in every worker.
    """

    def __init__(
        self,
        world,
        targets: Dict[DnsName, str],
        config,
        shards: int,
        suffixes: FrozenSet[DnsName],
        journal_path: Optional[str] = None,
        kill_at_event: Optional[int] = None,
        epoch: Optional[int] = None,
    ) -> None:
        if shards < 1:
            raise ValueError(f"shards must be >= 1, got {shards}")
        self._world = world
        self._targets = dict(targets)
        self._config = config
        self.shards = shards
        self._journal_path = journal_path
        self._kill_at_event = kill_at_event
        # Longitudinal context: which measurement epoch these targets
        # belong to.  Spawned workers replay churn to this epoch, and
        # merge-collision errors carry the epoch label (the world passed
        # in must already be advanced to it).
        self._epoch = epoch
        self._parts = partition(self._targets, shards, suffixes)
        self.shard_stats: List[CampaignCounters] = []

    # ------------------------------------------------------------------
    def _context(self):
        methods = multiprocessing.get_all_start_methods()
        return multiprocessing.get_context(
            "fork" if "fork" in methods else "spawn"
        )

    def _chaos_profile_name(self) -> Optional[str]:
        chaos = self._world.network.chaos
        return chaos.name if chaos is not None else None

    def _tasks(self, forked: bool) -> List[_ShardTask]:
        from ..net.chaos import PROFILES

        chaos_name = self._chaos_profile_name()
        if not forked and chaos_name is not None and chaos_name not in PROFILES:
            raise ValueError(
                f"cannot shard a custom chaos schedule ({chaos_name!r}) "
                f"without the fork start method: workers rebuild chaos "
                f"from its profile name"
            )
        parts = self._parts
        config = self._world.config
        # Under spawn, the (possibly partial) target list travels by
        # name so workers can slice the re-derived full list.
        subset = (
            () if forked
            else tuple(sorted(str(domain) for domain in self._targets))
        )
        return [
            _ShardTask(
                index=index,
                shards=self.shards,
                seed=config.seed,
                scale=config.scale,
                config=self._config,
                chaos_profile=chaos_name,
                journal_path=self._journal_path,
                kill_at_event=self._kill_at_event,
                epoch=self._epoch or 0,
                subset=subset,
                world=self._world if forked else None,
                shard_targets=parts[index] if forked else None,
            )
            for index in range(self.shards)
        ]

    # ------------------------------------------------------------------
    def collect(self) -> List[_Payload]:
        """Fan out the workers and gather per-shard payloads (in shard
        order).  Raises :class:`CampaignAborted` if any worker hit the
        kill harness, RuntimeError if any worker failed."""
        if self._journal_path is not None:
            chaos_name = self._chaos_profile_name()
            write_shard_manifest(
                self._journal_path,
                self.shards,
                campaign_digest(
                    self._targets, self._config.identity(), chaos_name
                ),
            )
        context = self._context()
        forked = context.get_start_method() == "fork"
        tasks = self._tasks(forked)
        payloads: Dict[int, _Payload] = {}
        pending: Dict[Any, Tuple[int, Any]] = {}
        workers = []
        for task in tasks:
            if not task.shard_targets and forked:
                # Nothing to probe (K exceeds distinct shard keys):
                # skip the process, synthesize an empty payload.
                payloads[task.index] = ([], CampaignCounters())
                continue
            receiver, sender = context.Pipe(duplex=False)
            process = context.Process(
                target=_shard_worker, args=(task, sender), daemon=True
            )
            process.start()
            sender.close()
            pending[receiver] = (task.index, process)
            workers.append(process)
        aborted_fired: List[int] = []
        errors: List[Tuple[int, str]] = []
        try:
            while pending:
                ready = _connection_wait(list(pending), timeout=5.0)
                if not ready:
                    for receiver in list(pending):
                        index, process = pending[receiver]
                        if not process.is_alive() and not receiver.poll():
                            raise RuntimeError(
                                f"shard {index} worker died (exit code "
                                f"{process.exitcode}) without reporting"
                            )
                    continue
                for receiver in ready:
                    index, process = pending.pop(receiver)
                    try:
                        message = receiver.recv()
                    except EOFError:
                        raise RuntimeError(
                            f"shard {index} worker closed its pipe "
                            f"without reporting (exit code "
                            f"{process.exitcode})"
                        )
                    finally:
                        receiver.close()
                    kind = message[0]
                    if kind == "ok":
                        payloads[index] = (message[1], message[2])
                    elif kind == "aborted":
                        aborted_fired.append(message[1])
                    else:
                        errors.append((index, message[1]))
        finally:
            for process in workers:
                process.join(timeout=30.0)
        if errors:
            detail = "\n".join(
                f"--- shard {index} ---\n{trace}"
                for index, trace in sorted(errors)
            )
            raise RuntimeError(f"sharded campaign worker(s) failed:\n{detail}")
        if aborted_fired:
            raise CampaignAborted(sum(aborted_fired))
        return [payloads[index] for index in sorted(payloads)]

    def merge(self, collected: List[_Payload]) -> MeasurementDataset:
        """Pair each shard's rows with its partition's domains, check
        count and order on the bytes, and merge without decoding."""
        self.shard_stats = [stats for _, stats in collected]
        parts = self._parts
        if len(collected) != len(parts):
            raise RuntimeError(
                f"sharded merge lost domains: {len(collected)} payloads "
                f"for {len(parts)} shards"
            )
        labels = [f"shard {index}" for index in range(len(parts))]
        datasets = []
        for label, domains, (rows, _) in zip(labels, parts, collected):
            if len(rows) != len(domains) or not all(
                map(row_is_for, rows, domains)
            ):
                raise RuntimeError(
                    f"{label} shipped {len(rows)} rows that do not match "
                    f"its {len(domains)} domains in order"
                )
            datasets.append(
                MeasurementDataset.from_rows(dict(zip(domains, rows)))
            )
        return MeasurementDataset.merge(
            datasets, labels=labels, epoch=self._epoch
        )

    def run(self) -> MeasurementDataset:
        """Collect and merge inside a frozen heap (see the module
        docstring).  A caller that already froze keeps its bracket:
        the heap is unfrozen only if this call froze it."""
        outermost = gc.get_freeze_count() == 0
        gc.freeze()
        try:
            return self.merge(self.collect())
        finally:
            if outermost:
                gc.unfreeze()


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
def run_campaign(
    world,
    targets: Dict[DnsName, str],
    config: ProbeConfig,
    *,
    shards: Optional[int] = None,
    suffixes: FrozenSet[DnsName],
    epoch: Optional[int] = None,
    journal_path: Optional[str] = None,
    kill_at_event: Optional[int] = None,
) -> Tuple[MeasurementDataset, CampaignCounters]:
    """Run the §III campaign over ``targets`` — the one place that
    picks the executor.

    ``shards=None`` probes in this process; any integer K fans out over
    K worker processes (:class:`ProcessCampaignRunner`) and folds their
    counters.  The dataset digest is the same either way.  ``epoch``
    labels a longitudinal probe for merge errors and spawned workers;
    ``journal_path`` records (or resumes) a checkpoint journal;
    ``kill_at_event`` aborts the campaign (:class:`CampaignAborted`)
    after that many scheduler events, in every worker when sharded.
    """
    if shards is None:
        return _run_inline(
            world, targets, config, journal_path, kill_at_event
        )
    runner = ProcessCampaignRunner(
        world,
        targets,
        config,
        shards=shards,
        suffixes=suffixes,
        journal_path=journal_path,
        kill_at_event=kill_at_event,
        epoch=epoch,
    )
    dataset = runner.run()
    return dataset, CampaignCounters.fold_shards(runner.shard_stats)
