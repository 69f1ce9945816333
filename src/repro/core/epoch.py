"""The longitudinal epoch loop: change-detection-scoped re-measurement.

One :class:`EpochRunner` owns a single evolving world and drives the
incremental re-measurement cycle the paper's 2011–2020 axis implies but
one-shot campaigns cannot afford:

1. **Bootstrap (epoch 0).**  A full campaign over the fixed target
   universe seeds the :class:`~repro.core.longitudinal.LongitudinalDataset`.
2. **Advance.**  Each epoch applies the seeded churn plan
   (:func:`~repro.worldgen.churn.advance_world`), so the in-place world
   equals ``world_at_epoch(seed, scale, k)`` at every step.
3. **Sense.**  The passive sensor (:mod:`repro.pdns.change`) emits
   per-country feeds; the runner re-probes only flagged domains, whole
   cohorts behind dead feeds (a feed with zero observations cannot be
   trusted), and a seeded audit sample.
4. **Recover.**  If an audit re-probe disagrees with the carried-
   forward result — the signature of a sensor that lied rather than
   died — the runner escalates to a full re-probe of the disagreeing
   country cohort before folding the delta in.

Because a frozen-cache subset probe is byte-identical per domain to the
same domain's row in a full campaign (the shard-purity argument of
:mod:`repro.core.shard`), the folded dataset digest matches a
from-scratch full campaign at every epoch — the certificate the bench
and CI smoke job assert.

Epoch-scoped code must stay incremental: re-walking the full world in
the steady state is exactly the cost this loop exists to avoid, and the
``DET004`` lint rule polices it for this module family.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..dns.name import DnsName
from ..pdns.change import ChangeSensor, CountryFeed, SensorNoise
from ..worldgen.churn import ChurnPlan, advance_world
from .dataset import MeasurementDataset
from .journal import dataset_row
from .longitudinal import LongitudinalDataset
from .probe import ProbeConfig
from .shard import CampaignCounters, government_suffixes, run_campaign
from .study import GovernmentDnsStudy

__all__ = ["EpochRunner", "EpochStats"]

FeedsFactory = Callable[
    [int, Dict[DnsName, str], Tuple[DnsName, ...]], Tuple[CountryFeed, ...]
]


@dataclass(frozen=True)
class EpochStats:
    """One epoch's accounting row (feeds the trend report and bench)."""

    epoch: int
    targets: int
    probed: int
    flagged: int
    audited: int
    changed: int
    dead_feeds: Tuple[str, ...]
    escalated: Tuple[str, ...]
    queries_sent: int
    warm_queries: int
    network_queries: int
    timeouts: int
    simulated_seconds: float
    responsive: int
    epoch_digest: str
    chain_digest: str

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "targets": self.targets,
            "probed": self.probed,
            "flagged": self.flagged,
            "audited": self.audited,
            "changed": self.changed,
            "dead_feeds": list(self.dead_feeds),
            "escalated": list(self.escalated),
            "queries_sent": self.queries_sent,
            "warm_queries": self.warm_queries,
            "network_queries": self.network_queries,
            "timeouts": self.timeouts,
            "simulated_seconds": round(self.simulated_seconds, 3),
            "responsive": self.responsive,
            "epoch_digest": self.epoch_digest,
            "chain_digest": self.chain_digest,
        }


class EpochRunner:
    """Drives bootstrap + N incremental (or naive full) epochs.

    Parameters
    ----------
    world:
        An already-generated epoch-0 world; the runner owns and mutates
        it from here on.
    probe_config:
        Probe engine configuration shared by every epoch.
    incremental:
        ``True`` (default) probes flagged ∪ audit ∪ dead-feed cohorts;
        ``False`` is the naive baseline that re-probes everything — same
        digests, different cost (that difference is the bench headline).
    audit_rate:
        Fraction of the universe re-probed each epoch regardless of
        sensor opinion (the lying-feed safety net).
    noise:
        Sensor noise intensities; defaults to :class:`SensorNoise`'s.
    shards:
        Worker-process count for every epoch probe, passed to
        :func:`~repro.core.shard.run_campaign` (None probes in-process);
        the epoch is threaded into the shard merge labels.
    feeds_factory:
        Test hook replacing the sensor: called as
        ``feeds_factory(epoch, targets, changed_domains)``.
    """

    def __init__(
        self,
        world,
        probe_config: Optional[ProbeConfig] = None,
        incremental: bool = True,
        audit_rate: float = 0.01,
        noise: Optional[SensorNoise] = None,
        shards: Optional[int] = None,
        feeds_factory: Optional[FeedsFactory] = None,
    ) -> None:
        self._world = world
        self._config = probe_config if probe_config is not None else ProbeConfig()
        self._seed = world.config.seed
        self._scale = world.config.scale
        study = GovernmentDnsStudy(world, probe_config=self._config)
        self._targets: Dict[DnsName, str] = study.targets()
        self._suffixes = government_suffixes(study.seeds().values())
        grouped: Dict[str, List[DnsName]] = {}
        for domain in sorted(self._targets):
            grouped.setdefault(self._targets[domain], []).append(domain)
        self._cohorts: Dict[str, Tuple[DnsName, ...]] = {
            iso2: tuple(names) for iso2, names in grouped.items()
        }
        self._sensor = ChangeSensor(
            self._seed, self._scale, noise if noise is not None else SensorNoise()
        )
        self._incremental = incremental
        self._audit_rate = audit_rate
        self._shards = shards
        self._feeds_factory = feeds_factory
        self._dataset: Optional[LongitudinalDataset] = None
        self._plans: List[ChurnPlan] = []
        self.stats: List[EpochStats] = []
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def world(self):
        return self._world

    @property
    def epoch(self) -> int:
        return self._epoch

    @property
    def targets(self) -> Dict[DnsName, str]:
        return self._targets

    @property
    def dataset(self) -> LongitudinalDataset:
        if self._dataset is None:
            raise RuntimeError("bootstrap() has not run yet")
        return self._dataset

    @property
    def plans(self) -> Tuple[ChurnPlan, ...]:
        return tuple(self._plans)

    @property
    def incremental(self) -> bool:
        return self._incremental

    # ------------------------------------------------------------------
    # Probing
    # ------------------------------------------------------------------
    def _probe(
        self, subset: Dict[DnsName, str], epoch: int
    ) -> Tuple[MeasurementDataset, CampaignCounters]:
        if not subset:
            return MeasurementDataset({}), CampaignCounters()
        return run_campaign(
            self._world,
            subset,
            self._config,
            shards=self._shards,
            suffixes=self._suffixes,
            epoch=epoch,
        )

    def _record(self, counters: CampaignCounters, **fields) -> EpochStats:
        """Append one epoch's row: its probe cost plus ``fields``."""
        stats = EpochStats(
            targets=len(self._targets),
            queries_sent=counters.queries_sent,
            warm_queries=counters.warm_queries,
            network_queries=counters.network_queries,
            timeouts=counters.timeouts,
            simulated_seconds=counters.simulated_seconds,
            **fields,
        )
        self.stats.append(stats)
        return stats

    def _audit_sample(self, epoch: int) -> Tuple[DnsName, ...]:
        rng = random.Random(f"{self._seed}:{self._scale}:audit:{epoch}")
        names = sorted(self._targets)
        count = min(len(names), max(1, round(self._audit_rate * len(names))))
        return tuple(sorted(rng.sample(names, count)))

    # ------------------------------------------------------------------
    # Epoch 0
    # ------------------------------------------------------------------
    def bootstrap(self) -> EpochStats:
        """Full campaign over the universe; seeds the delta chain."""
        if self._dataset is not None:
            raise RuntimeError("bootstrap() already ran")
        dataset, counters = self._probe(dict(self._targets), epoch=0)
        self._dataset = LongitudinalDataset(dataset)
        return self._record(
            counters,
            epoch=0,
            probed=len(dataset),
            flagged=0,
            audited=0,
            changed=len(dataset),
            dead_feeds=(),
            escalated=(),
            responsive=dataset.columns.responsive.count(1),
            epoch_digest=self._dataset.epoch_digest(0),
            chain_digest=self._dataset.chain_digest(0),
        )

    # ------------------------------------------------------------------
    # Epochs 1..N
    # ------------------------------------------------------------------
    def run_epoch(self) -> EpochStats:
        """Advance the world one epoch and fold the re-probe delta in."""
        if self._dataset is None:
            raise RuntimeError("call bootstrap() before run_epoch()")
        epoch = self._epoch + 1
        plan = advance_world(self._world, epoch)
        self._plans.append(plan)

        if self._feeds_factory is not None:
            feeds = self._feeds_factory(
                epoch, self._targets, plan.changed_domains
            )
        else:
            feeds = self._sensor.feeds_for(
                epoch, self._targets, plan.changed_domains
            )

        flagged: set = set()
        dead_feeds: List[str] = []
        audit: Tuple[DnsName, ...] = ()
        if self._incremental:
            probe_targets: Dict[DnsName, str] = {}
            for feed in feeds:
                if feed.dead:
                    # Zero observations: the feed may have missed
                    # anything, so the whole cohort goes back on the
                    # probe list.
                    dead_feeds.append(feed.iso2)
                    for domain in feed.cohort:
                        probe_targets[domain] = feed.iso2
                else:
                    for domain in feed.flagged:
                        probe_targets[domain] = feed.iso2
                        flagged.add(domain)
            audit = self._audit_sample(epoch)
            for domain in audit:
                probe_targets[domain] = self._targets[domain]
        else:
            probe_targets = dict(self._targets)

        dataset, counters = self._probe(probe_targets, epoch)

        escalated: List[str] = []
        if self._incremental:
            dead_set = set(dead_feeds)
            suspect: List[str] = []
            for domain in audit:
                if domain in flagged:
                    continue  # already on the sensor's list
                iso2 = self._targets[domain]
                if iso2 in dead_set:
                    continue  # cohort already fully re-probed
                if not self._dataset.matches(
                    domain, dataset_row(dataset, domain)
                ):
                    # The sensor reported healthy volume for this
                    # cohort yet missed a real change: nothing else it
                    # said about the cohort can be trusted this epoch.
                    suspect.append(iso2)
            escalated = sorted(set(suspect))
            if escalated:
                escalate_targets = {
                    domain: iso2
                    for iso2 in escalated
                    for domain in self._cohorts[iso2]
                    if domain not in dataset
                }
                extra, extra_counters = self._probe(escalate_targets, epoch)
                counters += extra_counters
                dataset = MeasurementDataset.merge(
                    [dataset, extra],
                    labels=["probe", "escalation"],
                    epoch=epoch,
                )

        delta = self._dataset.append_epoch(dataset)
        responsive = self._dataset.columns_at(epoch).responsive.count(1)
        self._epoch = epoch
        return self._record(
            counters,
            epoch=epoch,
            probed=len(dataset),
            flagged=len(flagged),
            audited=len(audit),
            changed=len(delta.changed),
            dead_feeds=tuple(sorted(dead_feeds)),
            escalated=tuple(escalated),
            responsive=responsive,
            epoch_digest=delta.epoch_digest,
            chain_digest=delta.chain_digest,
        )

    def run(self, epochs: int) -> List[EpochStats]:
        """Bootstrap (if needed) then run ``epochs`` churn epochs."""
        if self._dataset is None:
            self.bootstrap()
        for _ in range(epochs):
            self.run_epoch()
        return list(self.stats)
