"""End-to-end study orchestration.

:class:`GovernmentDnsStudy` wires the whole methodology together the
way §III describes it: seed selection → PDNS expansion → active
probing → the §IV analyses.  It is also the object the benchmark
harness drives, one table/figure at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

from ..dns.name import DnsName
from ..dns.resolver import Resolver
from ..dns.cache import ResolverCache
from ..worldgen.generator import World
from .centralization import CentralizationAnalysis
from .consistency import ConsistencyAnalysis
from .dataset import MeasurementDataset
from .delegation import DelegationAnalysis
from .diversity import DiversityAnalysis
from .probe import ProbeConfig
from .provider_id import ProviderMatcher
from .replication import ActiveReplicationAnalysis, PdnsReplicationAnalysis
from .seeds import Seed, SeedSelector
from .shard import government_suffixes, run_campaign
from .targets import TargetListBuilder

__all__ = ["GovernmentDnsStudy"]


@dataclass
class GovernmentDnsStudy:
    """One full measurement campaign over a (synthetic) world.

    Stages are lazy and cached: ``seeds()`` runs §III-A once,
    ``dataset()`` runs the probe campaign once, and each analysis
    accessor builds on those.
    """

    world: World
    probe_config: Optional[ProbeConfig] = None
    # Number of worker processes for the active campaign (None = run
    # in-process).  Deliberately NOT part of ProbeConfig.identity():
    # the dataset is shard-count-invariant, so the campaign digest —
    # and any journal recorded under it — must not change with K.
    shards: Optional[int] = None
    _seeds: Optional[Dict[str, Seed]] = field(default=None, repr=False)
    _targets: Optional[Dict[DnsName, str]] = field(default=None, repr=False)
    _dataset: Optional[MeasurementDataset] = field(default=None, repr=False)
    _pdns_replication: Optional[PdnsReplicationAnalysis] = field(
        default=None, repr=False
    )
    _centralization: Optional[CentralizationAnalysis] = field(
        default=None, repr=False
    )

    # ------------------------------------------------------------------
    # Stage 1: seed selection (§III-A)
    # ------------------------------------------------------------------
    def seeds(self) -> Dict[str, Seed]:
        if self._seeds is None:
            # Seed verification uses the same §III-B query policy as the
            # probe campaign (3 s timeout, one retransmission).
            config = (
                self.probe_config
                if self.probe_config is not None
                else ProbeConfig()
            )
            resolver = Resolver(
                self.world.network,
                self.world.root_addresses,
                cache=ResolverCache(self.world.clock),
                source=self.world.probe_source,
                timeout=config.timeout,
                retries=config.retries,
            )
            selector = SeedSelector(
                resolver,
                self.world.tld_registry,
                self.world.whois,
                self.world.archive,
            )
            self._seeds = selector.select_all(self.world.knowledge_base)
        return self._seeds

    # ------------------------------------------------------------------
    # Stage 2: target expansion (§III-B)
    # ------------------------------------------------------------------
    def targets(self) -> Dict[DnsName, str]:
        if self._targets is None:
            builder = TargetListBuilder(self.world.pdns)
            self._targets = builder.build(self.seeds())
        return self._targets

    # ------------------------------------------------------------------
    # Stage 3: active campaign (§III-B, Figure 1)
    # ------------------------------------------------------------------
    def dataset(self) -> MeasurementDataset:
        if self._dataset is None:
            self._dataset, _ = run_campaign(
                self.world,
                self.targets(),
                self.probe_config
                if self.probe_config is not None
                else ProbeConfig(),
                shards=self.shards,
                suffixes=government_suffixes(self.seeds().values()),
            )
        return self._dataset

    # ------------------------------------------------------------------
    # Stage 4: analyses (§IV)
    # ------------------------------------------------------------------
    def pdns_replication(self) -> PdnsReplicationAnalysis:
        if self._pdns_replication is None:
            self._pdns_replication = PdnsReplicationAnalysis(
                self.world.pdns, self.seeds()
            )
        return self._pdns_replication

    def active_replication(self) -> ActiveReplicationAnalysis:
        return ActiveReplicationAnalysis(self.dataset())

    def diversity(self) -> DiversityAnalysis:
        return DiversityAnalysis(self.dataset(), self.world.geoip)

    def centralization(self) -> CentralizationAnalysis:
        if self._centralization is None:
            self._centralization = CentralizationAnalysis(
                self.pdns_replication(), ProviderMatcher()
            )
        return self._centralization

    def _government_suffixes(self) -> Dict[str, DnsName]:
        return {iso2: seed.d_gov for iso2, seed in self.seeds().items()}

    def delegation(self) -> DelegationAnalysis:
        return DelegationAnalysis(
            self.dataset(),
            registrar=self.world.registrar,
            government_suffixes=self._government_suffixes(),
        )

    def consistency(self) -> ConsistencyAnalysis:
        return ConsistencyAnalysis(
            self.dataset(),
            registrar=self.world.registrar,
            government_suffixes=self._government_suffixes(),
        )

    # ------------------------------------------------------------------
    # Headline numbers (for EXPERIMENTS.md and quick sanity checks)
    # ------------------------------------------------------------------
    def headline(self) -> Dict[str, float]:
        dataset = self.dataset()
        active = self.active_replication()
        delegation = self.delegation()
        consistency = self.consistency()
        prevalence = delegation.prevalence()
        fig13 = consistency.figure13()
        return {
            "targets": float(len(self.targets())),
            "parent_response": float(len(dataset.with_parent_response())),
            "parent_nonempty": float(len(dataset.with_nonempty_parent())),
            "responsive": float(len(dataset.responsive())),
            "share_ge2_ns": active.share_with_at_least(2),
            "single_ns_stale_share": active.figure8_overall(),
            "defective_any": prevalence["any"],
            "defective_partial": prevalence["partial"],
            "defective_full": prevalence["full"],
            "consistent_share": fig13["P=C"],
        }
