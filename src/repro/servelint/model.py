"""The static cache-survivability model.

Predicts, without running a single simulated packet, how the serving
layer (:mod:`repro.serve`) degrades per domain when a committed chaos
profile fires:

1. **Fault outlook** — :func:`~repro.net.chaos.build_profile` is reused
   *analytically*: the windows a profile commits to are inspected, and
   an address is *deterministically dead* when an outage window (or a
   latency brownout whose extra round-trip exceeds the upstream
   timeout) covers the whole serve horizon.  Loss bursts, rate limits,
   and partially-covering windows are *probabilistic* — they can mask
   a prediction but never ground one.
2. **Dead-aware resolution** — zonelint's
   :class:`~repro.zonelint.graph.StaticResolver` (the serving
   resolver's zone-cut fast path with cold-walk fallback) is run over
   the static graph with the dead set treated as silence.
3. **Cache arithmetic** — warm-time entry TTLs (clamped by the serve
   config), RFC 2308 negative TTLs, and the RFC 8767 stale window
   decide whether a dead upstream degrades to ``STALE_SERVED`` or all
   the way to ``FAILED``.

Every prediction is an *acceptable set* of degradation states, not a
point estimate: a live prefetch race can legitimately serve stale for
an instant even under a healthy upstream, so ``popular`` predictions
under prefetch admit both ``fresh`` and ``stale_served``.  The
differential oracle (:mod:`repro.servelint.verify`) holds the serve
run to exactly this set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dns.name import DnsName
from ..dns.rdata import RRType
from ..inet.address import IPv4Address
from ..net.chaos import FaultSchedule, build_profile
from ..serve.service import DegradationState, ServeConfig
from ..zonelint.graph import (
    CutStore,
    StaticResolution,
    StaticResolver,
    ZoneGraph,
)

__all__ = [
    "IDLE_PROFILE",
    "KINDS",
    "ChaosOutlook",
    "KindPrediction",
    "SurvivabilityModel",
    "kind_qname",
]

# The no-chaos baseline "profile": an empty outlook.
IDLE_PROFILE = "idle"

# Workload provenance kinds, mirroring repro.serve.workload.
KINDS = ("popular", "nxdomain", "nodata")


def kind_qname(domain: DnsName, kind: str) -> DnsName:
    """The representative qname one workload kind sends for a domain."""
    if kind == "popular":
        return domain.prepend("www")
    if kind == "nxdomain":
        # Any missing-<k> label shares the same resolution fate; the
        # oracle aggregates the whole typo pool onto this prediction.
        return domain.prepend("missing-0")
    if kind == "nodata":
        return domain
    raise ValueError(f"unknown workload kind {kind!r}")


class ChaosOutlook:
    """What one profile's committed windows mean over a serve horizon.

    ``dead`` holds addresses silenced for the *whole* horizon — the
    only faults a static model may treat as ground truth.  Everything
    else (bursts, rate limits, partially-covering windows) is recorded
    for :meth:`can_mask`: it can explain a dynamic run degrading below
    the prediction, never the reverse.
    """

    def __init__(
        self,
        name: str,
        schedule: Optional[FaultSchedule],
        addresses: Tuple[IPv4Address, ...],
        horizon: float,
        upstream_timeout: float,
    ) -> None:
        self.name = name
        dead: List[IPv4Address] = []
        partial: List[IPv4Address] = []
        fault_span = 0.0
        if schedule is not None:
            for address in addresses:
                for window in schedule.outages:
                    if not window.targets.matches(address):
                        continue
                    if window.start <= 0.0 and window.end >= horizon:
                        dead.append(address)
                    else:
                        partial.append(address)
                for brownout in schedule.brownouts:
                    if brownout.extra_seconds < upstream_timeout:
                        continue  # slower, but still answers in time
                    if not brownout.targets.matches(address):
                        continue
                    if brownout.start <= 0.0 and brownout.end >= horizon:
                        dead.append(address)
                    else:
                        partial.append(address)
            for window in schedule.outages:
                fault_span = max(fault_span, window.end - window.start)
            for brownout in schedule.brownouts:
                if brownout.extra_seconds >= upstream_timeout:
                    fault_span = max(
                        fault_span, brownout.end - brownout.start
                    )
        self.dead: FrozenSet[IPv4Address] = frozenset(dead)
        self.fault_span = fault_span
        self._partial: FrozenSet[IPv4Address] = frozenset(partial)
        self._schedule = schedule

    @property
    def has_bursts(self) -> bool:
        return self._schedule is not None and bool(self._schedule.bursts)

    def is_dead(self, address: IPv4Address) -> bool:
        return address in self.dead

    def can_mask(self, attempted: Tuple[IPv4Address, ...]) -> bool:
        """Could this profile probabilistically degrade a resolution
        whose path touches ``attempted``?"""
        if self._schedule is None:
            return False
        if self._schedule.rate_limits:
            for rule in self._schedule.rate_limits:
                if any(rule.targets.matches(a) for a in attempted):
                    return True
        for burst in self._schedule.bursts:
            if any(burst.targets.matches(a) for a in attempted):
                return True
        return any(a in self._partial for a in attempted)


@dataclass(frozen=True)
class KindPrediction:
    """Acceptable degradation states for one (domain, kind, profile)."""

    qname: DnsName
    chaos_status: str
    expected: Tuple[str, ...]
    attempted: Tuple[IPv4Address, ...]


class SurvivabilityModel:
    """Per-domain static survivability over the zone graph.

    ``duration`` is the serve horizon predictions hold over; the
    differential oracle rebuilds the model with the *observed* run
    span so windows outlived by the run downgrade to probabilistic.
    """

    def __init__(
        self,
        graph: ZoneGraph,
        addresses: Tuple[IPv4Address, ...],
        seed: int,
        config: ServeConfig = ServeConfig(),
        duration: float = 600.0,
        lossy: Tuple[IPv4Address, ...] = (),
    ) -> None:
        self._graph = graph
        self._addresses = tuple(addresses)
        self._seed = seed
        self.config = config
        self.duration = duration
        self._lossy = tuple(lossy)
        self._cuts: CutStore = {}
        self._outlooks: Dict[str, ChaosOutlook] = {}
        self._resolvers: Dict[str, StaticResolver] = {}
        self._idle_memo: Dict[Tuple[DnsName, str], StaticResolution] = {}
        self._variant_memo: Dict[
            Tuple[str, DnsName, str],
            Tuple[StaticResolution, StaticResolution],
        ] = {}

    @classmethod
    def for_world(
        cls,
        world,
        seed: int,
        config: ServeConfig = ServeConfig(),
        duration: float = 600.0,
    ) -> "SurvivabilityModel":
        """Wire a model from a generated :class:`worldgen.World`."""
        addresses = tuple(sorted(world.network.addresses()))
        lossy = tuple(
            address
            for address in addresses
            if world.network.effective_loss_rate(address) > 0.0
        )
        graph = ZoneGraph(
            world.network, tuple(world.root_addresses), world.probe_source
        )
        return cls(
            graph,
            addresses,
            seed=seed,
            config=config,
            duration=duration,
            lossy=lossy,
        )

    # ------------------------------------------------------------------
    # Outlooks and resolvers
    # ------------------------------------------------------------------
    def outlook(self, profile: str) -> ChaosOutlook:
        cached = self._outlooks.get(profile)
        if cached is None:
            schedule = None
            if profile != IDLE_PROFILE:
                schedule = build_profile(
                    profile,
                    self._addresses,
                    seed=self._seed,
                    start=0.0,
                    # Never invoked: the schedule is inspected, not run.
                    refusal_factory=lambda payload: None,
                )
            cached = ChaosOutlook(
                profile,
                schedule,
                self._addresses,
                horizon=self.duration,
                upstream_timeout=self.config.upstream_timeout,
            )
            self._outlooks[profile] = cached
        return cached

    def _resolver(self, profile: str) -> StaticResolver:
        cached = self._resolvers.get(profile)
        if cached is None:
            cached = StaticResolver(
                self._graph,
                self.outlook(profile).dead,
                cuts=self._cuts,
                # Only the idle (warm-phase) resolver grows the shared
                # delegation cache; chaos resolvers consume it.
                record=(profile == IDLE_PROFILE),
            )
            self._resolvers[profile] = cached
        return cached

    # ------------------------------------------------------------------
    # Warm phase (what the live delegation cache holds at serve start)
    # ------------------------------------------------------------------
    def warm(self, domains: "Tuple[DnsName, ...] | List[DnsName]") -> None:
        """Statically replay the serve warm phase: resolve every
        domain's popular name in sorted-qname order (exactly what
        ``RecursiveService.warm`` queries), accumulating every referral
        processed into the shared cut store.  Chaos predictions start
        their walks from these cuts, like the live serve run does."""
        qnames = sorted(
            kind_qname(domain, "popular") for domain in domains
        )
        for qname in qnames:
            self._idle_resolution(qname, RRType.A)

    # ------------------------------------------------------------------
    # Predictions
    # ------------------------------------------------------------------
    def _idle_resolution(
        self, qname: DnsName, qtype: str
    ) -> StaticResolution:
        key = (qname, qtype)
        cached = self._idle_memo.get(key)
        if cached is None:
            cached = self._resolver(IDLE_PROFILE).resolve(qname, qtype)
            self._idle_memo[key] = cached
        return cached

    def _variants(
        self, profile: str, qname: DnsName, qtype: str
    ) -> Tuple[StaticResolution, StaticResolution]:
        """(cut-aware, cold) resolution pair for one profile.

        The live resolver holds whichever delegation cache its
        SRTT-ordered warm phase happened to build; the static cut store
        is a superset of every possible live ordering, so the live
        outcome is bracketed by these two variants.
        """
        key = (profile, qname, qtype)
        cached = self._variant_memo.get(key)
        if cached is None:
            resolver = self._resolver(profile)
            if profile == IDLE_PROFILE:
                primary = self._idle_resolution(qname, qtype)
            else:
                primary = resolver.resolve(qname, qtype)
            cached = (primary, resolver.resolve_cold(qname, qtype))
            self._variant_memo[key] = cached
        return cached

    def clamped_ttl(self, qname: DnsName) -> Optional[int]:
        """The authoritative A answer TTL for ``qname`` clamped to the
        serve config's ``max_ttl``; ``None`` when no zone answers."""
        ttl = self._graph.answer_ttl(qname, RRType.A)
        return None if ttl is None else min(ttl, self.config.max_ttl)

    def warm_entry_ttl(
        self, qname: DnsName, idle_status: str
    ) -> Optional[int]:
        """TTL of the cache entry the warm phase leaves for a popular
        name, or ``None`` when warm caches nothing (NODATA is not
        negatively cached by the raw resolver; SERVFAIL never is)."""
        if idle_status == "ok":
            ttl = self.clamped_ttl(qname)
            return self.config.max_ttl if ttl is None else ttl
        if idle_status == "nxdomain":
            return self.config.negative_ttl
        return None

    def stale_covers(self, entry_ttl: Optional[int]) -> bool:
        """Does a warm entry survive into the stale window for the
        whole serve run?  The pipeline ages the cache ``max_ttl + 1``
        seconds between warm and serve, then runs ``duration`` more."""
        if entry_ttl is None or not self.config.serve_stale:
            return False
        return (
            entry_ttl + self.config.stale_window
            >= self.config.max_ttl + 1.0 + self.duration
        )

    def predict(
        self, profile: str, domain: DnsName, kind: str
    ) -> KindPrediction:
        qname = kind_qname(domain, kind)
        qtype = RRType.A
        idle_variants = self._variants(IDLE_PROFILE, qname, qtype)
        if profile == IDLE_PROFILE:
            chaos_variants = idle_variants
        else:
            chaos_variants = self._variants(profile, qname, qtype)
        walked: set = set()
        for resolution in (*idle_variants, *chaos_variants):
            walked.update(resolution.attempted)
        attempted = tuple(sorted(walked))
        lossy = any(address in self._lossy for address in attempted)
        # Union over the variant grid: the live run lives somewhere in
        # it, depending on which cuts its warm phase actually cached.
        states: set = set()
        for idle_variant in idle_variants:
            entry_ttl = (
                self.warm_entry_ttl(qname, idle_variant.status)
                if kind == "popular"
                else None
            )
            variant_covered = self.stale_covers(entry_ttl)
            for chaos_variant in chaos_variants:
                states.update(
                    self._expected_states(
                        kind,
                        idle_variant,
                        chaos_variant,
                        variant_covered,
                        lossy,
                    )
                )
        expected = tuple(
            state for state in DegradationState.ALL if state in states
        )
        return KindPrediction(
            qname=qname,
            chaos_status=chaos_variants[0].status,
            expected=expected,
            attempted=attempted,
        )

    def _expected_states(
        self,
        kind: str,
        idle: StaticResolution,
        chaos: StaticResolution,
        covered: bool,
        lossy: bool,
    ) -> Tuple[str, ...]:
        if lossy:
            # A permanently-flaky base-world path makes every ladder
            # state reachable; documented known-false-negative class.
            return DegradationState.ALL
        if chaos.answered:
            if (
                kind == "popular"
                and self.config.prefetch
                and self.config.serve_stale
            ):
                # The prefetch race: a query landing between expiry and
                # the scheduled refresh is served stale instantly.
                return (
                    DegradationState.FRESH,
                    DegradationState.STALE_SERVED,
                )
            return (DegradationState.FRESH,)
        if kind == "popular" and idle.answered and covered:
            return (DegradationState.STALE_SERVED,)
        return (DegradationState.FAILED,)
