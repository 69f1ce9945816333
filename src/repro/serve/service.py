"""The caching recursive serving loop with graceful degradation.

A :class:`RecursiveService` answers client queries from a unified
:class:`~repro.dns.cache.ResolverCache` (positive + RFC 2308 negative
entries) backed by a health-aware iterative resolver.  Every answer
carries an explicit degradation state:

``FRESH``
    Answered from live data — a cache hit, or a successful upstream
    resolution (including authoritative NXDOMAIN/NODATA, which are
    *answers*, not failures).
``STALE_SERVED``
    Upstream was unreachable (timeout / SERVFAIL / REFUSED / breaker
    open) but an expired entry inside the RFC 8767 stale window could
    still be served; a bounded background refresh is scheduled.
``FAILED``
    Upstream unreachable and nothing stale to fall back on — the
    client sees SERVFAIL, annotated with the *reason* the upstream
    failed (timeout-derived vs SERVFAIL-derived, per the resolver's
    failure-reason plumbing).

The refresh queue is a deterministic min-heap over the simulated
clock: jobs are retried with exponential backoff at most
``refresh_attempts`` times, and at most one job per (name, type) is in
flight, so a popular dead name costs bounded upstream traffic no
matter how many clients ask for it.  Prefetch rides the same queue:
a fresh hit close to expiry schedules a refresh so hot names stay warm.
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..dns.cache import CacheAnswer, ResolverCache, ZoneCutCache
from ..dns.name import DnsName
from ..dns.rrset import RRset
from ..inet.backoff import BackoffPolicy
from .upstream import HealthAwareResolver, UpstreamHealth
from .workload import ClientQuery

__all__ = [
    "DegradationState",
    "RecursiveService",
    "ServeAnswer",
    "ServeConfig",
]


class DegradationState:
    """Per-answer degradation ladder: FRESH → STALE_SERVED → FAILED."""

    FRESH = "fresh"
    STALE_SERVED = "stale_served"
    FAILED = "failed"

    ALL = (FRESH, STALE_SERVED, FAILED)


@dataclass(frozen=True)
class ServeConfig:
    """Tunables for the serving layer.

    ``max_ttl`` is deliberately far below the probe-side 7-day clamp:
    a serving cache that never re-validates would hide exactly the
    degradation this layer exists to measure.
    """

    max_ttl: int = 300
    negative_ttl: int = 300
    stale_window: float = 4 * 3600.0
    serve_stale: bool = True
    prefetch: bool = True
    prefetch_horizon: float = 30.0
    refresh_attempts: int = 3
    refresh_backoff: BackoffPolicy = BackoffPolicy(
        base=5.0, multiplier=2.0, cap=120.0
    )
    upstream_timeout: float = 1.5
    upstream_retries: int = 0
    breaker_threshold: int = 3
    breaker_cooldown: float = 120.0

    def __post_init__(self) -> None:
        if self.stale_window < 0:
            raise ValueError(f"stale_window must be >= 0: {self.stale_window}")
        if self.prefetch_horizon < 0:
            raise ValueError(
                f"prefetch_horizon must be >= 0: {self.prefetch_horizon}"
            )
        if self.refresh_attempts < 1:
            raise ValueError(
                f"refresh_attempts must be >= 1: {self.refresh_attempts}"
            )


@dataclass(frozen=True)
class ServeAnswer:
    """One served client query and how it was answered."""

    at: float  # arrival offset within the run
    qname: DnsName
    qtype: str
    iso2: str
    status: str  # "ok" | "nxdomain" | "nodata" | "servfail"
    state: str  # DegradationState
    source: str  # "cache" | "cache_negative" | "stale" | "stale_negative"
    #              | "upstream" | "none"
    latency: float
    failure_reason: Optional[str] = None

    @property
    def answered(self) -> bool:
        return self.status != "servfail"


def _soa_minimum(soa: Optional[RRset]) -> Optional[int]:
    """RFC 2308 negative TTL source: min(SOA minimum, SOA TTL)."""
    if soa is None or not soa.rdatas:
        return None
    minimum = getattr(soa.rdatas[0], "minimum", None)
    if minimum is None:
        return None
    return min(int(minimum), soa.ttl)


class RecursiveService:
    """A serve-stale caching recursive resolver over the simulated net."""

    def __init__(
        self,
        network,
        root_addresses,
        source=None,
        config: ServeConfig = ServeConfig(),
        seed: int = 0,
    ) -> None:
        self._clock = network.clock
        self._config = config
        self.cache = ResolverCache(
            network.clock,
            max_ttl=config.max_ttl,
            negative_ttl=config.negative_ttl,
            stale_window=config.stale_window if config.serve_stale else 0.0,
        )
        self.health = UpstreamHealth(
            network.clock,
            breaker_threshold=config.breaker_threshold,
            breaker_cooldown=config.breaker_cooldown,
            timeout_srtt=config.upstream_timeout * 2.0,
        )
        self._rng = random.Random(f"serve:{seed}")
        # A live (never frozen) delegation cache: the serving resolver
        # starts walks at the deepest known cut like any production
        # recursive, instead of hammering the roots once per miss.
        # Infrastructure entries honour the delegation TTL (not the
        # short answer clamp): NS sets churn far slower than answers.
        self.zone_cuts = ZoneCutCache(network.clock)
        self._resolver = HealthAwareResolver(
            network,
            root_addresses,
            health=self.health,
            cache=self.cache,
            source=source,
            timeout=config.upstream_timeout,
            retries=config.upstream_retries,
            zone_cuts=self.zone_cuts,
        )
        self._refresh_heap: List[Tuple[float, int, DnsName, str, int]] = []
        self._refresh_seq = 0
        self._pending: Set[Tuple[DnsName, str]] = set()
        # Per-(qname, qtype) degradation-state tallies, fed by _answer.
        # Consumed by the servelint differential oracle; deliberately
        # NOT part of stats()/ServingReport so committed digests stay
        # byte-identical.
        self._outcomes: Dict[Tuple[DnsName, str], Dict[str, int]] = {}
        self.stale_instant_serves = 0
        self.prefetches = 0
        self.refreshes_run = 0
        self.refreshes_ok = 0
        self.refreshes_abandoned = 0

    @property
    def config(self) -> ServeConfig:
        return self._config

    # ------------------------------------------------------------------
    # Warm phase
    # ------------------------------------------------------------------
    def warm(self, queries: Sequence[ClientQuery]) -> int:
        """Resolve every distinct popular name once (pre-chaos warm-up).

        Returns how many names resolved OK.  Mirrors the campaign's
        warm-then-freeze pattern, except the serving cache stays live —
        entries age and expire; that is the point.
        """
        keys = sorted(
            {(q.qname, q.qtype) for q in queries if q.kind == "popular"}
        )
        warmed = 0
        for qname, qtype in keys:
            if self._resolver.resolve(qname, qtype).status == "ok":
                warmed += 1
        return warmed

    # ------------------------------------------------------------------
    # Serving loop
    # ------------------------------------------------------------------
    def run(self, queries: Sequence[ClientQuery]) -> List[ServeAnswer]:
        """Serve a workload sequentially under the simulated clock.

        Arrival offsets are mapped onto the clock from the instant this
        method is called; the clock advances to each arrival before
        serving.  Latency is per-query *service time* (clock consumed
        resolving that query), not queueing delay — the sequential
        worker is a simulator artifact, not a modeled property.
        """
        base = self._clock.now
        answers: List[ServeAnswer] = []
        for query in queries:
            arrival = base + query.at
            if self._clock.now < arrival:
                self._clock.advance(arrival - self._clock.now)
            self.run_due_refreshes()
            answers.append(self.serve(query))
        return answers

    def serve(self, query: ClientQuery) -> ServeAnswer:
        """Answer one client query at the current clock instant."""
        started = self._clock.now
        qname, qtype = query.qname, query.qtype
        found = self.cache.lookup(qname, qtype)
        if found.state == "fresh":
            if (
                self._config.prefetch
                and found.expires_at - self._clock.now
                <= self._config.prefetch_horizon
            ):
                if self._schedule_refresh(qname, qtype):
                    self.prefetches += 1
            return self._answer(
                query, started, "ok", DegradationState.FRESH, "cache"
            )
        if found.state == "negative":
            return self._answer(
                query,
                started,
                "nodata" if found.kind == "nodata" else "nxdomain",
                DegradationState.FRESH,
                "cache_negative",
            )
        if found.is_stale and (qname, qtype) in self._pending:
            # A refresh is already underway: answer instantly from the
            # stale entry instead of stacking a second upstream attempt.
            self.stale_instant_serves += 1
            return self._stale_answer(query, started, found, None)
        resolution = self._resolver.resolve(qname, qtype)
        if resolution.status == "ok":
            return self._answer(
                query, started, "ok", DegradationState.FRESH, "upstream"
            )
        if resolution.status in ("nxdomain", "nodata"):
            # Re-key the negative TTL on the SOA minimum the upstream
            # actually returned (RFC 2308), preserving the kind.
            self.cache.put_negative(
                qname,
                qtype,
                kind=resolution.status,
                soa_minimum=_soa_minimum(resolution.soa),
            )
            return self._answer(
                query,
                started,
                resolution.status,
                DegradationState.FRESH,
                "upstream",
            )
        # Upstream exhausted: serve stale if allowed, else fail.
        if found.is_stale:
            self._schedule_refresh(qname, qtype)
            return self._stale_answer(
                query, started, found, resolution.failure_reason
            )
        return self._answer(
            query,
            started,
            "servfail",
            DegradationState.FAILED,
            "none",
            failure_reason=resolution.failure_reason,
        )

    def _answer(
        self,
        query: ClientQuery,
        started: float,
        status: str,
        state: str,
        source: str,
        failure_reason: Optional[str] = None,
    ) -> ServeAnswer:
        tally = self._outcomes.setdefault((query.qname, query.qtype), {})
        tally[state] = tally.get(state, 0) + 1
        return ServeAnswer(
            at=query.at,
            qname=query.qname,
            qtype=query.qtype,
            iso2=query.iso2,
            status=status,
            state=state,
            source=source,
            latency=self._clock.now - started,
            failure_reason=failure_reason,
        )

    def _stale_answer(
        self,
        query: ClientQuery,
        started: float,
        found: CacheAnswer,
        failure_reason: Optional[str],
    ) -> ServeAnswer:
        if found.state == "stale_negative":
            status = "nodata" if found.kind == "nodata" else "nxdomain"
        else:
            status = "ok"
        return self._answer(
            query,
            started,
            status,
            DegradationState.STALE_SERVED,
            found.state,
            failure_reason=failure_reason,
        )

    # ------------------------------------------------------------------
    # Background refresh (bounded, deterministic)
    # ------------------------------------------------------------------
    def _schedule_refresh(
        self, qname: DnsName, qtype: str, attempt: int = 1
    ) -> bool:
        key = (qname, qtype)
        if attempt == 1:
            if key in self._pending:
                return False
            self._pending.add(key)
        delay = self._config.refresh_backoff.delay(attempt, self._rng)
        self._refresh_seq += 1
        heapq.heappush(
            self._refresh_heap,
            (self._clock.now + delay, self._refresh_seq, qname, qtype, attempt),
        )
        return True

    def run_due_refreshes(self) -> int:
        """Run every refresh job whose due time has passed; returns count.

        The unique sequence number in each heap entry makes pop order —
        and therefore upstream traffic — deterministic even when jobs
        share a due time.
        """
        ran = 0
        while (
            self._refresh_heap
            and self._refresh_heap[0][0] <= self._clock.now
        ):
            _, _, qname, qtype, attempt = heapq.heappop(self._refresh_heap)
            ran += 1
            self.refreshes_run += 1
            resolution = self._resolver.resolve(qname, qtype)
            if resolution.status == "ok":
                self.refreshes_ok += 1
                self._pending.discard((qname, qtype))
            elif resolution.status in ("nxdomain", "nodata"):
                self.cache.put_negative(
                    qname,
                    qtype,
                    kind=resolution.status,
                    soa_minimum=_soa_minimum(resolution.soa),
                )
                self.refreshes_ok += 1
                self._pending.discard((qname, qtype))
            elif attempt < self._config.refresh_attempts:
                self._schedule_refresh(qname, qtype, attempt=attempt + 1)
            else:
                # Give up; the entry ages out of the stale window on its
                # own.  A later client query may start a new cycle.
                self.refreshes_abandoned += 1
                self._pending.discard((qname, qtype))
        return ran

    def pending_refreshes(self) -> int:
        return len(self._pending)

    def outcome_ledger(
        self,
    ) -> Dict[Tuple[DnsName, str], Dict[str, int]]:
        """Observed degradation states per served (qname, qtype).

        Sorted copies all the way down, so consumers can serialize the
        ledger without re-canonicalizing it."""
        return {
            key: {
                state: self._outcomes[key][state]
                for state in sorted(self._outcomes[key])
            }
            for key in sorted(self._outcomes)
        }

    # ------------------------------------------------------------------
    # Report surface
    # ------------------------------------------------------------------
    def stats(self) -> Dict[str, int]:
        """Deterministic service-side counters for the serving report."""
        return {
            "cache_hits": self.cache.hits,
            "cache_misses": self.cache.misses,
            "cache_stale_hits": self.cache.stale_hits,
            "cache_entries": len(self.cache),
            "stale_instant_serves": self.stale_instant_serves,
            "prefetches": self.prefetches,
            "refreshes_run": self.refreshes_run,
            "refreshes_ok": self.refreshes_ok,
            "refreshes_abandoned": self.refreshes_abandoned,
            "refreshes_pending": len(self._pending),
            "breaker_trips": self.health.breaker.trips,
            "breaker_skips": self.health.breaker.skips,
            "breaker_open_at_end": self.health.breaker.open_count(),
            "srtt_tracked": self.health.tracked(),
            "zone_cuts": len(self.zone_cuts),
            "zone_cut_hits": self.zone_cuts.hits,
            "zone_cut_misses": self.zone_cuts.misses,
        }
