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
2. **Dead-aware resolution** — a mirror of the serving resolver's
   decision procedure (zone-cut fast path with cold-walk fallback, the
   same skip rules as :class:`repro.zonelint.graph.ZoneGraph`) is run
   over the static graph with the dead set treated as silence.
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
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from ..dns.message import Message, Rcode
from ..dns.name import DnsName
from ..dns.rdata import A, RRType
from ..inet.address import IPv4Address
from ..net.chaos import FaultSchedule, build_profile
from ..serve.service import DegradationState, ServeConfig
from ..zonelint.analyzer import GroundTruth
from ..zonelint.graph import (
    ZoneGraph,
    _MAX_CNAME_HOPS,
    _MAX_GLUELESS_DEPTH,
    _MAX_REFERRALS,
    _referral_parts,
)
from ..zonelint.smells import StaticOutcome

__all__ = [
    "IDLE_PROFILE",
    "KINDS",
    "ChaosOutlook",
    "DeadAwareResolver",
    "DomainSurvivability",
    "KindPrediction",
    "StaticResolution",
    "SurvivabilityModel",
    "kind_qname",
    "refresh_backoff_span",
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


def refresh_backoff_span(config: ServeConfig) -> float:
    """Worst-case spread of the bounded background-refresh schedule."""
    policy = config.refresh_backoff
    span = 0.0
    for attempt in range(1, config.refresh_attempts + 1):
        span += min(
            policy.base * (policy.multiplier ** (attempt - 1)), policy.cap
        )
    return span


@dataclass(frozen=True)
class StaticResolution:
    """One dead-aware static resolution: final status plus every
    address the walk considered (dead ones included — they are part of
    the serve path for masking purposes)."""

    status: str  # "ok" | "nxdomain" | "nodata" | "failed"
    attempted: Tuple[IPv4Address, ...]

    @property
    def answered(self) -> bool:
        return self.status != "failed"


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
        self.horizon = horizon
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


# One cached zone cut: NS hostnames plus glue, exactly as the live
# ZoneCutCache stores every referral it processes (TTLs elided — the
# worldgen delegation TTL outlives every default serve horizon).
CutStore = Dict[
    DnsName,
    Tuple[Tuple[DnsName, ...], Dict[DnsName, Tuple[IPv4Address, ...]]],
]


class DeadAwareResolver:
    """The serving resolver's decision procedure over the static graph.

    Mirrors :class:`~repro.zonelint.graph.ZoneGraph`'s traversal rules
    (which themselves mirror ``repro.dns.resolver``) with two serving
    twists: addresses in ``dead`` are silence, and every resolution —
    including glueless-NS sub-resolutions — starts at the deepest zone
    cut the warm phase left in the live delegation cache before falling
    back to a cold root walk, exactly the fast-path-then-invalidate
    dance ``Resolver._resolve_inner`` performs.

    ``cuts`` is shared across the model's resolvers: the idle resolver
    *records* every referral it processes (``record=True``, the static
    twin of ``ZoneCutCache.put``), the per-profile chaos resolvers only
    consume it.
    """

    def __init__(
        self,
        graph: ZoneGraph,
        roots: Tuple[IPv4Address, ...],
        dead: FrozenSet[IPv4Address],
        cuts: CutStore,
        record: bool = False,
    ) -> None:
        self._graph = graph
        self._roots = tuple(roots)
        self._dead = dead
        self._cuts = cuts
        self._record = record
        self._a_memo: Dict[
            DnsName, Tuple[Tuple[IPv4Address, ...], Tuple[IPv4Address, ...]]
        ] = {}

    def _deepest_cut(
        self, qname: DnsName
    ) -> Optional[Tuple[List[IPv4Address], List[DnsName]]]:
        """Candidates + glueless hostnames of the deepest cached cut
        strictly above ``qname`` (mirrors ``deepest_enclosing``)."""
        for ancestor in qname.ancestors(include_self=False):
            if len(ancestor) == 0:
                break  # the root is served by hints, never a cut
            cut = self._cuts.get(ancestor)
            if cut is None:
                continue
            hostnames, glue = cut
            candidates = [
                address
                for hostname in hostnames
                for address in glue.get(hostname, ())
            ]
            glueless = [h for h in hostnames if h not in glue]
            return candidates, glueless
        return None

    def resolve(self, qname: DnsName, qtype: str) -> StaticResolution:
        attempted: Dict[IPv4Address, None] = {}
        status = "failed"
        cut = self._deepest_cut(qname)
        if cut is not None:
            candidates, glueless = cut
            status = self._resolve_from(
                candidates, glueless, qname, qtype, attempted, 0
            )
        if status == "failed":
            # The live resolver invalidates the cut and re-walks cold.
            status = self._resolve_from(
                list(self._roots), [], qname, qtype, attempted, 0
            )
        return StaticResolution(status, tuple(sorted(attempted)))

    def resolve_cold(self, qname: DnsName, qtype: str) -> StaticResolution:
        """Resolution with no cached cut — what the live run does when
        its SRTT-ordered warm phase happened never to process (or to
        have invalidated) the delegation the cut-aware path starts at.
        Predictions take the union of both variants, since which one
        the live resolver lives is order-dependent."""
        attempted: Dict[IPv4Address, None] = {}
        status = self._resolve_from(
            list(self._roots), [], qname, qtype, attempted, 0
        )
        return StaticResolution(status, tuple(sorted(attempted)))

    def _resolve_from(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        qtype: str,
        attempted: Dict[IPv4Address, None],
        cname_hops: int,
    ) -> str:
        for _ in range(_MAX_REFERRALS):
            response = self._first_useful(
                candidates, glueless, qname, qtype, attempted, depth=0
            )
            if response is None:
                return "failed"
            if response.rcode == Rcode.NXDOMAIN:
                return "nxdomain"
            if response.aa and response.answers:
                if response.answer_rrset(qtype) is not None:
                    return "ok"
                cname = response.answer_rrset(RRType.CNAME)
                if cname is not None:
                    if cname_hops >= _MAX_CNAME_HOPS:
                        return "failed"
                    return self._resolve_from(
                        list(self._roots),
                        [],
                        cname.rdatas[-1].target,
                        qtype,
                        attempted,
                        cname_hops + 1,
                    )
                return "nodata"
            if response.aa:
                return "nodata"
            if response.is_referral and not response.is_upward_referral:
                hostnames, glue = self._take_referral(response)
                candidates = [
                    address
                    for addresses in glue.values()
                    for address in addresses
                ]
                glueless = [h for h in hostnames if h not in glue]
                continue
            return "failed"
        return "failed"

    def _take_referral(
        self, response: Message
    ) -> Tuple[Tuple[DnsName, ...], Dict[DnsName, Tuple[IPv4Address, ...]]]:
        """Split a referral and, when recording, cache it as a cut —
        the static twin of the live ``_zone_cuts.put`` on every
        referral processed."""
        hostnames, glue = _referral_parts(response)
        if self._record:
            delegation = response.authority_rrset(RRType.NS)
            assert delegation is not None
            self._cuts[delegation.name] = (hostnames, glue)
        return hostnames, glue

    def _first_useful(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        qtype: str,
        attempted: Dict[IPv4Address, None],
        depth: int,
    ) -> Optional[Message]:
        queue = list(candidates)
        pending = list(glueless)
        useful: Optional[Message] = None
        while queue or pending:
            if not queue:
                if useful is not None:
                    break
                hostname = pending.pop(0)
                queue.extend(self._resolve_a(hostname, depth + 1, attempted))
                continue
            address = queue.pop(0)
            if useful is not None and not self._record:
                break
            attempted[address] = None
            if address in self._dead:
                continue  # the fault window plays the role of a timeout
            response = self._graph.query(address, qname, qtype)
            if response is None:
                continue
            if response.rcode in (Rcode.REFUSED, Rcode.SERVFAIL):
                continue
            if response.is_upward_referral:
                continue
            if not (response.answers or response.aa or response.is_referral):
                continue  # lame: not authoritative, nothing useful
            if self._record:
                # The live resolver stops at its first useful response,
                # but *which* candidate that is depends on SRTT order.
                # Recording referrals from every candidate makes the
                # static cut store a superset of any live ordering; the
                # cold-resolution variant covers the none-cached case.
                if response.is_referral and not response.is_upward_referral:
                    self._take_referral(response)
                if useful is None:
                    useful = response
                continue
            return response
        return useful

    def _resolve_a(
        self,
        hostname: DnsName,
        depth: int,
        attempted: Dict[IPv4Address, None],
    ) -> Tuple[IPv4Address, ...]:
        memo = self._a_memo.get(hostname)
        if memo is not None:
            addresses, walked = memo
            for address in walked:
                attempted[address] = None
            return addresses
        walk: Dict[IPv4Address, None] = {}
        addresses = self._resolve_addresses(hostname, depth, 0, walk)
        self._a_memo[hostname] = (addresses, tuple(walk))
        for address in walk:
            attempted[address] = None
        return addresses

    def _resolve_addresses(
        self,
        qname: DnsName,
        depth: int,
        cname_hops: int,
        attempted: Dict[IPv4Address, None],
    ) -> Tuple[IPv4Address, ...]:
        if depth > _MAX_GLUELESS_DEPTH or cname_hops > _MAX_CNAME_HOPS:
            return ()
        # Glueless sub-resolutions go through the same cached-cut fast
        # path as the main walk (they are recursive _resolve_inner
        # calls in the live resolver), with the same cold fallback.
        cut = self._deepest_cut(qname)
        if cut is not None:
            candidates, glueless = cut
            found = self._addresses_from(
                list(candidates), list(glueless), qname, depth,
                cname_hops, attempted,
            )
            if found:
                return found
        return self._addresses_from(
            list(self._roots), [], qname, depth, cname_hops, attempted
        )

    def _addresses_from(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        depth: int,
        cname_hops: int,
        attempted: Dict[IPv4Address, None],
    ) -> Tuple[IPv4Address, ...]:
        for _ in range(_MAX_REFERRALS):
            response = self._first_useful(
                candidates, glueless, qname, RRType.A, attempted, depth
            )
            if response is None:
                return ()
            if response.rcode == Rcode.NXDOMAIN:
                return ()
            if response.aa and response.answers:
                answer = response.answer_rrset(RRType.A)
                if answer is not None:
                    found = []
                    for rdata in answer.rdatas:
                        assert isinstance(rdata, A)
                        found.append(rdata.address)
                    return tuple(found)
                cname = response.answer_rrset(RRType.CNAME)
                if cname is not None:
                    return self._resolve_addresses(
                        cname.rdatas[-1].target,
                        depth,
                        cname_hops + 1,
                        attempted,
                    )
                return ()
            if response.aa:
                return ()  # authoritative NODATA
            if response.is_referral and not response.is_upward_referral:
                hostnames, glue = self._take_referral(response)
                candidates = [
                    address
                    for addresses in glue.values()
                    for address in addresses
                ]
                glueless = [h for h in hostnames if h not in glue]
                continue
            return ()
        return ()


@dataclass(frozen=True)
class KindPrediction:
    """Acceptable degradation states for one (domain, kind, profile)."""

    domain: DnsName
    kind: str
    qname: DnsName
    idle_status: str
    chaos_status: str
    stale_covered: bool
    lossy: bool
    expected: Tuple[str, ...]
    attempted: Tuple[IPv4Address, ...]


@dataclass(frozen=True)
class DomainSurvivability:
    """One domain's static serving verdict under the analyzed profile."""

    domain: DnsName
    iso2: str
    ns_count: int
    positive_ttl: Optional[int]
    clamped_ttl: Optional[int]
    negative_ttl: int
    idle_status: str
    chaos_status: str
    stale_covered: bool
    verdict: str  # primary DegradationState under the profile
    dead_ns: Tuple[DnsName, ...]
    surviving_ns: Tuple[DnsName, ...]


class SurvivabilityModel:
    """Per-domain static survivability over the zone graph.

    ``duration`` is the serve horizon predictions hold over; the
    differential oracle rebuilds the model with the *observed* run
    span so windows outlived by the run downgrade to probabilistic.
    """

    def __init__(
        self,
        graph: ZoneGraph,
        roots: Tuple[IPv4Address, ...],
        addresses: Tuple[IPv4Address, ...],
        seed: int,
        config: ServeConfig = ServeConfig(),
        duration: float = 600.0,
        lossy: Tuple[IPv4Address, ...] = (),
    ) -> None:
        self._graph = graph
        self._roots = tuple(roots)
        self._addresses = tuple(addresses)
        self._seed = seed
        self.config = config
        self.duration = duration
        self._lossy = tuple(lossy)
        self._cuts: CutStore = {}
        self._outlooks: Dict[str, ChaosOutlook] = {}
        self._resolvers: Dict[str, DeadAwareResolver] = {}
        self._idle_memo: Dict[Tuple[DnsName, str], StaticResolution] = {}
        self._variant_memo: Dict[
            Tuple[str, DnsName, str],
            Tuple[StaticResolution, StaticResolution],
        ] = {}

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

    def _resolver(self, profile: str) -> DeadAwareResolver:
        cached = self._resolvers.get(profile)
        if cached is None:
            cached = DeadAwareResolver(
                self._graph,
                self._roots,
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

    def _clamp(self, ttl: int) -> int:
        return ttl if ttl < self.config.max_ttl else self.config.max_ttl

    def warm_entry_ttl(
        self, qname: DnsName, idle_status: str
    ) -> Optional[int]:
        """TTL of the cache entry the warm phase leaves for a popular
        name, or ``None`` when warm caches nothing (NODATA is not
        negatively cached by the raw resolver; SERVFAIL never is)."""
        if idle_status == "ok":
            ttl = self._graph.answer_ttl(qname, RRType.A)
            return self._clamp(ttl if ttl is not None else self.config.max_ttl)
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
        idle, chaos = idle_variants[0], chaos_variants[0]
        walked: set = set()
        for resolution in (*idle_variants, *chaos_variants):
            walked.update(resolution.attempted)
        attempted = tuple(sorted(walked))
        lossy = any(address in self._lossy for address in attempted)
        covered = self.stale_covers(
            self.warm_entry_ttl(qname, idle.status)
            if kind == "popular"
            else None
        )
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
            domain=domain,
            kind=kind,
            qname=qname,
            idle_status=idle.status,
            chaos_status=chaos.status,
            stale_covered=covered,
            lossy=lossy,
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

    # ------------------------------------------------------------------
    # Domain-level verdicts (for the analyzer's findings)
    # ------------------------------------------------------------------
    def survivability(
        self, truth: GroundTruth, profile: str
    ) -> DomainSurvivability:
        prediction = self.predict(profile, truth.domain, "popular")
        outlook = self.outlook(profile)
        dead_ns: List[DnsName] = []
        surviving_ns: List[DnsName] = []
        for hostname in sorted(truth.servers):
            server = truth.servers[hostname]
            alive = [
                address
                for address in server.addresses
                if server.outcomes.get(address)
                in StaticOutcome.AUTHORITATIVE
                and not outlook.is_dead(address)
            ]
            if alive:
                surviving_ns.append(hostname)
            else:
                dead_ns.append(hostname)
        positive_ttl = self._graph.answer_ttl(
            kind_qname(truth.domain, "popular"), RRType.A
        )
        soa_minimum = self._graph.soa_minimum(truth.domain)
        negative_ttl = self.config.negative_ttl
        if soa_minimum is not None:
            negative_ttl = min(soa_minimum, negative_ttl)
        if prediction.chaos_status != "failed":
            verdict = DegradationState.FRESH
        elif prediction.expected == (DegradationState.STALE_SERVED,):
            verdict = DegradationState.STALE_SERVED
        else:
            verdict = DegradationState.FAILED
        return DomainSurvivability(
            domain=truth.domain,
            iso2=truth.iso2,
            ns_count=truth.ns_count,
            positive_ttl=positive_ttl,
            clamped_ttl=(
                self._clamp(positive_ttl) if positive_ttl is not None else None
            ),
            negative_ttl=negative_ttl,
            idle_status=prediction.idle_status,
            chaos_status=prediction.chaos_status,
            stale_covered=prediction.stale_covered,
            verdict=verdict,
            dead_ns=tuple(dead_ns),
            surviving_ns=tuple(surviving_ns),
        )

    def survivability_table(
        self, truths: Mapping[DnsName, GroundTruth], profile: str
    ) -> Dict[DnsName, DomainSurvivability]:
        self.warm(list(truths))
        return {
            domain: self.survivability(truths[domain], profile)
            for domain in sorted(truths)
        }
