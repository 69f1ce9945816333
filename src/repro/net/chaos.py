"""Deterministic chaos engineering: time-varying fault schedules.

The static world already models *permanent* faults (a nameserver that is
down, lame, or flaky forever).  What the paper's retry round (§III-B)
actually absorbs in the wild is *time-varying* failure: an outage that
ends, a congested path that clears, a rate limiter that refuses probes
only while the probe storm lasts.  A :class:`FaultSchedule` injects
exactly those, as timed windows composed into :class:`~.network.Network`
at send time — the same address can be dead in round one and alive in
round two.

Fault vocabulary
----------------
:class:`OutageWindow`
    Targets are unreachable (silence) between two instants.  Pure — no
    randomness, a function of (destination, now).
:class:`LossBurst`
    Targets drop each datagram with ``loss_rate`` during the window.
    Draws come from the schedule's *own* seeded RNG so that enabling
    chaos perturbs the network's base RNG stream as little as possible.
:class:`LatencyBrownout`
    Adds ``extra_seconds`` to each round-trip during the window (pushing
    slow paths past the prober's timeout — failure without packet loss).
:class:`RateLimitRule`
    A per-destination sliding-window QPS cap; queries over the cap are
    answered with REFUSED (via an injected ``refusal_factory``, because
    the net layer cannot know about DNS messages).  Stateful but
    RNG-free.

Determinism contract: every decision is a pure function of (destination,
simulated now, arrival order, schedule seed).  Two runs over the same
world with the same schedule produce byte-identical datasets, which is
what the CI chaos-smoke job asserts.

Admission runs on every send, so it is kept to plain loops over ints:
each window's targets are a frozenset of address values plus
``(network, mask)`` prefix pairs, a window's time span is checked
before its targets, and the two common verdicts (no fault, refuse only)
are shared constants.  Nothing is memoized per destination.
"""

from __future__ import annotations

import random
from collections import deque
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..inet.address import IPv4Address, IPv4Prefix

__all__ = [
    "ChaosDecision",
    "ChaosStats",
    "FaultSchedule",
    "LatencyBrownout",
    "LossBurst",
    "OutageWindow",
    "PROFILES",
    "PROFILE_DESCRIPTIONS",
    "RateLimitRule",
    "build_profile",
    "describe_profiles",
]

ChaosTarget = Union[IPv4Address, IPv4Prefix]


class _TargetSet:
    """Membership test over a mixed set of addresses and prefixes.

    Built once per fault window and probed on every send, so both
    halves are plain ints: a frozenset of address values and a tuple of
    ``(network, mask)`` pairs.
    """

    __slots__ = ("_values", "_prefixes")

    def __init__(self, targets: Iterable[ChaosTarget]) -> None:
        values: List[int] = []
        prefixes: List[Tuple[int, int]] = []
        for target in targets:
            if isinstance(target, IPv4Address):
                values.append(target.value)
            elif isinstance(target, IPv4Prefix):
                prefixes.append(
                    (target.network, IPv4Prefix.mask_for(target.length))
                )
            else:
                raise TypeError(
                    f"chaos target must be IPv4Address or IPv4Prefix, "
                    f"got {target!r}"
                )
        if not values and not prefixes:
            raise ValueError("chaos window needs at least one target")
        self._values = frozenset(values)
        self._prefixes = tuple(prefixes)

    def matches(self, address: IPv4Address) -> bool:
        value = address.value
        if value in self._values:
            return True
        for network, mask in self._prefixes:
            if value & mask == network:
                return True
        return False


def _check_window(start: float, end: float) -> None:
    if not end > start:
        raise ValueError(f"empty fault window: start={start}, end={end}")


class OutageWindow:
    """Targets are unreachable (silent) for ``start <= now < end``."""

    __slots__ = ("start", "end", "targets")

    def __init__(
        self, start: float, end: float, targets: Iterable[ChaosTarget]
    ) -> None:
        _check_window(start, end)
        self.start = start
        self.end = end
        self.targets = _TargetSet(targets)

    def active(self, address: IPv4Address, now: float) -> bool:
        return self.start <= now < self.end and self.targets.matches(address)


class LossBurst:
    """Targets drop datagrams with ``loss_rate`` during the window."""

    __slots__ = ("start", "end", "targets", "loss_rate")

    def __init__(
        self,
        start: float,
        end: float,
        targets: Iterable[ChaosTarget],
        loss_rate: float,
    ) -> None:
        _check_window(start, end)
        if not 0.0 < loss_rate <= 1.0:
            raise ValueError(f"burst loss rate out of range: {loss_rate}")
        self.start = start
        self.end = end
        self.targets = _TargetSet(targets)
        self.loss_rate = loss_rate

    def active(self, address: IPv4Address, now: float) -> bool:
        return self.start <= now < self.end and self.targets.matches(address)


class LatencyBrownout:
    """Adds ``extra_seconds`` to round-trips during the window."""

    __slots__ = ("start", "end", "targets", "extra_seconds")

    def __init__(
        self,
        start: float,
        end: float,
        targets: Iterable[ChaosTarget],
        extra_seconds: float,
    ) -> None:
        _check_window(start, end)
        if extra_seconds <= 0:
            raise ValueError(
                f"brownout extra latency must be positive: {extra_seconds}"
            )
        self.start = start
        self.end = end
        self.targets = _TargetSet(targets)
        self.extra_seconds = extra_seconds

    def active(self, address: IPv4Address, now: float) -> bool:
        return self.start <= now < self.end and self.targets.matches(address)


class RateLimitRule:
    """REFUSED beyond ``max_queries`` per ``per_seconds`` sliding window.

    Stateful (per-destination arrival history) but RNG-free; during
    journal replay the history is kept warm via
    :meth:`FaultSchedule.note_arrival` so a resumed campaign sees the
    same refusals an uninterrupted one does.
    """

    __slots__ = ("targets", "max_queries", "per_seconds")

    def __init__(
        self,
        targets: Iterable[ChaosTarget],
        max_queries: int,
        per_seconds: float,
    ) -> None:
        if max_queries < 1:
            raise ValueError(f"rate limit must allow >= 1 query: {max_queries}")
        if per_seconds <= 0:
            raise ValueError(f"rate window must be positive: {per_seconds}")
        self.targets = _TargetSet(targets)
        self.max_queries = max_queries
        self.per_seconds = per_seconds


class ChaosDecision(NamedTuple):
    """What the schedule says about one datagram, decided at send time."""

    outage: bool = False
    refuse: bool = False
    loss_rate: float = 0.0
    extra_latency: float = 0.0


_NULL_DECISION = ChaosDecision()
_REFUSE_DECISION = ChaosDecision(refuse=True)


class ChaosStats:
    """Counters surfaced through the resilience report."""

    __slots__ = (
        "outage_drops",
        "burst_losses",
        "brownout_hits",
        "rate_limit_refusals",
    )

    def __init__(self) -> None:
        self.outage_drops = 0
        self.burst_losses = 0
        self.brownout_hits = 0
        self.rate_limit_refusals = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "outage_drops": self.outage_drops,
            "burst_losses": self.burst_losses,
            "brownout_hits": self.brownout_hits,
            "rate_limit_refusals": self.rate_limit_refusals,
        }


class FaultSchedule:
    """A seeded, deterministic composition of timed fault windows.

    Parameters
    ----------
    seed:
        Seeds the schedule's private RNG (used only for loss-burst
        draws).  Checkpointed alongside the network RNG by the journal.
    outages, bursts, brownouts, rate_limits:
        The fault windows; all instants are absolute simulated time.
    refusal_factory:
        Builds a REFUSED response from the query payload.  Required when
        ``rate_limits`` is non-empty; injected by the caller so this
        module stays below :mod:`repro.dns` in the layering.
    name:
        Label recorded in journal headers and reports.
    """

    def __init__(
        self,
        seed: int = 0,
        outages: Sequence[OutageWindow] = (),
        bursts: Sequence[LossBurst] = (),
        brownouts: Sequence[LatencyBrownout] = (),
        rate_limits: Sequence[RateLimitRule] = (),
        refusal_factory: Optional[Callable[[Any], Any]] = None,
        name: str = "custom",
    ) -> None:
        if rate_limits and refusal_factory is None:
            raise ValueError(
                "rate-limit rules need a refusal_factory to synthesize "
                "REFUSED responses"
            )
        self.name = name
        self.seed = seed
        self._rng = random.Random(seed)
        self._outages = tuple(outages)
        self._bursts = tuple(bursts)
        self._brownouts = tuple(brownouts)
        self._rate_limits = tuple(rate_limits)
        self._refusal_factory = refusal_factory
        self._arrivals: Dict[IPv4Address, Deque[float]] = {}
        self.stats = ChaosStats()

    # ------------------------------------------------------------------
    # Window introspection (read-only)
    # ------------------------------------------------------------------
    # Static analyzers (repro.servelint) reuse the canonical profiles
    # *analytically*: they need the windows a schedule commits to, not
    # the send-time decisions.  Exposing the tuples read-only keeps the
    # mutation surface (arrival history, RNG) private.
    @property
    def outages(self) -> Tuple[OutageWindow, ...]:
        return self._outages

    @property
    def bursts(self) -> Tuple[LossBurst, ...]:
        return self._bursts

    @property
    def brownouts(self) -> Tuple[LatencyBrownout, ...]:
        return self._brownouts

    @property
    def rate_limits(self) -> Tuple[RateLimitRule, ...]:
        return self._rate_limits

    # ------------------------------------------------------------------
    # Send-time decisions
    # ------------------------------------------------------------------
    def in_outage(self, destination: IPv4Address, now: float) -> bool:
        """Pure outage predicate (shared by the live and replay paths)."""
        for window in self._outages:
            if window.active(destination, now):
                return True
        return False

    def admit(self, destination: IPv4Address, now: float) -> ChaosDecision:
        """Decide the fate of one datagram on the live path.

        Mutates rate-limit arrival history and the outage/refusal
        counters; loss-burst randomness is drawn later (only if the
        base network did not already drop the datagram) via
        :meth:`draw_loss`.
        """
        if self.in_outage(destination, now):
            self.stats.outage_drops += 1
            return ChaosDecision(outage=True)
        refuse = self._note_and_check_rate(destination, now)
        if refuse:
            self.stats.rate_limit_refusals += 1
        loss_rate = 0.0
        for burst in self._bursts:
            if burst.active(destination, now):
                # Overlapping bursts compose as independent drops.
                loss_rate = 1.0 - (1.0 - loss_rate) * (1.0 - burst.loss_rate)
        extra = 0.0
        for brownout in self._brownouts:
            if brownout.active(destination, now):
                extra += brownout.extra_seconds
        if extra:
            self.stats.brownout_hits += 1
        if not (loss_rate or extra):
            return _REFUSE_DECISION if refuse else _NULL_DECISION
        return ChaosDecision(
            refuse=refuse, loss_rate=loss_rate, extra_latency=extra
        )

    def note_arrival(self, destination: IPv4Address, now: float) -> None:
        """Replay-path twin of :meth:`admit`'s rate accounting.

        Journal replay substitutes recorded outcomes for live decisions,
        but the sliding-window QPS state must stay warm or the first
        post-takeover queries would see an idle limiter an uninterrupted
        run never saw.  No counters, no RNG.
        """
        self._note_and_check_rate(destination, now)

    def _note_and_check_rate(
        self, destination: IPv4Address, now: float
    ) -> bool:
        refuse = False
        for rule in self._rate_limits:
            if not rule.targets.matches(destination):
                continue
            window = self._arrivals.setdefault(destination, deque())
            horizon = now - rule.per_seconds
            while window and window[0] <= horizon:
                window.popleft()
            window.append(now)
            if len(window) > rule.max_queries:
                refuse = True
        return refuse

    def draw_loss(self, loss_rate: float) -> bool:
        """Draw one burst-loss decision from the schedule's RNG."""
        lost = self._rng.random() < loss_rate
        if lost:
            self.stats.burst_losses += 1
        return lost

    def refusal(self, payload: Any) -> Optional[Any]:
        """Synthesize a REFUSED response for the payload, if possible."""
        if self._refusal_factory is None:
            return None
        return self._refusal_factory(payload)

    # ------------------------------------------------------------------
    # Checkpoint support
    # ------------------------------------------------------------------
    def rng_state(self) -> Any:
        return self._rng.getstate()

    def restore_rng_state(self, state: Any) -> None:
        self._rng.setstate(state)

    def derive_rng(self, shard_index: int) -> None:
        """Re-seed the loss RNG with a per-shard derived stream.

        Sharded workers each replay a disjoint slice of the campaign;
        sharing the base stream would make every worker's draws depend
        on traffic it never sees.  Deriving ``Random(f"{seed}:shard:i")``
        (the same string-seeding idiom :func:`build_profile` uses) gives
        each shard a reproducible stream that is a pure function of
        (profile seed, shard index).
        """
        self._rng = random.Random(f"{self.seed}:shard:{shard_index}")


# ----------------------------------------------------------------------
# Canonical profiles (CLI --chaos <name>, CI chaos-smoke)
# ----------------------------------------------------------------------
PROFILES: Tuple[str, ...] = ("outage", "flaky", "brownout", "ratelimit", "mixed")

# One-line summaries for `--chaos list` (keep in sync with build_profile).
PROFILE_DESCRIPTIONS: Dict[str, str] = {
    "outage": "10% of addresses unreachable (silent) for the first 2h",
    "flaky": "20% of addresses drop 60% of datagrams for the first 3h",
    "brownout": "25% of addresses gain +2.6s round-trip latency for 2h",
    "ratelimit": "global sliding-window cap: >8 queries/10s answered REFUSED",
    "mixed": "all four at reduced shares (5% outage, 15% flaky, 15% brownout)",
}


def describe_profiles() -> str:
    """Render the named profiles as `name - description` lines."""
    return "\n".join(
        f"  {name:<10} {PROFILE_DESCRIPTIONS[name]}" for name in PROFILES
    )


def _pick(
    rng: random.Random, addresses: Sequence[IPv4Address], share: float
) -> List[IPv4Address]:
    count = max(1, int(len(addresses) * share))
    return rng.sample(list(addresses), min(count, len(addresses)))


def build_profile(
    name: str,
    addresses: Sequence[IPv4Address],
    seed: int,
    start: float,
    refusal_factory: Optional[Callable[[Any], Any]] = None,
) -> FaultSchedule:
    """Build a canonical named fault profile over the given address set.

    ``addresses`` must be in a deterministic order (callers pass
    ``sorted(network.addresses())``); target selection uses an RNG
    seeded from ``(name, seed)`` so each profile picks an independent
    population.  ``start`` anchors the windows at the campaign's first
    simulated instant.
    """
    if name not in PROFILES:
        raise ValueError(
            f"unknown chaos profile {name!r}; choose from {', '.join(PROFILES)}"
        )
    if not addresses:
        raise ValueError("cannot build a chaos profile over zero addresses")
    picker = random.Random(f"{name}:{seed}")
    hour = 3600.0
    outages: List[OutageWindow] = []
    bursts: List[LossBurst] = []
    brownouts: List[LatencyBrownout] = []
    rate_limits: List[RateLimitRule] = []

    if name in ("outage", "mixed"):
        share = 0.10 if name == "outage" else 0.05
        outages.append(
            OutageWindow(start, start + 2 * hour, _pick(picker, addresses, share))
        )
    if name in ("flaky", "mixed"):
        share = 0.20 if name == "flaky" else 0.15
        bursts.append(
            LossBurst(
                start, start + 3 * hour, _pick(picker, addresses, share), 0.6
            )
        )
    if name in ("brownout", "mixed"):
        share = 0.25 if name == "brownout" else 0.15
        brownouts.append(
            LatencyBrownout(
                start, start + 2 * hour, _pick(picker, addresses, share), 2.6
            )
        )
    if name in ("ratelimit", "mixed"):
        rate_limits.append(
            RateLimitRule(
                [IPv4Prefix.parse("0.0.0.0/0")], max_queries=8, per_seconds=10.0
            )
        )

    return FaultSchedule(
        seed=seed,
        outages=outages,
        bursts=bursts,
        brownouts=brownouts,
        rate_limits=rate_limits,
        refusal_factory=refusal_factory,
        name=name,
    )
