"""Per-destination circuit breaker for the serving layer.

:class:`CircuitBreaker` keeps per-destination failure accounting: after
``threshold`` consecutive query-series timeouts the address is *open*
(callers skip it) for ``cooldown`` simulated seconds, then *half-open*
— one query is let through, and its outcome closes or re-opens the
circuit.  The caching recursive service
(:class:`~repro.serve.upstream.UpstreamHealth`) gates every upstream
exchange through it, so a dead delegation fails fast instead of timing
out once per client.

The prober has no breaker: it keeps the paper's one immediate
retransmission plus a next-day retry round (§III-B).  The serving
layer spaces its refresh-job retries with
:class:`~repro.inet.backoff.BackoffPolicy`.
"""

from __future__ import annotations

from typing import Dict, Set, Tuple

from ..inet.address import IPv4Address
from ..inet.clock import SimulatedClock

__all__ = ["BreakerState", "CircuitBreaker"]


class BreakerState:
    """Circuit-breaker states for one destination address."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"


class _BreakerEntry:
    __slots__ = ("failures", "state", "open_until")

    def __init__(self) -> None:
        self.failures = 0
        self.state = BreakerState.CLOSED
        self.open_until = 0.0


class CircuitBreaker:
    """Per-destination consecutive-timeout circuit breaker.

    All state transitions are functions of (event order, simulated
    clock), so a breaker-enabled campaign is exactly as deterministic
    as one without.
    """

    def __init__(
        self, clock: SimulatedClock, threshold: int, cooldown: float
    ) -> None:
        if threshold < 1:
            raise ValueError(f"breaker threshold must be >= 1, got {threshold}")
        if cooldown <= 0:
            raise ValueError(f"breaker cooldown must be positive, got {cooldown}")
        self._clock = clock
        self.threshold = threshold
        self.cooldown = cooldown
        self._entries: Dict[IPv4Address, _BreakerEntry] = {}
        self.trips = 0
        self.skips = 0
        self._ever_tripped: Set[IPv4Address] = set()

    def state_of(self, address: IPv4Address) -> str:
        entry = self._entries.get(address)
        return entry.state if entry is not None else BreakerState.CLOSED

    def allow(self, address: IPv4Address) -> bool:
        """May a query series be issued to this address right now?

        An open circuit whose cool-down has elapsed flips to half-open
        and admits the caller's probe (the re-probe that decides whether
        the address recovered).
        """
        entry = self._entries.get(address)
        if entry is None or entry.state == BreakerState.CLOSED:
            return True
        if entry.state == BreakerState.HALF_OPEN:
            # The half-open probe is already in flight (per-destination
            # politeness allows only one); further callers skip.
            self.skips += 1
            return False
        if self._clock.now >= entry.open_until:
            entry.state = BreakerState.HALF_OPEN
            return True
        self.skips += 1
        return False

    def record_outcome(self, address: IPv4Address, responded: bool) -> None:
        """Feed one completed query series (any response vs. silence)."""
        if responded:
            self._entries.pop(address, None)
            return
        entry = self._entries.get(address)
        if entry is None:
            entry = self._entries[address] = _BreakerEntry()
        entry.failures += 1
        if (
            entry.state == BreakerState.HALF_OPEN
            or entry.failures >= self.threshold
        ):
            entry.state = BreakerState.OPEN
            entry.open_until = self._clock.now + self.cooldown
            self.trips += 1
            self._ever_tripped.add(address)

    def tripped_addresses(self) -> Tuple[IPv4Address, ...]:
        """Every address that tripped the breaker at least once, sorted.

        Cumulative (never cleared on recovery): differential oracles use
        it to tell "the breaker shadowed this path at some point" apart
        from "the path itself was dead"."""
        return tuple(sorted(self._ever_tripped))

    def open_count(self) -> int:
        """How many addresses are currently open or half-open."""
        return sum(
            1
            for entry in self._entries.values()
            if entry.state != BreakerState.CLOSED
        )
