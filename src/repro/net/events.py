"""A deterministic discrete-event layer over simulated time.

The blocking :meth:`repro.net.network.Network.query` charges the clock
for each exchange *sequentially*, so a measurement campaign's simulated
duration is the **sum** of every round-trip and timeout.  Real
measurement pipelines (ZDNS-style) keep hundreds of queries in flight;
their waits overlap, and campaign time is governed by the **max** of
concurrent waits.  This module supplies the machinery for that model
without giving up determinism:

:class:`EventScheduler`
    A priority queue of ``(due_time, seq, action)`` events over a
    :class:`~repro.inet.clock.SimulatedClock`.  ``seq`` is a
    monotonically increasing issue counter, so events due at the same
    instant always fire in the order they were scheduled — there is no
    tie-breaking ambiguity, and a run's event order is a pure function
    of the code that scheduled it.

:class:`PendingExchange`
    One in-flight datagram exchange, produced by
    :meth:`~repro.net.network.Network.send`.  Its outcome (response or
    silence) and completion time are fixed at *send* time — hosts in
    this simulation are time-independent, and drawing loss/latency
    randomness in issue order keeps the RNG stream identical to the
    blocking path — but the result only becomes observable when the
    scheduler reaches the exchange's due time.

The blocking ``Network.query`` survives as a one-exchange wrapper
(``send(...).wait()``), so serial callers are bit-for-bit unaffected.
"""

from __future__ import annotations

import heapq
import math
from typing import Any, Callable, List, Optional, Tuple

from ..inet.address import IPv4Address
from ..inet.clock import SimulatedClock

__all__ = ["CampaignAborted", "EventScheduler", "PendingExchange"]


class CampaignAborted(RuntimeError):
    """Raised by the kill-at-event harness when the event budget runs out.

    The chaos test suite (and the CLI's ``--kill-at-event``) uses this to
    simulate a campaign process dying at an arbitrary instant: the
    scheduler refuses to fire event ``abort_after + 1``, unwinding the
    campaign mid-flight exactly as ``kill -9`` would — except the
    already-written journal lines remain for :mod:`repro.core.journal`
    to resume from.
    """

    def __init__(self, fired: int) -> None:
        super().__init__(f"campaign aborted after {fired} events")
        self.fired = fired


class EventScheduler:
    """Deterministic event queue bound to a simulated clock.

    Events are keyed ``(due_time, seq)``: the heap never compares the
    scheduled actions themselves, and equal due times resolve by issue
    order.  Firing an event advances the clock to its due time; an
    event scheduled in the past (possible when a blocking call jumped
    the clock while exchanges were pending) fires without moving the
    clock backwards — simulated time stays monotone.
    """

    def __init__(self, clock: SimulatedClock) -> None:
        self._clock = clock
        self._heap: List[Tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self.fired = 0
        # Kill-at-event harness: when set, run_next raises
        # CampaignAborted instead of firing once `fired` reaches it.
        self.abort_after: Optional[int] = None

    def __len__(self) -> int:
        return len(self._heap)

    @property
    def clock(self) -> SimulatedClock:
        return self._clock

    def schedule_at(self, due_time: float, action: Callable[[], None]) -> int:
        """Enqueue ``action`` to fire at ``due_time``; returns its seq."""
        if not math.isfinite(due_time):
            # A NaN key would silently corrupt heap ordering — the one
            # failure mode a deterministic engine cannot shrug off.
            raise ValueError(f"due_time must be finite, got {due_time!r}")
        seq = self._seq
        self._seq += 1
        heapq.heappush(self._heap, (due_time, seq, action))
        return seq

    def schedule_in(self, delay: float, action: Callable[[], None]) -> int:
        """Enqueue ``action`` to fire ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule {delay!r} seconds in the past")
        return self.schedule_at(self._clock.now + delay, action)

    def run_next(self) -> bool:
        """Fire the earliest pending event.

        Returns ``False`` when the queue is empty.  The clock advances
        to the event's due time (never backwards).
        """
        if not self._heap:
            return False
        if self.abort_after is not None and self.fired >= self.abort_after:
            raise CampaignAborted(self.fired)
        due_time, _, action = heapq.heappop(self._heap)
        if due_time > self._clock.now:
            self._clock.set(due_time)
        self.fired += 1
        action()
        return True

    def run_until_idle(self) -> int:
        """Drain the queue; returns how many events fired."""
        fired = 0
        while self.run_next():
            fired += 1
        return fired


class PendingExchange:
    """One in-flight request/response exchange.

    The exchange's fate is sealed when :meth:`Network.send` creates it;
    ``response`` stays hidden behind :attr:`done` until the scheduler
    reaches :attr:`due_time`, at which point the completion event fires
    (updating network stats and invoking ``on_complete``, if any).
    """

    __slots__ = (
        "destination",
        "timeout",
        "due_time",
        "done",
        "on_complete",
        "_response",
        "_scheduler",
    )

    def __init__(
        self,
        destination: IPv4Address,
        timeout: float,
        due_time: float,
        response: Optional[Any],
        scheduler: EventScheduler,
        on_complete: Optional[Callable[["PendingExchange"], None]] = None,
    ) -> None:
        self.destination = destination
        self.timeout = timeout
        self.due_time = due_time
        self.done = False
        self.on_complete = on_complete
        self._response = response
        self._scheduler = scheduler

    @property
    def timed_out(self) -> bool:
        """True when the exchange completed with no response."""
        return self.done and self._response is None

    @property
    def response(self) -> Optional[Any]:
        """The response payload; ``None`` until done, and on timeout."""
        return self._response if self.done else None

    def _complete(self) -> None:
        self.done = True
        if self.on_complete is not None:
            self.on_complete(self)

    def wait(self) -> Optional[Any]:
        """Run the scheduler until this exchange completes.

        Returns the response payload, or ``None`` on timeout.  Other
        pending events due earlier fire along the way — this is how a
        blocking call and in-flight exchanges share one virtual
        timeline.
        """
        while not self.done:
            if not self._scheduler.run_next():  # pragma: no cover
                raise RuntimeError(
                    "scheduler drained before the exchange completed"
                )
        return self._response
