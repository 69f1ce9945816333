"""An in-process simulated internetwork.

The substrate beneath the DNS reproduction.  Hosts (authoritative
nameservers, mostly) are objects bound to IPv4 addresses; a
:class:`Network` delivers request/response exchanges between a client
and a host, charging simulated time for latency and modeling loss,
unreachable addresses, and silent (blackholed) hosts.

The exchange model is deliberately UDP-shaped, matching how the paper's
probes talk to authoritative servers: a single datagram out, at most one
datagram back, and any failure manifests to the client as a timeout.
The client-side retry policy lives in the DNS resolver, not here.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional

from ..inet.transport import Host, NetworkError, QueryTimeout
from ..inet.address import IPv4Address
from .chaos import FaultSchedule
from ..inet.clock import SimulatedClock
from .events import EventScheduler, PendingExchange
from .latency import FixedLatency, LatencyModel

__all__ = ["Host", "NetworkError", "QueryTimeout", "Network", "NetworkStats"]


@dataclass
class NetworkStats:
    """Counters the ethics module and tests use to audit probe traffic."""

    queries_sent: int = 0
    responses_received: int = 0
    timeouts: int = 0
    datagrams_lost: int = 0
    # A Counter keeps the hot per-query increment a single __setitem__
    # with no .get() round-trip; it is still a dict to all readers.
    per_destination: "Counter[IPv4Address]" = field(default_factory=Counter)

    def record_query(self, destination: IPv4Address) -> None:
        self.queries_sent += 1
        self.per_destination[destination] += 1


class _Attachment:
    """Per-address delivery state; one per attached host (hot path)."""

    __slots__ = ("host", "up", "loss_rate", "latency")

    def __init__(
        self,
        host: Host,
        up: bool = True,
        loss_rate: float = 0.0,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        self.host = host
        self.up = up
        self.loss_rate = loss_rate
        self.latency = latency


class Network:
    """Registry of hosts plus a request/response delivery fabric.

    Parameters
    ----------
    clock:
        Simulated clock charged for each exchange.
    rng:
        Source of randomness for loss and latency.  Supply a seeded
        :class:`random.Random` for reproducible runs.
    default_latency:
        Latency model used for attachments that do not override it.
    """

    def __init__(
        self,
        clock: Optional[SimulatedClock] = None,
        rng: Optional[random.Random] = None,
        default_latency: Optional[LatencyModel] = None,
        flaky_share: float = 0.0,
        flaky_loss_rate: float = 0.5,
        flaky_seed: int = 0,
    ) -> None:
        """``flaky_share``/``flaky_loss_rate``: at attach time, that
        share of hosts (those without an explicit loss rate) gets the
        given loss rate — the transient-failure population that the
        probe's retry round exists to absorb.  Which hosts are flaky is
        a pure function of ``(flaky_seed, address)``: the same seed
        yields the same flaky set no matter the attach order."""
        if not 0.0 <= flaky_share <= 1.0:
            raise ValueError(f"flaky share out of range: {flaky_share}")
        if not 0.0 <= flaky_loss_rate < 1.0:
            raise ValueError(f"flaky loss rate out of range: {flaky_loss_rate}")
        self.clock = clock if clock is not None else SimulatedClock()
        # The constant-seeded default only serves directly-built
        # networks (unit tests); every generated world passes a stream
        # derived from its seed.
        self._rng = (
            rng if rng is not None else random.Random(0)  # reprolint: disable=FLW102
        )
        self._default_latency = (
            default_latency if default_latency is not None else FixedLatency(0.02)
        )
        self._flaky_share = flaky_share
        self._flaky_loss_rate = flaky_loss_rate
        self._flaky_seed = flaky_seed
        self._attachments: Dict[IPv4Address, _Attachment] = {}
        self.stats = NetworkStats()
        self.events = EventScheduler(self.clock)
        # Optional fault-injection schedule consulted at send time.
        self.chaos: Optional[FaultSchedule] = None
        # Optional checkpoint/resume tap (see repro.core.journal): an
        # object with replay_send(network) and record_send(network,
        # kind, delay).  Typed loosely because the journal lives above
        # the net layer.
        self.journal: Optional[Any] = None

    # ------------------------------------------------------------------
    # Topology management
    # ------------------------------------------------------------------
    def attach(
        self,
        address: IPv4Address,
        host: Host,
        loss_rate: float = 0.0,
        latency: Optional[LatencyModel] = None,
    ) -> None:
        """Bind a host to an address.

        An address can hold only one host; rebinding is an error so that
        world-generation bugs (two servers allocated the same IP) surface
        loudly instead of silently shadowing each other.
        """
        if address in self._attachments:
            raise ValueError(f"address {address} already attached")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate out of range: {loss_rate}")
        if (
            loss_rate == 0.0
            and self._flaky_share
            and self._flaky_draw(address) < self._flaky_share
        ):
            loss_rate = self._flaky_loss_rate
        self._attachments[address] = _Attachment(
            host=host, loss_rate=loss_rate, latency=latency
        )

    def detach(self, address: IPv4Address) -> None:
        """Remove a host from the network (address becomes unreachable)."""
        if address not in self._attachments:
            raise KeyError(f"address {address} not attached")
        del self._attachments[address]

    def set_up(self, address: IPv4Address, up: bool) -> None:
        """Administratively raise or lower a host without detaching it.

        The probe retry round exists because of exactly this distinction:
        a transiently-down host answers in round two, a detached one
        never does.
        """
        self._attachments[address].up = up

    def is_attached(self, address: IPv4Address) -> bool:
        return address in self._attachments

    def host_at(self, address: IPv4Address) -> Optional[Host]:
        attachment = self._attachments.get(address)
        return attachment.host if attachment is not None else None

    def addresses(self) -> list[IPv4Address]:
        return list(self._attachments)

    def effective_loss_rate(self, address: IPv4Address) -> float:
        """The attachment's loss rate after flaky-population selection."""
        return self._attachments[address].loss_rate

    def _flaky_draw(self, address: IPv4Address) -> float:
        # Per-address seeded draw: flakiness must not depend on attach
        # order, or two structurally identical worlds built in different
        # orders would disagree on which hosts misbehave.
        mix = (self._flaky_seed * 0x9E3779B97F4A7C15 + address.value) & (
            (1 << 64) - 1
        )
        return random.Random(mix).random()

    # ------------------------------------------------------------------
    # Checkpoint support (see repro.core.journal)
    # ------------------------------------------------------------------
    def rng_state(self) -> Any:
        return self._rng.getstate()

    def restore_rng_state(self, state: Any) -> None:
        self._rng.setstate(state)

    # ------------------------------------------------------------------
    # Delivery
    # ------------------------------------------------------------------
    def send(
        self,
        destination: IPv4Address,
        payload: Any,
        source: Optional[IPv4Address] = None,
        timeout: float = 5.0,
        on_complete: Optional[Callable[[PendingExchange], None]] = None,
    ) -> PendingExchange:
        """Issue one datagram without blocking; returns the in-flight
        exchange.

        The outcome is drawn *now* (loss, latency, and the server's
        reply, in the same RNG order as the blocking path — hosts here
        are time-independent, so answering early changes nothing), but
        it becomes observable only when the event scheduler reaches the
        exchange's due time: the round-trip on success, the caller's
        full ``timeout`` on silence.  Overlapping sends therefore cost
        the *max* of their waits in simulated time, not the sum.
        """
        if timeout <= 0:
            raise ValueError(f"timeout must be positive: {timeout}")
        self.stats.record_query(destination)
        src = source if source is not None else IPv4Address.parse("192.0.2.1")

        response: Optional[Any] = None
        delay = timeout
        attachment = self._attachments.get(destination)
        reachable = attachment is not None and attachment.up
        journal = self.journal
        entry = journal.replay_send(self) if journal is not None else None
        if entry is not None:
            response, delay = self._replay_outcome(
                entry,
                destination,
                payload,
                src,
                attachment if reachable else None,
                timeout,
            )
        else:
            if reachable:
                assert attachment is not None
                response, delay, kind = self._live_outcome(
                    destination, payload, src, attachment, timeout
                )
            else:
                kind = "t"
            if journal is not None:
                journal.record_send(self, kind, delay)

        exchange = PendingExchange(
            destination=destination,
            timeout=timeout,
            due_time=self.clock.now + delay,
            response=response,
            scheduler=self.events,
            on_complete=on_complete,
        )
        self.events.schedule_at(exchange.due_time, self._deliver(exchange))
        return exchange

    def _live_outcome(
        self,
        destination: IPv4Address,
        payload: Any,
        src: IPv4Address,
        attachment: _Attachment,
        timeout: float,
    ) -> "tuple[Optional[Any], float, str]":
        """Draw one exchange's fate: ``(response, delay, journal kind)``.

        Kind is ``"a"`` (answered), ``"r"`` (chaos refusal), or ``"t"``
        (silence) — the alphabet the checkpoint journal records.  With
        no chaos schedule installed this is byte-identical (same RNG
        draws, same order) to the historical send path.
        """
        chaos = self.chaos
        decision = None
        if chaos is not None:
            decision = chaos.admit(destination, self.clock.now)
            if decision.outage:
                return None, timeout, "t"
            if decision.refuse:
                # A refusing server still answers — charge a round-trip
                # (sampled exactly like a normal response) plus any
                # brownout surcharge.
                latency = attachment.latency or self._default_latency
                rtt = (
                    latency.sample(self._rng)
                    + latency.sample(self._rng)
                    + decision.extra_latency
                )
                refusal = chaos.refusal(payload)
                if refusal is not None and rtt < timeout:
                    return refusal, rtt, "r"
                return None, timeout, "t"
        lost = (
            attachment.loss_rate and self._rng.random() < attachment.loss_rate
        )
        if not lost and decision is not None and decision.loss_rate:
            assert chaos is not None
            lost = chaos.draw_loss(decision.loss_rate)
        if lost:
            self.stats.datagrams_lost += 1
            return None, timeout, "t"
        latency = attachment.latency or self._default_latency
        rtt = latency.sample(self._rng) + latency.sample(self._rng)
        if decision is not None:
            rtt += decision.extra_latency
        if rtt < timeout:
            reply = attachment.host.handle_datagram(payload, src)
            if reply is not None:
                return reply, rtt, "a"
        return None, timeout, "t"

    def _replay_outcome(
        self,
        entry: "tuple[str, float]",
        destination: IPv4Address,
        payload: Any,
        src: IPv4Address,
        attachment: Optional[_Attachment],
        timeout: float,
    ) -> "tuple[Optional[Any], float]":
        """Re-enact a journaled exchange without consuming randomness.

        Hosts are pure functions of their zones, so answered exchanges
        re-invoke the host (cheap, and keeps payload-shaped state like
        caches warm); loss/latency draws are replaced by the recorded
        outcome.  Stateful chaos rate-limit windows are kept warm via
        ``note_arrival`` under exactly the live path's preconditions.
        Divergence (the world does not match the journal) raises
        :class:`NetworkError` rather than silently corrupting the run.
        """
        kind, delay = entry
        chaos = self.chaos
        if (
            attachment is not None
            and chaos is not None
            and not chaos.in_outage(destination, self.clock.now)
        ):
            chaos.note_arrival(destination, self.clock.now)
        if kind == "a":
            reply = (
                attachment.host.handle_datagram(payload, src)
                if attachment is not None
                else None
            )
            if reply is None:
                raise NetworkError(
                    f"journal replay diverged: {destination} answered in the "
                    f"recorded run but is silent now (world mismatch?)"
                )
            return reply, delay
        if kind == "r":
            refusal = chaos.refusal(payload) if chaos is not None else None
            if refusal is None:
                raise NetworkError(
                    f"journal replay diverged: recorded refusal from "
                    f"{destination} but no chaos refusal factory is installed"
                )
            return refusal, delay
        if kind != "t":
            raise NetworkError(f"journal replay: unknown send kind {kind!r}")
        return None, timeout

    def _deliver(self, exchange: PendingExchange) -> Callable[[], None]:
        """Completion event: settle stats, then surface the exchange."""

        def fire() -> None:
            if exchange._response is None:
                self.stats.timeouts += 1
            else:
                self.stats.responses_received += 1
            exchange._complete()

        return fire

    def query(
        self,
        destination: IPv4Address,
        payload: Any,
        source: Optional[IPv4Address] = None,
        timeout: float = 5.0,
    ) -> Any:
        """Send one datagram and wait for one response.

        Returns the response payload, or raises :class:`QueryTimeout`.
        Simulated time advances by the round-trip latency on success and
        by the full ``timeout`` on failure — so a probe run over a world
        full of dead servers takes proportionally longer, as it did for
        the paper's authors.  (One blocking exchange through the event
        scheduler: ``send(...).wait()``.)
        """
        response = self.send(
            destination, payload, source=source, timeout=timeout
        ).wait()
        if response is None:
            raise QueryTimeout(destination, timeout)
        return response


class FunctionHost(Host):
    """Adapter wrapping a plain callable as a network host."""

    def __init__(
        self, handler: Callable[[Any, IPv4Address], Optional[Any]]
    ) -> None:
        self._handler = handler

    def handle_datagram(self, payload: Any, source: IPv4Address) -> Optional[Any]:
        return self._handler(payload, source)


__all__.append("FunctionHost")
