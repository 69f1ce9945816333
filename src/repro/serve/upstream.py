"""Health-aware upstream nameserver selection.

The probing resolver tries candidate servers in referral order — right
for measurement (every server must be observed), wrong for serving,
where the goal is answering fast despite sick upstreams.  This module
adds the serving policy:

:class:`UpstreamHealth`
    A per-nameserver health book: smoothed round-trip time (SRTT, the
    classic EWMA) plus a :class:`~repro.net.resilience.CircuitBreaker`
    fed with every exchange outcome.  Silence inflates SRTT to the
    timeout and counts toward opening the breaker; any response —
    including REFUSED/SERVFAIL — closes it (the breaker tracks
    reachability, not correctness).

:class:`HealthAwareResolver`
    The iterative resolver with one override: candidate servers are
    tried fastest-SRTT-first, breaker-open servers are skipped, and
    every exchange feeds the health book.  Ordering is deterministic —
    ``(srtt, address)`` — so two runs over the same event sequence pick
    identical servers.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from ..dns.message import Message
from ..dns.name import DnsName
from ..dns.resolver import Resolver, _dominant_failure
from ..dns.errors import NoNameservers
from ..inet.address import IPv4Address
from ..inet.clock import SimulatedClock
from ..net.resilience import CircuitBreaker

__all__ = ["HealthAwareResolver", "UpstreamHealth"]


class UpstreamHealth:
    """Per-nameserver SRTT tracking plus circuit-breaker gating."""

    def __init__(
        self,
        clock: SimulatedClock,
        breaker_threshold: int = 3,
        breaker_cooldown: float = 120.0,
        srtt_alpha: float = 0.3,
        default_srtt: float = 0.25,
        timeout_srtt: float = 3.0,
    ) -> None:
        if not 0.0 < srtt_alpha <= 1.0:
            raise ValueError(f"srtt_alpha must be in (0, 1]: {srtt_alpha}")
        if default_srtt <= 0 or timeout_srtt <= 0:
            raise ValueError("SRTT seeds must be positive")
        self.breaker = CircuitBreaker(
            clock, threshold=breaker_threshold, cooldown=breaker_cooldown
        )
        self._alpha = srtt_alpha
        self._default_srtt = default_srtt
        self._timeout_srtt = timeout_srtt
        self._srtt: Dict[IPv4Address, float] = {}

    def srtt(self, address: IPv4Address) -> float:
        return self._srtt.get(address, self._default_srtt)

    def order(self, candidates: Sequence[IPv4Address]) -> List[IPv4Address]:
        """Deduplicated candidates, fastest believed server first.

        The tiebreak on the address value keeps the order a pure
        function of the health book, not of arrival order.  Keying on
        the address's int orders exactly as the address itself does.
        """
        srtt = self._srtt.get
        default = self._default_srtt
        return sorted(
            dict.fromkeys(candidates),
            key=lambda address: (srtt(address, default), address.value),
        )

    def admit(self, address: IPv4Address) -> bool:
        """Breaker gate (open circuits are skipped, not retried)."""
        return self.breaker.allow(address)

    def observe(self, address: IPv4Address, rtt: Optional[float]) -> None:
        """Feed one exchange: ``rtt`` in seconds, or None for silence."""
        if rtt is None:
            self._srtt[address] = self._timeout_srtt
            self.breaker.record_outcome(address, responded=False)
            return
        previous = self._srtt.get(address, rtt)
        self._srtt[address] = (
            (1.0 - self._alpha) * previous + self._alpha * rtt
        )
        self.breaker.record_outcome(address, responded=True)

    def tracked(self) -> int:
        """How many addresses have an observed SRTT."""
        return len(self._srtt)


class HealthAwareResolver(Resolver):
    """Iterative resolver that orders candidate servers by health.

    Identical wire semantics to :class:`~repro.dns.resolver.Resolver`
    except for server choice: per referral level, candidates are tried
    in SRTT order, breaker-open addresses are skipped (bounded futility
    — a dead delegation fails fast instead of timing out once per
    client), and every exchange outcome updates the health book.
    """

    def __init__(
        self,
        network,
        root_addresses: Sequence[IPv4Address],
        health: UpstreamHealth,
        **kwargs,
    ) -> None:
        super().__init__(network, root_addresses, **kwargs)
        self._health = health

    def _try_servers(
        self,
        candidates: List[IPv4Address],
        unresolved_ns: List[DnsName],
        qname: DnsName,
        qtype: str,
        depth: int,
    ) -> Message:
        pending_ns = list(unresolved_ns)
        queue = self._health.order(candidates)
        failures: List[str] = []
        skipped = 0
        clock = self._network.clock
        while queue or pending_ns:
            if not queue:
                hostname = pending_ns.pop(0)
                queue = self._health.order(
                    self._resolve_ns_host(hostname, depth)
                )
                continue
            server = queue.pop(0)
            if not self._health.admit(server):
                skipped += 1
                continue
            before = clock.now
            response, outcome = self._exchange(server, qname, qtype)
            self._health.observe(
                server, None if outcome == "timeout" else clock.now - before
            )
            if response is not None:
                return response
            failures.append(outcome)
        if not failures and skipped:
            # Every candidate was breaker-blocked; the open circuits were
            # tripped by silence, so surface the exhaustion as timeouts.
            failures.append("timeout")
        raise NoNameservers(
            f"all nameservers failed for {qname} {qtype}",
            reason=_dominant_failure(failures),
        )
