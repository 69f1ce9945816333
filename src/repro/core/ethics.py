"""Measurement-ethics provisions (paper §III-D).

The paper's campaign ran from a single static address with an
identifying PTR record, rate-limited its queries, and avoided
re-querying dead parents.  The same provisions are first-class here: a
token-bucket :class:`RateLimiter` wired to the simulated clock (so
rate-limiting costs simulated time, exactly like real politeness), and
a helper to publish the research PTR record.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..dns.name import DnsName
from ..dns.rdata import PTR
from ..dns.zone import Zone
from ..inet.address import IPv4Address
from ..inet.clock import SimulatedClock

__all__ = ["RateLimiter", "research_ptr_zone"]


@dataclass
class RateLimiter:
    """Token bucket over simulated time.

    ``acquire`` blocks (advances the clock) when the probe is running
    hot, charging the campaign wall-clock for politeness the same way a
    ``sleep`` would in the real pipeline.
    """

    clock: SimulatedClock
    queries_per_second: float = 200.0
    burst: float = 50.0

    def __post_init__(self) -> None:
        if self.queries_per_second <= 0 or self.burst < 1:
            raise ValueError("rate parameters must be positive")
        self._tokens = self.burst
        self._last = self.clock.now
        self.waited_seconds = 0.0

    def acquire(self) -> None:
        """Take one token, advancing the clock if the bucket is dry."""
        now = self.clock.now
        self._tokens = min(
            self.burst,
            self._tokens + (now - self._last) * self.queries_per_second,
        )
        self._last = now
        if self._tokens < 1.0:
            wait = (1.0 - self._tokens) / self.queries_per_second
            self.clock.advance(wait)
            self.waited_seconds += wait
            self._tokens = 1.0
            self._last = self.clock.now
        self._tokens -= 1.0


def research_ptr_zone(
    source: IPv4Address, contact_host: str = "dnsresearch.example.edu"
) -> Zone:
    """The reverse zone identifying the probe host as a research
    machine, as §III-D describes."""
    octets = str(source).split(".")
    origin = DnsName.parse(
        f"{octets[2]}.{octets[1]}.{octets[0]}.in-addr.arpa."
    )
    zone = Zone(origin)
    record_name = DnsName.parse(f"{octets[3]}.{origin}")
    zone.add_records(record_name, PTR(DnsName.parse(contact_host)))
    return zone
