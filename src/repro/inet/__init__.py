"""Wire-level primitives shared by the transport substrate and the DNS
data model.

``repro.inet`` is the bottom of the package layering (``lint < inet <
net < dns < worldgen < zonelint < core``): it holds the value types and
protocols that both :mod:`repro.net` (the simulated internetwork) and
:mod:`repro.dns` (the DNS data model) need — IPv4 addresses, the
simulated clock, the query-transport protocol and its timeout
exception, the retransmission backoff policy and the heap policy.
Keeping them here is what lets ``repro.dns`` stay independent of the
transport substrate (ARCH001): the data model names addresses and reads
simulated time without importing the delivery fabric that uses them.

Everything in this package is stdlib-only and importable on its own,
exactly like :mod:`repro.lint`.
"""

from __future__ import annotations

from .address import BlockAllocator, IPv4Address, IPv4Prefix, parse_ipv4
from .backoff import BackoffPolicy
from .clock import (
    SECONDS_PER_DAY,
    SimulatedClock,
    date_to_epoch,
    days_in_year,
    epoch_to_date,
    year_bounds,
)
from .transport import Host, NetworkError, QueryTimeout, QueryTransport

__all__ = [
    "BlockAllocator",
    "IPv4Address",
    "IPv4Prefix",
    "parse_ipv4",
    "BackoffPolicy",
    "SECONDS_PER_DAY",
    "SimulatedClock",
    "date_to_epoch",
    "days_in_year",
    "epoch_to_date",
    "year_bounds",
    "Host",
    "NetworkError",
    "QueryTimeout",
    "QueryTransport",
]
