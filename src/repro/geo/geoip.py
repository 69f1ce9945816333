"""IP-to-ASN lookup — the MaxMind GeoIP2 ASN stand-in.

The paper resolves every nameserver to IPv4 addresses and then asks, per
domain, how many /24 prefixes and how many ASNs those addresses span
(Table I).  The /24 computation is pure arithmetic
(:meth:`repro.inet.address.IPv4Address.slash24`); the ASN side needs a
longest-prefix-match database, which this module provides with a sorted
interval table and binary search — the same query model as a compiled
MaxMind database.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..inet.address import IPv4Address, IPv4Prefix
from .asn import AsnRegistry, AutonomousSystem

__all__ = ["GeoIPDatabase", "GeoIPRecord"]


@dataclass(frozen=True)
class GeoIPRecord:
    """The result of a lookup: the covering block and its AS."""

    prefix: IPv4Prefix
    autonomous_system: AutonomousSystem


class GeoIPDatabase:
    """Maps IPv4 addresses to autonomous systems.

    Blocks must be disjoint (the builder allocates them that way); within
    that constraint, lookup is O(log n) over a frozen, bisect-able table.
    The table is rebuilt lazily after mutation, so bulk loading stays
    linear.
    """

    def __init__(self, registry: Optional[AsnRegistry] = None) -> None:
        self.registry = registry if registry is not None else AsnRegistry()
        self._blocks: List[Tuple[int, int, IPv4Prefix, int]] = []
        self._starts: List[int] = []
        self._dirty = False

    def add_block(self, prefix: IPv4Prefix, autonomous_system: AutonomousSystem) -> None:
        """Assign an address block to an AS."""
        if self.registry.get(autonomous_system.asn) is None:
            raise ValueError(f"{autonomous_system} not in this registry")
        self._blocks.append(
            (
                prefix.network,
                prefix.network + prefix.size - 1,
                prefix,
                autonomous_system.asn,
            )
        )
        self._dirty = True

    def _freeze(self) -> None:
        self._blocks.sort()
        previous_end = -1
        for start, end, prefix, _ in self._blocks:
            if start <= previous_end:
                raise ValueError(f"overlapping GeoIP block at {prefix}")
            previous_end = end
        self._starts = [start for start, _, _, _ in self._blocks]
        self._dirty = False

    def lookup(self, address: IPv4Address) -> Optional[GeoIPRecord]:
        """Return the covering block's record, or None for unknown space."""
        if self._dirty:
            self._freeze()
        index = bisect.bisect_right(self._starts, address.value) - 1
        if index < 0:
            return None
        start, end, prefix, asn = self._blocks[index]
        if address.value > end:
            return None
        autonomous_system = self.registry.get(asn)
        assert autonomous_system is not None
        return GeoIPRecord(prefix, autonomous_system)

    def asn_of(self, address: IPv4Address) -> Optional[int]:
        record = self.lookup(address)
        return record.autonomous_system.asn if record is not None else None

    def organization_of(self, address: IPv4Address) -> Optional[str]:
        record = self.lookup(address)
        return record.autonomous_system.organization if record is not None else None

    def __len__(self) -> int:
        return len(self._blocks)
