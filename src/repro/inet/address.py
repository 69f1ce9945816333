"""IPv4 addresses, prefixes, and block allocation.

The paper's diversity analysis (Table I) counts, for each domain, the
distinct IPv4 addresses, /24 prefixes, and autonomous systems hosting its
authoritative nameservers.  This module provides a compact IPv4 model:
addresses are plain ``int`` under the hood (hashable, orderable, cheap to
store by the million), wrapped in small value types with the arithmetic
the analyses need.

We deliberately do not use :mod:`ipaddress` from the standard library in
the hot paths: the simulator allocates and compares millions of addresses
and the tuned integer representation here is significantly faster, while
the public API still accepts and produces dotted-quad strings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator

__all__ = [
    "IPv4Address",
    "IPv4Prefix",
    "BlockAllocator",
    "parse_address_cached",
    "parse_ipv4",
]

_MAX_IPV4 = 0xFFFFFFFF


def parse_ipv4(text: str) -> int:
    """Parse dotted-quad notation into a 32-bit integer.

    Raises :class:`ValueError` for anything that is not exactly four
    dot-separated decimal octets in range.
    """
    parts = text.split(".")
    if len(parts) != 4:
        raise ValueError(f"invalid IPv4 address: {text!r}")
    value = 0
    for part in parts:
        if not part.isdigit():
            raise ValueError(f"invalid IPv4 address: {text!r}")
        octet = int(part)
        if octet > 255:
            raise ValueError(f"invalid IPv4 address: {text!r}")
        value = (value << 8) | octet
    return value


def _format_ipv4(value: int) -> str:
    return ".".join(
        str((value >> shift) & 0xFF) for shift in (24, 16, 8, 0)
    )


# The distinct addresses in a world are bounded by worldgen, while the
# canonical dataset serialization stringifies them once per result
# field; memoizing by value keeps that a dict probe.
_format_ipv4_cached = lru_cache(maxsize=65536)(_format_ipv4)


@lru_cache(maxsize=65536)
def parse_address_cached(text: str) -> "IPv4Address":
    """Memoized :meth:`IPv4Address.parse`, the inverse direction:
    decoding canonical dataset rows meets each spelling once per result
    field, and addresses are immutable, so fields share one instance."""
    return IPv4Address(parse_ipv4(text))


@dataclass(frozen=True, order=True)
class IPv4Address:
    """An IPv4 address as an immutable value type."""

    value: int

    def __post_init__(self) -> None:
        if not 0 <= self.value <= _MAX_IPV4:
            raise ValueError(f"IPv4 value out of range: {self.value}")

    def __hash__(self) -> int:
        # Addresses key the hottest dicts and sets in the simulator
        # (politeness tracking, per-destination stats, attachment
        # lookup); the generated dataclass hash builds a tuple per call.
        return self.value

    @classmethod
    def parse(cls, text: str) -> "IPv4Address":
        return cls(parse_ipv4(text))

    def slash24(self) -> "IPv4Prefix":
        """The /24 prefix containing this address (Table I metric)."""
        return IPv4Prefix(self.value & 0xFFFFFF00, 24)

    def prefix(self, length: int) -> "IPv4Prefix":
        """The prefix of the given length containing this address."""
        return IPv4Prefix(self.value & IPv4Prefix.mask_for(length), length)

    def __str__(self) -> str:
        return _format_ipv4_cached(self.value)

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"


@dataclass(frozen=True, order=True)
class IPv4Prefix:
    """A CIDR prefix, e.g. ``203.0.113.0/24``."""

    network: int
    length: int

    def __post_init__(self) -> None:
        if not 0 <= self.length <= 32:
            raise ValueError(f"prefix length out of range: {self.length}")
        if self.network & ~self.mask_for(self.length):
            raise ValueError(
                f"host bits set in prefix {_format_ipv4(self.network)}/{self.length}"
            )

    @staticmethod
    def mask_for(length: int) -> int:
        if not 0 <= length <= 32:
            raise ValueError(f"prefix length out of range: {length}")
        return (_MAX_IPV4 << (32 - length)) & _MAX_IPV4 if length else 0

    @classmethod
    def parse(cls, text: str) -> "IPv4Prefix":
        network_text, _, length_text = text.partition("/")
        if not length_text:
            raise ValueError(f"missing prefix length: {text!r}")
        return cls(parse_ipv4(network_text), int(length_text))

    @property
    def size(self) -> int:
        """Number of addresses covered by the prefix."""
        return 1 << (32 - self.length)

    def contains(self, address: IPv4Address) -> bool:
        return (address.value & self.mask_for(self.length)) == self.network

    def addresses(self) -> Iterator[IPv4Address]:
        """Iterate every address in the prefix (use only on small blocks)."""
        for value in range(self.network, self.network + self.size):
            yield IPv4Address(value)

    def nth(self, index: int) -> IPv4Address:
        """The ``index``-th address within the prefix."""
        if not 0 <= index < self.size:
            raise IndexError(
                f"index {index} out of range for /{self.length} prefix"
            )
        return IPv4Address(self.network + index)

    def subprefixes(self, length: int) -> Iterator["IPv4Prefix"]:
        """Iterate the sub-prefixes of the given (longer) length."""
        if length < self.length:
            raise ValueError(
                f"cannot split /{self.length} into shorter /{length}"
            )
        step = 1 << (32 - length)
        for network in range(self.network, self.network + self.size, step):
            yield IPv4Prefix(network, length)

    def __str__(self) -> str:
        return f"{_format_ipv4(self.network)}/{self.length}"

    def __repr__(self) -> str:
        return f"IPv4Prefix({str(self)!r})"


class BlockAllocator:
    """Sequentially allocates disjoint CIDR blocks from a parent prefix.

    The world generator carves the simulated Internet's address space
    into per-AS blocks with this allocator; the GeoIP database is then
    simply the record of what was allocated.  Allocation is first-fit and
    deterministic.
    """

    def __init__(self, parent: IPv4Prefix) -> None:
        self._parent = parent
        self._cursor = parent.network
        self._end = parent.network + parent.size

    @property
    def parent(self) -> IPv4Prefix:
        return self._parent

    @property
    def remaining(self) -> int:
        """Addresses not yet handed out."""
        return self._end - self._cursor

    def allocate(self, length: int) -> IPv4Prefix:
        """Allocate the next free block of the given prefix length.

        Blocks are aligned to their natural boundary, so allocation may
        skip addresses.  Raises :class:`MemoryError`-flavoured
        :class:`RuntimeError` when the parent block is exhausted.
        """
        if length < self._parent.length:
            raise ValueError(
                f"cannot allocate /{length} from /{self._parent.length}"
            )
        size = 1 << (32 - length)
        aligned = (self._cursor + size - 1) & ~(size - 1)
        if aligned + size > self._end:
            raise RuntimeError(
                f"address space exhausted in {self._parent}: "
                f"cannot allocate /{length}"
            )
        self._cursor = aligned + size
        return IPv4Prefix(aligned, length)
