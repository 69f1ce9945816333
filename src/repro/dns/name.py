"""Domain names as immutable label sequences.

Names are the coin of this entire reproduction: zone boundaries, suffix
checks ("is this under ``gov.au``?"), DNS-hierarchy levels (the paper
breaks several results down by second- vs third- vs fourth-level
domains), and the single-label-typo pathology from §IV-D all reduce to
label algebra, which lives here.

A :class:`DnsName` stores labels in *wire order* (leftmost label first,
root excluded), lowercased — DNS names are case-insensitive and every
component of the reproduction normalizes on construction so that name
equality is plain tuple equality.

Hot-path kernels
----------------
A scale-1.0 campaign constructs and compares names hundreds of millions
of times (every referral walk re-derives ancestors, every cache lookup
hashes, every serialization stringifies), so this module keeps three
kernels:

* **Hash-consing** — the constructor returns the one instance that
  exists per distinct validated label tuple, held in a module-level
  table.  Constructing a name that was seen before allocates nothing,
  equality is identity, and the hash is computed once per distinct name
  ever seen.
* **Cached derived forms** — the presentation string, the hierarchical
  sort key and the RFC 1035 wire encoding are slots of that one
  instance, computed lazily on first use.
* **Memoized validation** — per-label character checks run once per
  distinct label (:func:`functools.lru_cache`), not once per
  construction.

The table grows with the set of distinct names in a world, which is
bounded by worldgen; it is process-wide and safe because names are
immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .errors import NameError_

__all__ = ["DnsName", "ROOT", "parse_cached"]

_MAX_LABEL = 63
_MAX_NAME = 253  # presentation form, excluding the trailing dot

_LDH = frozenset("abcdefghijklmnopqrstuvwxyz0123456789-_")


@lru_cache(maxsize=None)
def _validate_label(label: str) -> str:
    if not label:
        raise NameError_("empty label")
    if len(label) > _MAX_LABEL:
        raise NameError_(f"label too long ({len(label)} > {_MAX_LABEL}): {label!r}")
    lowered = label.lower()
    if not _LDH.issuperset(lowered):
        raise NameError_(f"invalid character in label: {label!r}")
    return lowered


# validated label tuple -> the one DnsName spelling it.
_INTERN: Dict[Tuple[str, ...], "DnsName"] = {}


class DnsName:
    """An absolute domain name (the root is the empty name).

    Instances are immutable, hashable, and totally ordered by their
    reversed label tuple, which sorts a namespace hierarchically
    (``gov.au`` < ``health.gov.au`` < ``gov.br``).  One instance exists
    per distinct name, so equality is the inherited identity test.
    """

    # The sort key, text and wire slots are filled once, on first use.
    __slots__ = ("_labels", "_hash", "_sort_key", "_text", "_wire")

    def __new__(cls, labels: Iterable[str]) -> "DnsName":
        # Fast path: only validated tuples enter the table, so a hit
        # skips the per-label checks; other spellings fall through.
        if type(labels) is tuple:
            name = _INTERN.get(labels)
            if name is not None:
                return name
        validated = tuple(map(_validate_label, labels))
        name = _INTERN.get(validated)
        if name is None:
            # First sighting: check the whole-name length once.
            presentation_length = sum(map(len, validated)) + len(validated) - 1
            if validated and presentation_length > _MAX_NAME:
                raise NameError_(
                    f"name too long ({presentation_length} > {_MAX_NAME})"
                )
            name = object.__new__(cls)
            init = object.__setattr__
            init(name, "_labels", validated)
            # Cached for __hash__ only; never ordered or serialized.
            init(name, "_hash", hash(validated))  # reprolint: disable=DET005
            init(name, "_sort_key", None)
            init(name, "_text", None)
            init(name, "_wire", None)
            _INTERN[validated] = name
        return name

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("DnsName is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[str, ...], ...]]:
        # Pickle/copy support: rebuilding through the constructor
        # returns the receiving process's interned instance, so a name
        # shipped to or from a shard worker is the one object for that
        # name there too.
        return (DnsName, (self._labels,))

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "DnsName":
        """Parse presentation form; a lone ``.`` (or ``""``) is the root."""
        text = text.strip()
        if text in (".", ""):
            return ROOT
        if text.endswith("."):
            text = text[:-1]
        if not text or text.startswith(".") or ".." in text:
            raise NameError_(f"malformed name: {text!r}")
        return cls(tuple(text.split(".")))

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def labels(self) -> Tuple[str, ...]:
        return self._labels

    @property
    def is_root(self) -> bool:
        return not self._labels

    @property
    def level(self) -> int:
        """Depth in the DNS hierarchy: TLDs are level 1, ``gov.au`` is 2.

        The paper reports that <1% of studied domains sit at level 2,
        85.4% at level 3, and 10.9% at level 4; several analyses slice
        results by this value.
        """
        return len(self._labels)

    @property
    def wire(self) -> bytes:
        """The RFC 1035 wire encoding: length-prefixed labels plus the
        terminating root byte.  Computed once per distinct name."""
        encoded = self._wire
        if encoded is None:
            encoded = (
                b"".join(
                    bytes((len(label),)) + label.encode("ascii")
                    for label in self._labels
                )
                + b"\x00"
            )
            object.__setattr__(self, "_wire", encoded)
        return encoded

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def parent(self) -> "DnsName":
        """The name with the leftmost label removed.

        Note this is the *name* parent, not necessarily the parent
        *zone*: zone parenthood depends on where NS records sit and is
        computed by :mod:`repro.dns.zone`.
        """
        if self.is_root:
            raise NameError_("the root has no parent")
        return DnsName(self._labels[1:])

    def ancestors(self, include_self: bool = False) -> Iterator["DnsName"]:
        """Yield enclosing names, nearest first, ending with the root."""
        start = 0 if include_self else 1
        for index in range(start, len(self._labels) + 1):
            yield DnsName(self._labels[index:])

    def is_subdomain_of(self, other: "DnsName") -> bool:
        """True when ``self`` is ``other`` or lies beneath it."""
        if self is other:
            return True
        mine = self._labels
        theirs = other._labels
        offset = len(mine) - len(theirs)
        return offset > 0 and mine[offset:] == theirs

    def is_proper_subdomain_of(self, other: "DnsName") -> bool:
        return self is not other and self.is_subdomain_of(other)

    def child_label_under(self, ancestor: "DnsName") -> str:
        """The label immediately below ``ancestor`` on the path to self.

        For ``www.health.gov.au`` under ``gov.au`` this is ``health`` —
        used when walking delegations downward.
        """
        if not self.is_proper_subdomain_of(ancestor):
            raise NameError_(f"{self} is not below {ancestor}")
        offset = len(self._labels) - len(ancestor._labels)
        return self._labels[offset - 1]

    def prepend(self, label: str) -> "DnsName":
        """Return ``label.self``."""
        return DnsName((label,) + self._labels)

    def concat(self, suffix: "DnsName") -> "DnsName":
        """Return the name ``self`` relative to ``suffix`` (``self.suffix``)."""
        return DnsName(self._labels + suffix._labels)

    def slice_to_level(self, level: int) -> "DnsName":
        """The enclosing name at the given hierarchy level.

        ``DnsName.parse("a.b.gov.au").slice_to_level(2)`` is ``gov.au``.
        """
        if not 0 <= level <= self.level:
            raise NameError_(f"level {level} out of range for {self}")
        return DnsName(self._labels[len(self._labels) - level:])

    def registered_domain(self, public_suffixes: "frozenset[DnsName]") -> "DnsName":
        """The registrable domain: one label below the longest matching
        public suffix.

        The paper extracts either a government suffix (``gov.au``) or a
        registered domain (``regjeringen.no``) from each national-portal
        FQDN; the registry substrate supplies the suffix set.
        """
        best: Optional[DnsName] = None
        for candidate in self.ancestors(include_self=True):
            if candidate in public_suffixes:
                best = candidate
                break
        if best is None:
            # No listed suffix: treat the TLD as the suffix, per
            # public-suffix-list convention.
            if self.level < 2:
                raise NameError_(f"{self} has no registrable domain")
            return self.slice_to_level(2)
        if best == self:
            raise NameError_(f"{self} is itself a public suffix")
        return self.slice_to_level(best.level + 1)

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def _sort_key_of(self) -> Tuple[str, ...]:
        key = self._sort_key
        if key is None:
            key = tuple(reversed(self._labels))
            object.__setattr__(self, "_sort_key", key)
        return key

    def __lt__(self, other: "DnsName") -> bool:
        return self._sort_key_of() < other._sort_key_of()

    def __le__(self, other: "DnsName") -> bool:
        return self is other or self < other

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return len(self._labels)

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = ".".join(self._labels) + "." if self._labels else "."
            object.__setattr__(self, "_text", text)
        return text

    def __repr__(self) -> str:
        return f"DnsName({str(self)!r})"


ROOT = DnsName(())


@lru_cache(maxsize=65536)
def parse_cached(text: str) -> DnsName:
    """Memoized :meth:`DnsName.parse` for hot loops over repeated names."""
    return DnsName.parse(text)
