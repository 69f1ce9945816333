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

* **Label-tuple interning** — every validated label tuple is stored
  once in a module-level table; two equal names always share the *same*
  tuple object, so equality is a pointer comparison and the tuple's
  hash is computed exactly once per distinct name ever seen.
* **Cached derived forms** — the casefolded presentation string, the
  hierarchical sort key, and the RFC 1035 wire encoding are computed
  lazily and shared by *all* instances spelling the same name (they
  hang off the interned tuple, not the instance).
* **Memoized validation** — per-label character checks run once per
  distinct label (:func:`functools.lru_cache`), not once per
  construction.

Interning tables grow with the set of distinct names in a world, which
is bounded by worldgen; they are process-wide and safe because names
are immutable.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterable, Iterator, Optional, Tuple

from .errors import NameError_

__all__ = ["DnsName", "ROOT"]

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


class _NameForms:
    """The interned label tuple of one name, and the derived forms
    shared by every instance of it.

    The derived slots start as ``None`` and are filled on first use;
    once set they never change (names are immutable), so no
    invalidation exists.
    """

    __slots__ = ("labels", "hash", "sort_key", "text", "wire")

    def __init__(self, labels: Tuple[str, ...]) -> None:
        self.labels = labels
        # Cached for DnsName.__hash__ only; never ordered or serialized.
        self.hash = hash(labels)  # reprolint: disable=DET005
        self.sort_key: Optional[Tuple[str, ...]] = None
        self.text: Optional[str] = None
        self.wire: Optional[bytes] = None


# validated label tuple -> its shared forms (holding the one interned tuple).
_INTERN: Dict[Tuple[str, ...], _NameForms] = {}


class DnsName:
    """An absolute domain name (the root is the empty name).

    Instances are immutable, hashable, and totally ordered by their
    reversed label tuple, which sorts a namespace hierarchically
    (``gov.au`` < ``health.gov.au`` < ``gov.br``).
    """

    __slots__ = ("_labels", "_forms")

    def __init__(self, labels: Iterable[str]) -> None:
        # Fast path: a label tuple that is already interned was fully
        # validated when first seen (only validated tuples enter the
        # table), so the per-label checks can be skipped outright.
        # Unnormalized spellings (e.g. uppercase) miss and fall through.
        if type(labels) is tuple:
            forms = _INTERN.get(labels)
            if forms is not None:
                object.__setattr__(self, "_labels", forms.labels)
                object.__setattr__(self, "_forms", forms)
                return
        validated = tuple(map(_validate_label, labels))
        forms = _INTERN.get(validated)
        if forms is None:
            # First sighting of this spelling: run the whole-name length
            # check once, then intern.  Every later construction of an
            # equal name reuses the tuple (pointer-equal) and its hash.
            presentation_length = sum(map(len, validated)) + len(validated) - 1
            if validated and presentation_length > _MAX_NAME:
                raise NameError_(
                    f"name too long ({presentation_length} > {_MAX_NAME})"
                )
            forms = _NameForms(validated)
            _INTERN[validated] = forms
        object.__setattr__(self, "_labels", forms.labels)
        object.__setattr__(self, "_forms", forms)

    def __setattr__(self, key: str, value: object) -> None:
        raise AttributeError("DnsName is immutable")

    def __reduce__(self) -> Tuple[type, Tuple[Tuple[str, ...], ...]]:
        # Pickle/copy support: rebuilding through __init__ re-interns in
        # the receiving process, so cross-process names (the sharded
        # campaign runner's merge path) regain pointer-cheap equality.
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
        forms = self._forms
        encoded = forms.wire
        if encoded is None:
            encoded = (
                b"".join(
                    bytes((len(label),)) + label.encode("ascii")
                    for label in self._labels
                )
                + b"\x00"
            )
            forms.wire = encoded
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
        mine = self._labels
        theirs = other._labels
        if mine is theirs:  # interning: equal names share the tuple
            return True
        offset = len(mine) - len(theirs)
        return offset > 0 and mine[offset:] == theirs

    def is_proper_subdomain_of(self, other: "DnsName") -> bool:
        return self._labels is not other._labels and self.is_subdomain_of(other)

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
    def __eq__(self, other: object) -> bool:
        # Interning makes label tuples canonical: equal names always
        # share the tuple object, so equality is a pointer check.
        return isinstance(other, DnsName) and self._labels is other._labels

    def _sort_key(self) -> Tuple[str, ...]:
        forms = self._forms
        key = forms.sort_key
        if key is None:
            key = tuple(reversed(self._labels))
            forms.sort_key = key
        return key

    def __lt__(self, other: "DnsName") -> bool:
        return self._sort_key() < other._sort_key()

    def __le__(self, other: "DnsName") -> bool:
        return self._labels is other._labels or self < other

    def __hash__(self) -> int:
        return self._forms.hash

    def __len__(self) -> int:
        return len(self._labels)

    def __str__(self) -> str:
        forms = self._forms
        text = forms.text
        if text is None:
            text = ".".join(self._labels) + "." if self._labels else "."
            forms.text = text
        return text

    def __repr__(self) -> str:
        return f"DnsName({str(self)!r})"


ROOT = DnsName(())


@lru_cache(maxsize=65536)
def parse_cached(text: str) -> DnsName:
    """Memoized :meth:`DnsName.parse` for hot loops over repeated names."""
    return DnsName.parse(text)


__all__.append("parse_cached")
