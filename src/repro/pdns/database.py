"""The passive-DNS database — the Farsight DNSDB stand-in.

Supports the two access patterns the study uses:

1. **Left-hand wildcard search** (``*.gov.au``): every record whose
   owner name sits under a suffix.  Names order by *reversed* label
   tuple in this codebase, so all subdomains of a suffix form one
   contiguous run in a sorted key list; the wildcard is two bisects.
2. **Time-windowed retrieval**: records seen within a window (the paper
   keeps domains seen between January 2020 and the February-2021
   collection date as active-probe candidates, and slices per calendar
   year for the longitudinal analyses).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterator, List, Optional, Tuple

from ..dns.name import DnsName
from .record import PdnsRecord

__all__ = ["PdnsDatabase"]


class _ReversedNameKey:
    """Sort key wrapper so bisect can binary-search DnsName order."""

    __slots__ = ("labels",)

    def __init__(self, name: DnsName) -> None:
        self.labels = tuple(reversed(name.labels))

    def __lt__(self, other: "_ReversedNameKey") -> bool:
        return self.labels < other.labels

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, _ReversedNameKey) and self.labels == other.labels
        )


class PdnsDatabase:
    """Aggregated observation store keyed by (name, type, rdata)."""

    def __init__(self) -> None:
        self._records: Dict[Tuple[DnsName, str, str], PdnsRecord] = {}
        self._by_name: Dict[DnsName, List[Tuple[DnsName, str, str]]] = {}
        self._sorted_names: List[DnsName] = []
        self._sorted_keys: List[_ReversedNameKey] = []
        self._dirty = False

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def observe(
        self,
        rrname: DnsName,
        rrtype: str,
        rdata: str,
        timestamp: float,
        count: int = 1,
    ) -> None:
        """Record one observation, merging into any existing row."""
        key = (rrname, rrtype, rdata)
        existing = self._records.get(key)
        if existing is not None:
            self._records[key] = existing.merged_with(timestamp, count)
            return
        self._records[key] = PdnsRecord(
            rrname=rrname,
            rrtype=rrtype,
            rdata=rdata,
            first_seen=timestamp,
            last_seen=timestamp,
            count=count,
        )
        if rrname not in self._by_name:
            self._by_name[rrname] = []
            self._dirty = True
        self._by_name[rrname].append(key)

    def observe_span(
        self,
        rrname: DnsName,
        rrtype: str,
        rdata: str,
        first_seen: float,
        last_seen: float,
        count: int = 1,
    ) -> None:
        """Ingest a pre-aggregated row (bulk world-generation path)."""
        if last_seen < first_seen:
            raise ValueError("last_seen precedes first_seen")
        key = (rrname, rrtype, rdata)
        existing = self._records.get(key)
        if existing is not None:
            first_seen = min(existing.first_seen, first_seen)
            last_seen = max(existing.last_seen, last_seen)
            count += existing.count
        self._records[key] = PdnsRecord(
            rrname, rrtype, rdata, first_seen, last_seen, count
        )
        if existing is None:
            keys = self._by_name.get(rrname)
            if keys is None:
                self._by_name[rrname] = [key]
                self._dirty = True
            else:
                keys.append(key)

    # ------------------------------------------------------------------
    # Retrieval
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[PdnsRecord]:
        return iter(self._records.values())

    def lookup(
        self, rrname: DnsName, rrtype: Optional[str] = None
    ) -> Tuple[PdnsRecord, ...]:
        """Exact-name lookup, optionally filtered by type."""
        keys = self._by_name.get(rrname, ())
        records = (self._records[key] for key in keys)
        if rrtype is None:
            return tuple(records)
        return tuple(r for r in records if r.rrtype == rrtype)

    def wildcard_left(
        self,
        suffix: DnsName,
        rrtype: Optional[str] = None,
        include_apex: bool = True,
        seen_after: Optional[float] = None,
        seen_before: Optional[float] = None,
    ) -> Tuple[PdnsRecord, ...]:
        """``*.suffix`` search, the DNSDB query the study is built on.

        ``seen_after``/``seen_before`` bound the record's observed
        lifetime overlap, matching DNSDB's time-fencing parameters.
        """
        self._ensure_sorted()
        probe = _ReversedNameKey(suffix)
        low = bisect.bisect_left(self._sorted_keys, probe)
        results: List[PdnsRecord] = []
        for index in range(low, len(self._sorted_names)):
            name = self._sorted_names[index]
            if not name.is_subdomain_of(suffix):
                break
            if not include_apex and name == suffix:
                continue
            for key in self._by_name[name]:
                record = self._records[key]
                if rrtype is not None and record.rrtype != rrtype:
                    continue
                if seen_after is not None and record.last_seen < seen_after:
                    continue
                if seen_before is not None and record.first_seen > seen_before:
                    continue
                results.append(record)
        return tuple(results)

    def names_under(
        self,
        suffix: DnsName,
        rrtype: Optional[str] = None,
        seen_after: Optional[float] = None,
        seen_before: Optional[float] = None,
    ) -> Tuple[DnsName, ...]:
        """Distinct owner names matched by a wildcard search."""
        seen = {}
        for record in self.wildcard_left(
            suffix, rrtype=rrtype, seen_after=seen_after, seen_before=seen_before
        ):
            seen[record.rrname] = None
        return tuple(seen)

    def _ensure_sorted(self) -> None:
        if self._dirty:
            self._sorted_names = sorted(self._by_name)
            self._sorted_keys = [
                _ReversedNameKey(name) for name in self._sorted_names
            ]
            self._dirty = False
