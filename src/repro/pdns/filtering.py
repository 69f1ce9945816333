"""PDNS data filtering (paper §III-C).

Two filters are applied before the longitudinal analyses:

1. **Stability**: drop records whose observed lifetime
   (last_seen − first_seen) is under a threshold.  The paper picks
   7 days — the largest default maximum TTL among popular resolvers —
   so that a promptly-corrected misconfiguration, which can echo from
   caches for up to that long, does not register as a deployment.
2. **Government-control dating**: for seed domains identified by a
   registered domain rather than a reserved suffix, ignore data from
   before the earliest government use of the domain (Web-Archive
   evidence), so a prior owner's DNS does not pollute the series.
"""

from __future__ import annotations

from typing import Iterable, List, Optional, Tuple

from ..dns.name import DnsName
from ..inet.clock import SECONDS_PER_DAY
from ..registry.whois import ArchiveIndex
from .record import PdnsRecord

__all__ = [
    "STABILITY_THRESHOLD_DAYS",
    "stable_records",
    "government_control_start",
    "filter_pre_government",
]

# Max default TTL across BIND / Unbound / MaraDNS / Windows DNS / Google
# Public DNS — 7 days (paper §III-C).
STABILITY_THRESHOLD_DAYS = 7


def stable_records(
    records: Iterable[PdnsRecord],
    min_days: float = STABILITY_THRESHOLD_DAYS,
) -> Tuple[PdnsRecord, ...]:
    """Keep records observed for at least ``min_days``.

    Transient rows — misconfigurations, momentary DDoS-protection
    switches, expiring domains — are excluded from deployment trends.
    """
    threshold = min_days * SECONDS_PER_DAY
    return tuple(r for r in records if r.duration >= threshold)


def government_control_start(
    seed: DnsName,
    suffix_is_reserved: bool,
    archive: Optional[ArchiveIndex] = None,
) -> Optional[float]:
    """Earliest timestamp at which data under ``seed`` is attributable
    to a government.

    Reserved suffixes are government-only for their whole delegation
    history (returns ``None`` — no lower bound needed); otherwise the
    Web-Archive index supplies the first government snapshot.
    """
    if suffix_is_reserved:
        return None
    if archive is None:
        return None
    return archive.earliest_government_snapshot(seed)


def filter_pre_government(
    records: Iterable[PdnsRecord],
    control_start: Optional[float],
) -> Tuple[PdnsRecord, ...]:
    """Drop records that ended before the government controlled the
    domain; clamp first_seen for ones that straddle the boundary."""
    if control_start is None:
        return tuple(records)
    kept: List[PdnsRecord] = []
    for record in records:
        if record.last_seen < control_start:
            continue
        if record.first_seen < control_start:
            record = PdnsRecord(
                rrname=record.rrname,
                rrtype=record.rrtype,
                rdata=record.rdata,
                first_seen=control_start,
                last_seen=record.last_seen,
                count=record.count,
            )
        kept.append(record)
    return tuple(kept)
