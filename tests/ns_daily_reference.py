"""Per-year reference for the NS_daily summarization (paper Figure 5).

``PdnsReplicationAnalysis.year_states`` summarizes each domain's decade
in one pass.  These helpers are the direct per-year formulation it
replaced: for every year, filter the domain's records with
``active_during``, clip each lifetime to the year, and sweep.  The
tests use them as the oracle the one-pass code must match exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from repro.core.replication import PdnsReplicationAnalysis, YearState
from repro.dns.name import DnsName
from repro.inet.clock import SECONDS_PER_DAY, year_bounds


def daily_count_durations(
    intervals: Sequence[Tuple[float, float]], year_start: float, year_end: float
) -> Dict[int, float]:
    """Time spent at each active-record count over a year.

    ``intervals`` are (first_seen, last_seen) spans; periods with zero
    active records are ignored (the paper's NS_daily only includes days
    where NS records appear active).
    """
    events: List[Tuple[float, int]] = []
    for first, last in intervals:
        start = max(first, year_start)
        end = min(last + SECONDS_PER_DAY, year_end)  # last day inclusive
        if end <= start:
            continue
        events.append((start, 1))
        events.append((end, -1))
    if not events:
        return {}
    events.sort()
    duration_by_count: Dict[int, float] = {}
    active = 0
    previous = events[0][0]
    for moment, delta in events:
        if moment > previous and active > 0:
            duration_by_count[active] = (
                duration_by_count.get(active, 0.0) + moment - previous
            )
        active += delta
        previous = moment
    return duration_by_count


def mode_of_daily_counts(
    intervals: Sequence[Tuple[float, float]], year_start: float, year_end: float
) -> int:
    """Mode of the per-day active-record count; ties break toward the
    larger deployment."""
    durations = daily_count_durations(intervals, year_start, year_end)
    if not durations:
        return 0
    return max(durations.items(), key=lambda kv: (kv[1], kv[0]))[0]


def summarize_daily_counts(
    intervals: Sequence[Tuple[float, float]],
    year_start: float,
    year_end: float,
    how: str,
) -> int:
    durations = daily_count_durations(intervals, year_start, year_end)
    if not durations:
        return 0
    if how == "min":
        return min(durations)
    if how == "max":
        return max(durations)
    return max(durations.items(), key=lambda kv: (kv[1], kv[0]))[0]


def reference_year_states(
    analysis: PdnsReplicationAnalysis,
    years: Sequence[int],
    how: str,
) -> Dict[int, Dict[DnsName, YearState]]:
    """``analysis.year_states()`` computed year by year, with the seed
    suffix found by a linear longest-suffix scan."""
    suffixes = [seed.d_gov for seed in analysis._seeds.values()]
    states: Dict[int, Dict[DnsName, YearState]] = {year: {} for year in years}
    for domain, (iso2, records) in analysis._domain_rows().items():
        under = [s for s in suffixes if domain.is_subdomain_of(s)]
        seed_suffix = max(under, key=len) if under else None
        for year in years:
            start, end = year_bounds(year)
            active = [r for r in records if r.active_during(start, end)]
            if not active:
                continue
            mode = summarize_daily_counts(
                [(r.first_seen, r.last_seen) for r in active], start, end, how
            )
            if mode <= 0:
                continue
            hostnames = tuple(sorted({r.rdata for r in active}))
            private = bool(seed_suffix) and all(
                DnsName.parse(h).is_subdomain_of(seed_suffix) for h in hostnames
            )
            states[year][domain] = YearState(
                domain=domain,
                iso2=iso2,
                year=year,
                mode_ns_count=mode,
                hostnames=hostnames,
                private=private,
            )
    return states
