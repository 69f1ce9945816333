"""Nameserver-replication analyses (paper §IV-A).

Two data sources, as in the paper:

- **PDNS** (longitudinal): per-domain, per-year deployment state
  summarized as the *mode* of the daily nameserver count (the
  ``NS_daily`` construction of Figure 5), feeding Figures 2/3/4/6/7;
- **active measurements**: the Figure 8 staleness rates and Figure 9
  replication CDF.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..dns.name import DnsName
from ..dns.rdata import RRType
from ..inet.clock import SECONDS_PER_DAY, year_bounds
from ..pdns.database import PdnsDatabase
from ..pdns.filtering import stable_records
from ..pdns.record import PdnsRecord
from .dataset import MeasurementDataset
from .seeds import Seed

__all__ = [
    "CountryMapper",
    "YearState",
    "PdnsReplicationAnalysis",
    "ActiveReplicationAnalysis",
]


class CountryMapper:
    """Longest-suffix mapping from a domain name to its seed country."""

    def __init__(self, seeds: Mapping[str, Seed]) -> None:
        self._by_suffix: Dict[DnsName, str] = {
            seed.d_gov: iso2 for iso2, seed in seeds.items()
        }

    def country_of(self, name: DnsName) -> Optional[str]:
        suffix = self.seed_suffix_of(name)
        return None if suffix is None else self._by_suffix[suffix]

    def seed_suffix_of(self, name: DnsName) -> Optional[DnsName]:
        # Ancestors come nearest first, so the first seed hit is the
        # longest matching suffix.
        for ancestor in name.ancestors(include_self=True):
            if ancestor in self._by_suffix:
                return ancestor
        return None


@dataclass
class YearState:
    """One domain's summarized state for one calendar year."""

    __slots__ = (
        "domain", "iso2", "year", "mode_ns_count", "hostnames", "private"
    )

    domain: DnsName
    iso2: str
    year: int
    mode_ns_count: int
    hostnames: Tuple[str, ...]
    private: bool  # every hostname inside the domain's own d_gov


def _summarize_events(events: List[Tuple[float, int]], how: str) -> int:
    """One year's NS_daily summary from its (moment, ±1) record events.

    Every event pair spans a non-empty interval.  The sweep times each
    active-record count (periods with zero active records are ignored:
    the paper's NS_daily only includes days where NS records appear
    active), then collapses the durations: ``mode`` (ties break toward
    the larger deployment), ``min`` or ``max``.
    """
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
    if how == "min":
        return min(duration_by_count)
    if how == "max":
        return max(duration_by_count)
    return max(duration_by_count.items(), key=lambda kv: (kv[1], kv[0]))[0]


class PdnsReplicationAnalysis:
    """Longitudinal deployment analysis over stable PDNS records."""

    def __init__(
        self,
        pdns: PdnsDatabase,
        seeds: Mapping[str, Seed],
        years: Sequence[int] = tuple(range(2011, 2021)),
        stability_days: float = 7.0,
        year_summary: str = "mode",
    ) -> None:
        """``year_summary`` picks how NS_daily collapses to one number
        per year: ``mode`` (the paper's choice, Figure 5), ``min``, or
        ``max`` — the alternatives exist for the ablation study."""
        if year_summary not in ("mode", "min", "max"):
            raise ValueError(f"unknown year summary: {year_summary!r}")
        self._pdns = pdns
        self._seeds = dict(seeds)
        self._mapper = CountryMapper(seeds)
        self._years = tuple(years)
        self._stability_days = stability_days
        self._year_summary = year_summary
        self._states: Optional[Dict[int, Dict[DnsName, YearState]]] = None

    @property
    def pdns(self) -> PdnsDatabase:
        """The underlying PDNS store (centralization's SOA fallback
        reads it directly)."""
        return self._pdns

    # ------------------------------------------------------------------
    # State construction
    # ------------------------------------------------------------------
    def _domain_rows(self) -> Dict[DnsName, Tuple[str, List[PdnsRecord]]]:
        """{domain → (iso2, stable NS records)} across all seeds."""
        rows: Dict[DnsName, Tuple[str, List[PdnsRecord]]] = {}
        for iso2, seed in self._seeds.items():
            records = self._pdns.wildcard_left(seed.d_gov, rrtype=RRType.NS)
            for record in stable_records(records, self._stability_days):
                if record.rrname == seed.d_gov:
                    continue
                entry = rows.get(record.rrname)
                if entry is None:
                    rows[record.rrname] = (iso2, [record])
                else:
                    entry[1].append(record)
        return rows

    def year_states(self) -> Dict[int, Dict[DnsName, YearState]]:
        """Per-year, per-domain deployment summaries (cached).

        One pass over each domain's records clips every record's
        lifetime ``[first_seen, last_seen + 1 day)`` into each year it
        is ``active_during``, then one sweep per (domain, year) yields
        the NS_daily summary.  ``active_during`` alone decides the
        years: a record last seen late on Dec 31 does not count in the
        next year, though its inclusive last day reaches into it.
        """
        if self._states is not None:
            return self._states
        states: Dict[int, Dict[DnsName, YearState]] = {
            year: {} for year in self._years
        }
        years = sorted(states)
        starts = [year_bounds(year)[0] for year in years]
        ends = [year_bounds(year)[1] for year in years]
        # The events of a record that spans a whole year are that year's
        # bounds, shared rather than rebuilt for every such record.
        opens = [(start, 1) for start in starts]
        closes = [(end, -1) for end in ends]
        for domain, (iso2, records) in self._domain_rows().items():
            # year index → (events, hostnames of the records active then)
            by_year: Dict[int, Tuple[List[Tuple[float, int]], Set[str]]] = {}
            for record in records:
                first = record.first_seen
                stop = record.last_seen + SECONDS_PER_DAY  # last day inclusive
                # The years where ``record.active_during(start, end)``
                # holds (end > first_seen, start <= last_seen) are one
                # run of the sorted years.  Clipped to one of them, the
                # interval is never empty.
                for index in range(
                    bisect_right(ends, first),
                    bisect_right(starts, record.last_seen),
                ):
                    entry = by_year.get(index)
                    if entry is None:
                        entry = by_year[index] = ([], set())
                    events, active_hosts = entry
                    active_hosts.add(record.rdata)
                    events.append(
                        opens[index] if first <= starts[index] else (first, 1)
                    )
                    events.append(
                        closes[index] if stop >= ends[index] else (stop, -1)
                    )
            seed_suffix = self._mapper.seed_suffix_of(domain)
            # Neighbouring years mostly share a nameserver set.
            private_by_hostnames: Dict[Tuple[str, ...], bool] = {}
            for index, (events, active_hosts) in by_year.items():
                mode = _summarize_events(events, self._year_summary)
                hostnames = tuple(sorted(active_hosts))
                private = private_by_hostnames.get(hostnames)
                if private is None:
                    private = bool(seed_suffix) and all(
                        DnsName.parse(h).is_subdomain_of(seed_suffix)
                        for h in hostnames
                    )
                    private_by_hostnames[hostnames] = private
                year = years[index]
                states[year][domain] = YearState(
                    domain=domain,
                    iso2=iso2,
                    year=year,
                    mode_ns_count=mode,
                    hostnames=hostnames,
                    private=private,
                )
        self._states = states
        return states

    # ------------------------------------------------------------------
    # Figures
    # ------------------------------------------------------------------
    def figure2(self) -> Dict[int, Tuple[int, int]]:
        """Year → (#domains with NS data, #countries with data)."""
        out: Dict[int, Tuple[int, int]] = {}
        for year, states in self.year_states().items():
            countries = {s.iso2 for s in states.values()}
            out[year] = (len(states), len(countries))
        return out

    def figure3(self) -> Dict[int, int]:
        """Year → #distinct nameserver hostnames."""
        out: Dict[int, int] = {}
        for year, states in self.year_states().items():
            hostnames = set()
            for state in states.values():
                hostnames.update(state.hostnames)
            out[year] = len(hostnames)
        return out

    def figure4(self, year: int = 2020) -> Dict[str, int]:
        """ISO2 → #domains with data in the given year."""
        counts: Dict[str, int] = {}
        for state in self.year_states()[year].values():
            counts[state.iso2] = counts.get(state.iso2, 0) + 1
        return counts

    def single_ns_domains(self, year: int) -> Dict[DnsName, YearState]:
        return {
            domain: state
            for domain, state in self.year_states()[year].items()
            if state.mode_ns_count == 1
        }

    def figure6(self) -> Dict[int, Dict[str, float]]:
        """Year → {overlap_2011, new_share, gone_share}.

        ``overlap_2011``: fraction of the 2011 d_1NS cohort still d_1NS
        this year (the paper's 21%-by-2020 series); ``new_share``:
        d_1NS not d_1NS the year before; ``gone_share``: last year's
        d_1NS no longer present.
        """
        cohort_2011 = set(self.single_ns_domains(self._years[0]))
        out: Dict[int, Dict[str, float]] = {}
        previous: Optional[set] = None
        for year in self._years:
            current = set(self.single_ns_domains(year))
            row: Dict[str, float] = {}
            if cohort_2011:
                row["overlap_2011"] = len(current & cohort_2011) / len(cohort_2011)
            if previous is not None:
                if current:
                    row["new_share"] = len(current - previous) / len(current)
                if previous:
                    row["gone_share"] = len(previous - current) / len(previous)
            out[year] = row
            previous = current
        return out

    def figure7(self) -> Dict[int, Tuple[float, float]]:
        """Year → (% of d_1NS private, % of all domains private)."""
        out: Dict[int, Tuple[float, float]] = {}
        for year, states in self.year_states().items():
            if not states:
                out[year] = (0.0, 0.0)
                continue
            singles = [s for s in states.values() if s.mode_ns_count == 1]
            single_private = (
                sum(1 for s in singles if s.private) / len(singles)
                if singles
                else 0.0
            )
            overall_private = sum(
                1 for s in states.values() if s.private
            ) / len(states)
            out[year] = (single_private, overall_private)
        return out


class ActiveReplicationAnalysis:
    """Replication findings from the active campaign (Figures 8/9)."""

    def __init__(self, dataset: MeasurementDataset) -> None:
        self._dataset = dataset

    def _listed_rows(self) -> List[Tuple[str, int, int]]:
        """(iso2, ns_count, responsive) per listed domain, swept from
        the columns (non-empty parent, at least one nameserver)."""
        columns = self._dataset.columns
        return [
            (iso2, count, flag)
            for iso2, count, flag, code in zip(
                columns.iso2,
                columns.ns_count,
                columns.responsive,
                columns.parent_status,
            )
            if code <= 1 and count > 0
        ]

    # ------------------------------------------------------------------
    def figure9_distribution(self) -> Dict[int, int]:
        """#nameservers listed → #domains (the Figure 9 CDF's mass)."""
        histogram: Dict[int, int] = {}
        for _, count, _ in self._listed_rows():
            histogram[count] = histogram.get(count, 0) + 1
        return dict(sorted(histogram.items()))

    def share_with_at_least(self, count: int) -> float:
        """Fraction of listed domains with ≥ ``count`` nameservers
        (the paper's 98.4% at count=2)."""
        listed = self._listed_rows()
        if not listed:
            return 0.0
        return sum(1 for _, c, _ in listed if c >= count) / len(listed)

    def countries_fully_replicated(self) -> int:
        """Countries where no listed domain is single-NS (paper: 109)."""
        fully = 0
        for counts in self._by_country_listed().values():
            if all(count >= 2 for count in counts):
                fully += 1
        return fully

    def countries_with_single_ns_share_over(self, threshold: float) -> List[str]:
        """Countries where > threshold of listed domains are single-NS
        (paper: 15 at 10%)."""
        flagged = []
        for iso2, counts in self._by_country_listed().items():
            singles = sum(1 for count in counts if count == 1)
            if counts and singles / len(counts) >= threshold:
                flagged.append(iso2)
        return sorted(flagged)

    def _by_country_listed(self) -> Dict[str, List[int]]:
        """ISO2 → listed domains' nameserver counts."""
        grouped: Dict[str, List[int]] = {}
        for iso2, count, _ in self._listed_rows():
            grouped.setdefault(iso2, []).append(count)
        return grouped

    # ------------------------------------------------------------------
    def figure8_overall(self) -> float:
        """Share of single-NS domains with no authoritative response
        (the paper's 60.1%)."""
        singles = [row for row in self._listed_rows() if row[1] == 1]
        if not singles:
            return 0.0
        return sum(1 for _, _, flag in singles if not flag) / len(singles)

    def figure8_by_country(self, min_singles: int = 3) -> Dict[str, float]:
        """ISO2 → share of its d_1NS with no authoritative response."""
        # ISO2 → [singles, unresponsive singles]
        grouped: Dict[str, List[int]] = {}
        for iso2, count, flag in self._listed_rows():
            if count != 1:
                continue
            counts = grouped.setdefault(iso2, [0, 0])
            counts[0] += 1
            if not flag:
                counts[1] += 1
        return {
            iso2: unresponsive / singles
            for iso2, (singles, unresponsive) in grouped.items()
            if singles >= min_singles
        }
