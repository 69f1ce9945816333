"""Third-party provider dependency (paper §IV-B, Tables II & III).

Longitudinal provider-usage statistics over the PDNS record set: how
many domains each provider serves per year, how many rely on a single
provider (``d_1P``), and how geographically widespread each provider's
government footprint is under the paper's 32-group scheme (22 UN
sub-regions + the 10 record-heaviest countries as their own groups).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from ..dns.errors import NameError_
from ..dns.name import DnsName
from ..dns.rdata import RRType, SOA
from ..geo.regions import PAPER_GROUP_COUNT, paper_groups
from ..inet.clock import year_bounds
from .provider_id import ProviderMatcher
from .replication import PdnsReplicationAnalysis, YearState

__all__ = ["ProviderUsage", "ProviderReach", "CentralizationAnalysis"]

# The Table II fixed panel: providers common among popular domains.
MAJOR_PROVIDERS: Tuple[str, ...] = (
    "amazon",
    "azure",
    "cloudflare",
    "dnspod",
    "dnsmadeeasy",
    "dyn",
    "godaddy",
    "ultradns",
)


@dataclass(frozen=True)
class ProviderUsage:
    """One provider's usage in one year (a Table II cell group)."""

    provider: str
    year: int
    domains: int
    domain_share: float
    single_provider_domains: int  # d_1P using this provider
    single_provider_share: float
    groups: int  # paper groups (of 32) with ≥1 domain using it
    group_share: float
    countries: int


@dataclass(frozen=True)
class ProviderReach:
    """A Table III row: provider ranked by country reach."""

    provider: str
    year: int
    domains: int
    domain_share: float
    groups: int
    group_share: float
    countries: int


class CentralizationAnalysis:
    """Provider usage/centralization over PDNS year states."""

    def __init__(
        self,
        replication: PdnsReplicationAnalysis,
        matcher: Optional[ProviderMatcher] = None,
        top_country_count: int = 10,
    ) -> None:
        self._replication = replication
        self._matcher = matcher if matcher is not None else ProviderMatcher()
        self._top_country_count = top_country_count
        self._groups: Optional[Mapping[str, str]] = None
        self._soa_parse_failures = 0
        # Per-year caches: Table II/III and the single-provider share
        # all sweep the same year, so the provider matching and NS-name
        # parsing are done once per year, not once per query.
        self._maps_cache: Dict[
            int, Tuple[Dict[DnsName, Tuple[str, ...]], Dict[DnsName, YearState]]
        ] = {}
        self._hostnames_cache: Dict[
            int, Dict[DnsName, Tuple[DnsName, ...]]
        ] = {}

    @property
    def soa_parse_failures(self) -> int:
        """PDNS SOA rows skipped because their rdata would not parse.

        Monotonically increasing across analysis calls; a non-zero value
        means the provider fallback (§IV-B) ran on incomplete evidence
        for some domains, which callers should surface rather than hide.
        """
        return self._soa_parse_failures

    # ------------------------------------------------------------------
    def _grouping(self) -> Mapping[str, str]:
        """ISO2 → paper group, with the top record-heavy countries
        promoted to their own groups."""
        if self._groups is None:
            totals: Dict[str, int] = {}
            for states in self._replication.year_states().values():
                for state in states.values():
                    totals[state.iso2] = totals.get(state.iso2, 0) + 1
            top = sorted(totals, key=lambda iso: -totals[iso])[
                : self._top_country_count
            ]
            self._groups = paper_groups(top)
        return self._groups

    def _soa_for(self, domain: DnsName, year: int) -> Optional[SOA]:
        """Parse the domain's PDNS SOA row active in ``year`` (if any)."""
        start, end = year_bounds(year)
        for record in self._replication.pdns.lookup(domain, RRType.SOA):
            if not record.active_during(start, end):
                continue
            tokens = record.rdata.split()
            if len(tokens) < 2:
                self._soa_parse_failures += 1
                continue
            try:
                return SOA(
                    mname=DnsName.parse(tokens[0]),
                    rname=DnsName.parse(tokens[1]),
                )
            except (NameError_, ValueError, IndexError):
                # Malformed MNAME/RNAME in a PDNS row: skip this record
                # but keep the skip visible via soa_parse_failures.
                self._soa_parse_failures += 1
                continue
        return None

    def _year_hostnames(self, year: int) -> Dict[DnsName, Tuple[DnsName, ...]]:
        """Parsed per-domain NS hostnames for one year (cached)."""
        cached = self._hostnames_cache.get(year)
        if cached is None:
            cached = {
                domain: tuple(DnsName.parse(h) for h in state.hostnames)
                for domain, state in self._replication.year_states()
                .get(year, {})
                .items()
            }
            self._hostnames_cache[year] = cached
        return cached

    def _year_provider_maps(
        self, year: int
    ) -> Tuple[Dict[DnsName, Tuple[str, ...]], Dict[DnsName, YearState]]:
        """Per-domain provider sets for one year (cached per year).

        Hostname matching first; when the NS names are vanity-branded
        and reveal nothing, fall back to the SOA MNAME/RNAME — the
        paper's §IV-B combination.
        """
        cached = self._maps_cache.get(year)
        if cached is None:
            states = self._replication.year_states().get(year, {})
            hostnames_by_domain = self._year_hostnames(year)
            providers: Dict[DnsName, Tuple[str, ...]] = {}
            for domain in states:
                matched = self._matcher.providers_of(hostnames_by_domain[domain])
                if not matched:
                    soa = self._soa_for(domain, year)
                    if soa is not None:
                        matched = self._matcher.providers_of((), soa=soa)
                providers[domain] = matched
            cached = (providers, states)
            self._maps_cache[year] = cached
        return cached

    # ------------------------------------------------------------------
    def usage(self, provider: str, year: int) -> ProviderUsage:
        providers, states = self._year_provider_maps(year)
        hostnames_by_domain = self._year_hostnames(year)
        total = len(states)
        using = [d for d, keys in providers.items() if provider in keys]
        single = [
            d
            for d in using
            if self._matcher.is_single_provider(hostnames_by_domain[d])
            == provider
        ]
        grouping = self._grouping()
        countries = {states[d].iso2 for d in using}
        groups = {grouping[iso2] for iso2 in countries if iso2 in grouping}
        return ProviderUsage(
            provider=provider,
            year=year,
            domains=len(using),
            domain_share=len(using) / total if total else 0.0,
            single_provider_domains=len(single),
            single_provider_share=len(single) / total if total else 0.0,
            groups=len(groups),
            group_share=len(groups) / PAPER_GROUP_COUNT,
            countries=len(countries),
        )

    def table2(
        self,
        years: Sequence[int] = (2011, 2020),
        providers: Sequence[str] = MAJOR_PROVIDERS,
    ) -> Dict[str, Dict[int, ProviderUsage]]:
        """{provider → {year → usage}} for the fixed major panel."""
        return {
            provider: {year: self.usage(provider, year) for year in years}
            for provider in sorted(providers)
        }

    # ------------------------------------------------------------------
    def top_providers(
        self, year: int, limit: int = 10
    ) -> List[ProviderReach]:
        """Table III: providers ranked by country reach in one year."""
        providers, states = self._year_provider_maps(year)
        total = len(states)
        grouping = self._grouping()
        by_provider: Dict[str, Set[DnsName]] = {}
        for domain, keys in providers.items():
            for key in keys:
                by_provider.setdefault(key, set()).add(domain)
        rows: List[ProviderReach] = []
        for key, domains in by_provider.items():
            countries = {states[d].iso2 for d in domains}
            groups = {grouping[iso2] for iso2 in countries if iso2 in grouping}
            rows.append(
                ProviderReach(
                    provider=key,
                    year=year,
                    domains=len(domains),
                    domain_share=len(domains) / total if total else 0.0,
                    groups=len(groups),
                    group_share=len(groups) / PAPER_GROUP_COUNT,
                    countries=len(countries),
                )
            )
        rows.sort(key=lambda row: (-row.countries, -row.domains))
        return rows[:limit]

    def max_reach_growth(
        self, start_year: int = 2011, end_year: int = 2020
    ) -> Tuple[int, int]:
        """Countries served by the most widespread provider at the two
        endpoints (the paper's 52 → 85, +60%)."""
        start = self.top_providers(start_year, limit=1)
        end = self.top_providers(end_year, limit=1)
        return (
            start[0].countries if start else 0,
            end[0].countries if end else 0,
        )

    # ------------------------------------------------------------------
    def single_provider_share(self, year: int) -> float:
        """Share of domains relying on exactly one catalog provider."""
        providers, states = self._year_provider_maps(year)
        if not states:
            return 0.0
        hostnames_by_domain = self._year_hostnames(year)
        singles = 0
        for domain in states:
            if (
                self._matcher.is_single_provider(hostnames_by_domain[domain])
                is not None
            ):
                singles += 1
        return singles / len(states)
