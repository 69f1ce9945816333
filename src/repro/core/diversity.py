"""Topological-diversity analysis (paper Table I).

For every *responsive* domain with more than one nameserver: how many
distinct IPv4 addresses, /24 prefixes, and autonomous systems do its
nameservers span?  Replication only helps availability when the
replicas do not share fate — same address, same subnet, or same AS.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..geo.geoip import GeoIPDatabase
from .dataset import MeasurementDataset, ProbeResult

__all__ = ["DiversityRow", "DiversityAnalysis"]


@dataclass(frozen=True)
class DiversityRow:
    """One Table-I row: a country (or the total)."""

    label: str
    domains: int
    multi_ip_share: float
    multi_prefix_share: float
    multi_asn_share: float


@dataclass(frozen=True)
class DomainDiversity:
    """Raw diversity counts for one domain."""

    ip_count: int
    prefix_count: int
    asn_count: int


class DiversityAnalysis:
    """Table I: address/prefix/AS spread of multi-NS deployments."""

    def __init__(
        self, dataset: MeasurementDataset, geoip: GeoIPDatabase
    ) -> None:
        self._dataset = dataset
        self._geoip = geoip

    # ------------------------------------------------------------------
    def measure_domain(self, result: ProbeResult) -> Optional[DomainDiversity]:
        """Diversity of one domain's resolved nameserver addresses."""
        addresses = result.resolved_addresses()
        if not addresses:
            return None
        prefixes = {address.slash24() for address in addresses}
        asns = set()
        for address in addresses:
            asn = self._geoip.asn_of(address)
            if asn is not None:
                asns.add(asn)
        return DomainDiversity(
            ip_count=len(set(addresses)),
            prefix_count=len(prefixes),
            asn_count=len(asns) if asns else 1,
        )

    def _population(self) -> List[Tuple[ProbeResult, DomainDiversity]]:
        """Responsive domains with >1 listed nameserver, filtered via
        the responsive/ns-count columns before touching any object."""
        columns = self._dataset.columns
        results = self._dataset.results
        population = []
        for domain, flag, count in zip(
            columns.domains, columns.responsive, columns.ns_count
        ):
            if not flag or count <= 1:
                continue
            result = results[domain]
            diversity = self.measure_domain(result)
            if diversity is not None:
                population.append((result, diversity))
        return population

    # ------------------------------------------------------------------
    @staticmethod
    def _row(
        label: str, entries: Sequence[Tuple[ProbeResult, DomainDiversity]]
    ) -> DiversityRow:
        total = len(entries)
        if total == 0:
            return DiversityRow(label, 0, 0.0, 0.0, 0.0)
        return DiversityRow(
            label=label,
            domains=total,
            multi_ip_share=sum(1 for _, d in entries if d.ip_count > 1) / total,
            multi_prefix_share=sum(1 for _, d in entries if d.prefix_count > 1)
            / total,
            multi_asn_share=sum(1 for _, d in entries if d.asn_count > 1) / total,
        )

    def table1(self, top_countries: int = 10) -> List[DiversityRow]:
        """The total row plus the top-N countries by population."""
        population = self._population()
        rows = [self._row("Total", population)]
        by_country: Dict[str, List[Tuple[ProbeResult, DomainDiversity]]] = {}
        for entry in population:
            by_country.setdefault(entry[0].iso2, []).append(entry)
        ranked = sorted(
            by_country.items(), key=lambda item: -len(item[1])
        )[:top_countries]
        rows.extend(self._row(iso2, entries) for iso2, entries in ranked)
        return rows

    def single_ip_multi_ns(self) -> List[ProbeResult]:
        """Multi-NS domains whose nameservers all share one address —
        the curiosity the paper traces largely to one d_gov."""
        return [
            result
            for result, diversity in self._population()
            if diversity.ip_count == 1
        ]
