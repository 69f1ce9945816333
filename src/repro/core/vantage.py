"""Multi-vantage-point measurement (paper §V-A future work).

The paper's campaign ran from one US vantage point and argues results
should barely vary across vantage points for government ADNS.  This
module makes that claim testable: run the same campaign from several
source addresses and quantify per-domain agreement on the judgments the
analyses depend on (parent status, responsiveness, NS sets, defective
servers).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..inet.address import IPv4Address
from ..net.network import Network
from .dataset import MeasurementDataset, ProbeResult
from .probe import ActiveProber, ProbeConfig

__all__ = ["VantageDisagreement", "VantageComparison", "MultiVantageProber"]


@dataclass(frozen=True)
class VantageDisagreement:
    """One domain whose judgment differed across vantage points."""

    domain: DnsName
    field_name: str  # "parent_status" | "responsive" | "ns_set"
    values: Tuple[str, ...]  # one per vantage point, in order


@dataclass
class VantageComparison:
    """Agreement summary across vantage points."""

    domains_compared: int
    disagreements: List[VantageDisagreement] = field(default_factory=list)

    @property
    def agreement_rate(self) -> float:
        if self.domains_compared == 0:
            return 1.0
        disagreeing = {d.domain for d in self.disagreements}
        return 1.0 - len(disagreeing) / self.domains_compared


class MultiVantageProber:
    """Runs the Figure-1 campaign from several source addresses."""

    def __init__(
        self,
        network: Network,
        root_addresses: Sequence[IPv4Address],
        sources: Sequence[IPv4Address],
        config: Optional[ProbeConfig] = None,
    ) -> None:
        if len(sources) < 2:
            raise ValueError("multi-vantage needs at least two sources")
        self._network = network
        self._roots = list(root_addresses)
        self._sources = list(sources)
        self._config = config

    def probe_all(
        self, targets: Dict[DnsName, str]
    ) -> Dict[IPv4Address, MeasurementDataset]:
        """One full campaign per vantage point."""
        campaigns: Dict[IPv4Address, MeasurementDataset] = {}
        for source in self._sources:
            prober = ActiveProber(
                self._network, self._roots, source, config=self._config
            )
            campaigns[source] = prober.probe_all(targets)
        return campaigns

    # ------------------------------------------------------------------
    @staticmethod
    def _ns_fingerprint(result: ProbeResult) -> str:
        return ",".join(sorted(str(h) for h in result.all_ns))

    def compare(
        self, campaigns: Dict[IPv4Address, MeasurementDataset]
    ) -> VantageComparison:
        """Per-domain agreement across the campaigns."""
        ordered = [campaigns[source] for source in self._sources]
        domains = set(ordered[0].results)
        for dataset in ordered[1:]:
            domains &= set(dataset.results)
        comparison = VantageComparison(domains_compared=len(domains))
        for domain in sorted(domains):
            results = [dataset[domain] for dataset in ordered]
            statuses = tuple(r.parent_status for r in results)
            if len(set(statuses)) > 1:
                comparison.disagreements.append(
                    VantageDisagreement(domain, "parent_status", statuses)
                )
            responsive = tuple(str(r.responsive) for r in results)
            if len(set(responsive)) > 1:
                comparison.disagreements.append(
                    VantageDisagreement(domain, "responsive", responsive)
                )
            fingerprints = tuple(self._ns_fingerprint(r) for r in results)
            if len(set(fingerprints)) > 1:
                comparison.disagreements.append(
                    VantageDisagreement(domain, "ns_set", fingerprints)
                )
        return comparison
