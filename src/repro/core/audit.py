"""Campaign ethics audit (paper §III-D, verified rather than asserted).

The paper's ethics section makes operational claims: queries were rate
limited, the probe host was identifiable, dead parents were not
re-queried, and no zone reconstruction was attempted.  This module
audits a finished campaign against those claims using the network's
traffic counters — the reproduction equivalent of an IRB artifact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..inet.address import IPv4Address
from ..net.network import Network
from .dataset import MeasurementDataset, ParentStatus

__all__ = ["CampaignAudit", "audit_campaign"]


@dataclass
class CampaignAudit:
    """Findings of the post-campaign ethics review."""

    total_queries: int
    distinct_destinations: int
    busiest_destination: Optional[IPv4Address]
    busiest_count: int
    mean_queries_per_destination: float
    effective_qps: Optional[float]
    # Domains whose dead parents were re-queried anyway would show up
    # here (the paper explicitly avoids that).
    requeried_dead_parents: List = field(default_factory=list)
    violations: List[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.violations


def audit_campaign(
    network: Network,
    dataset: MeasurementDataset,
    campaign_seconds: Optional[float] = None,
    max_qps: Optional[float] = None,
    max_per_destination_share: float = 0.25,
    registry_addresses: Tuple[IPv4Address, ...] = (),
) -> CampaignAudit:
    """Review a campaign's traffic against §III-D provisions.

    Parameters
    ----------
    campaign_seconds:
        Simulated duration of the campaign; with ``max_qps`` it bounds
        the average rate.
    max_per_destination_share:
        No single server should have absorbed more than this share of
        all probe traffic (load-spreading check).
    registry_addresses:
        Root/TLD servers to exempt from the share bound — they
        legitimately see the referral step of every uncached lookup.
    """
    stats = network.stats
    per_destination = stats.per_destination
    total = stats.queries_sent
    exempt = set(registry_addresses)
    busiest: Tuple[Optional[IPv4Address], int] = (None, 0)
    for destination, count in per_destination.items():
        if destination in exempt:
            continue
        if count > busiest[1]:
            busiest = (destination, count)

    audit = CampaignAudit(
        total_queries=total,
        distinct_destinations=len(per_destination),
        busiest_destination=busiest[0],
        busiest_count=busiest[1],
        mean_queries_per_destination=(
            total / len(per_destination) if per_destination else 0.0
        ),
        effective_qps=(
            total / campaign_seconds
            if campaign_seconds and campaign_seconds > 0
            else None
        ),
    )

    if max_qps is not None and audit.effective_qps is not None:
        if audit.effective_qps > max_qps:
            audit.violations.append(
                f"average rate {audit.effective_qps:.0f} qps exceeds the "
                f"declared limit of {max_qps:.0f}"
            )

    if total and busiest[1] / total > max_per_destination_share:
        audit.violations.append(
            f"destination {busiest[0]} absorbed "
            f"{busiest[1] / total:.0%} of all queries"
        )

    # Dead parents must not have been hammered: domains whose parents
    # never answered should show at most the initial walk's attempts.
    for result in dataset:
        if result.parent_status != ParentStatus.NO_RESPONSE:
            continue
        if result.retried:
            audit.requeried_dead_parents.append(result.domain)
    if audit.requeried_dead_parents:
        audit.violations.append(
            f"{len(audit.requeried_dead_parents)} domains with dead "
            "parents were re-queried in the retry round"
        )

    return audit
