"""Resilience counters for a probe campaign.

One small report answering "what did the failure machinery actually
do?": how often the circuit breaker tripped and how many probes it
skipped, how much retransmission backoff cost in simulated time, what
the chaos schedule injected, how many exchanges a resumed campaign
replayed from its journal, and how the dataset's unresponsive domains
split into transient vs. persistent failures.

The JSON payload is the artifact the CI chaos-smoke job uploads; the
text rendering backs ``repro campaign``'s summary output.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional, TYPE_CHECKING

from .export import to_json, write_json
from .tables import render_table

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (typing only)
    from ..core.dataset import MeasurementDataset
    from ..core.shard import CampaignCounters

__all__ = ["ResilienceReport"]


@dataclass
class ResilienceReport:
    """Aggregated resilience/chaos/journal counters for one campaign."""

    # Prober-side adaptive behaviour
    retransmits: int = 0
    backoff_wait_seconds: float = 0.0
    breaker_trips: int = 0
    breaker_skipped_probes: int = 0
    breaker_open_at_end: int = 0
    # Chaos injection (zeros when no schedule was installed)
    chaos_profile: Optional[str] = None
    chaos: Dict[str, int] = field(default_factory=dict)
    # Journal / resume
    journaled: bool = False
    resumed: bool = False
    journal_replayed_sends: int = 0
    journal_recovered_results: int = 0
    # Dataset-level transient-vs-persistent split
    persistence: Dict[str, int] = field(default_factory=dict)

    @classmethod
    def collect(
        cls,
        counters: "CampaignCounters",
        dataset: "MeasurementDataset",
        chaos_profile: Optional[str] = None,
    ) -> "ResilienceReport":
        """Build the report from a campaign's counters (inline or
        folded across shards) and the dataset it produced."""
        return cls(
            retransmits=counters.retransmits,
            backoff_wait_seconds=counters.backoff_wait_seconds,
            breaker_trips=counters.breaker_trips,
            breaker_skipped_probes=counters.breaker_skipped_probes,
            breaker_open_at_end=counters.breaker_open_at_end,
            chaos_profile=chaos_profile,
            chaos=dict(counters.chaos),
            journaled=counters.journaled,
            resumed=counters.resumed,
            journal_replayed_sends=counters.journal_replayed_sends,
            journal_recovered_results=counters.journal_recovered_results,
            persistence=dataset.persistence_counts(),
        )

    # ------------------------------------------------------------------
    def payload(self) -> Dict[str, Any]:
        return {
            "retransmits": self.retransmits,
            "backoff_wait_seconds": self.backoff_wait_seconds,
            "breaker_trips": self.breaker_trips,
            "breaker_skipped_probes": self.breaker_skipped_probes,
            "breaker_open_at_end": self.breaker_open_at_end,
            "chaos_profile": self.chaos_profile,
            "chaos": self.chaos,
            "journaled": self.journaled,
            "resumed": self.resumed,
            "journal_replayed_sends": self.journal_replayed_sends,
            "journal_recovered_results": self.journal_recovered_results,
            "persistence": self.persistence,
        }

    def render(self) -> str:
        rows = [
            ["retransmits", str(self.retransmits)],
            ["backoff wait (sim s)", f"{self.backoff_wait_seconds:.3f}"],
            ["breaker trips", str(self.breaker_trips)],
            ["breaker-skipped probes", str(self.breaker_skipped_probes)],
        ]
        if self.chaos_profile is not None:
            rows.append(["chaos profile", self.chaos_profile])
            for key in sorted(self.chaos):
                rows.append([f"chaos {key}", str(self.chaos[key])])
        if self.journaled:
            rows.append(["journal resumed", "yes" if self.resumed else "no"])
            rows.append(
                ["journal replayed sends", str(self.journal_replayed_sends)]
            )
            rows.append(
                [
                    "journal recovered results",
                    str(self.journal_recovered_results),
                ]
            )
        for key in sorted(self.persistence):
            rows.append([f"{key} failures", str(self.persistence[key])])
        return render_table(["counter", "value"], rows)

    def to_json(self) -> str:
        return to_json(self.payload())

    def write(self, path: str) -> None:
        write_json(path, self.payload())
