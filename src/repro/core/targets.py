"""Target-list construction (paper §III-B).

Expand each seed via left-hand-wildcard PDNS searches over the activity
window (January 2020 → February 2021), then drop names that look
disposable — machine-generated throwaway labels that would waste query
budget and pollute the deployment statistics.
"""

from __future__ import annotations

from typing import Dict, Mapping, Tuple

from ..dns.name import DnsName
from ..dns.rdata import RRType
from ..inet.clock import date_to_epoch
from ..pdns.database import PdnsDatabase
from .seeds import Seed

__all__ = ["looks_disposable", "TargetListBuilder", "DEFAULT_WINDOW"]

DEFAULT_WINDOW: Tuple[float, float] = (
    date_to_epoch(2020, 1, 1),
    date_to_epoch(2021, 2, 15),
)


def looks_disposable(name: DnsName) -> bool:
    """Heuristic for machine-generated throwaway names.

    Long leftmost labels dominated by hex/digit churn are the signature
    of session tokens, DGA output, and per-deploy hostnames.
    """
    if name.is_root:
        return False
    label = name.labels[0]
    if len(label) < 10:
        return False
    hexish = sum(1 for ch in label if ch in "0123456789abcdef")
    return hexish / len(label) > 0.85


class TargetListBuilder:
    """Seed → probe-target expansion over PDNS."""

    def __init__(
        self,
        pdns: PdnsDatabase,
        window: Tuple[float, float] = DEFAULT_WINDOW,
    ) -> None:
        start, end = window
        if end <= start:
            raise ValueError("window end must follow start")
        self._pdns = pdns
        self._window = window

    def expand_seed(self, seed: Seed) -> Tuple[DnsName, ...]:
        """All in-window NS-record owner names under one seed.

        The seed itself is excluded — it is the registry/suffix zone,
        not a measured domain.
        """
        start, end = self._window
        names = self._pdns.names_under(
            seed.d_gov,
            rrtype=RRType.NS,
            seen_after=start,
            seen_before=end,
        )
        return tuple(
            name
            for name in names
            if name != seed.d_gov and not looks_disposable(name)
        )

    def raw_count(self, seed: Seed) -> int:
        """In-window names before disposable filtering (for reporting
        how much the filter removes)."""
        start, end = self._window
        names = self._pdns.names_under(
            seed.d_gov, rrtype=RRType.NS, seen_after=start, seen_before=end
        )
        return sum(1 for name in names if name != seed.d_gov)

    def build(self, seeds: Mapping[str, Seed]) -> Dict[DnsName, str]:
        """{target domain → ISO2} across all seeds.

        When seeds nest (one country's registered domain under another's
        suffix — does not happen with UN data but is cheap to guard),
        the longest seed wins.
        """
        targets: Dict[DnsName, str] = {}
        claimed: Dict[DnsName, DnsName] = {}
        for iso2, seed in sorted(
            seeds.items(), key=lambda item: len(item[1].d_gov)
        ):
            for name in self.expand_seed(seed):
                previous = claimed.get(name)
                if previous is None or len(seed.d_gov) > len(previous):
                    targets[name] = iso2
                    claimed[name] = seed.d_gov
        return targets
