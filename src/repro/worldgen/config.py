"""World-generation configuration and calibration constants.

Every number the paper reports that we aim to reproduce in *shape* has a
named knob here, with the paper's value as the default.  ``scale``
multiplies all population sizes: 1.0 is paper scale (~147k probe
targets); tests run at 0.002–0.01, benchmarks at 0.05 by default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Tuple

__all__ = ["WorldConfig", "YEARS"]

YEARS: Tuple[int, ...] = tuple(range(2011, 2021))


@dataclass(frozen=True)
class WorldConfig:
    """Knobs for :class:`repro.worldgen.generator.WorldGenerator`."""

    seed: int = 7
    scale: float = 0.05

    # ------------------------------------------------------------------
    # PDNS longitudinal totals (Figures 2/3), thousands at paper scale.
    # The 2019→2020 dip is the Chinese consolidation the paper notes.
    # ------------------------------------------------------------------
    domains_per_year: Tuple[float, ...] = (
        113_500, 121_800, 130_700, 140_300, 150_600,
        161_700, 173_500, 184_200, 196_400, 192_600,
    )
    # Nameserver hostname counts follow a similar curve (Figure 3).
    ns_per_domain_hint: float = 1.9

    # d_1NS totals per year (§IV-A: 4.8k → 5.9k, slower than the base).
    single_ns_per_year: Tuple[float, ...] = (
        4_800, 4_950, 5_050, 5_200, 5_300, 5_450, 5_550, 5_700, 5_800, 5_900,
    )
    # Churn: yearly death rate of single-NS domains (paper: 16–26% gone,
    # 14–23% new; 2011 cohort at 21% survival by 2020 ⇒ ~16%/yr).
    single_ns_death_rate: float = 0.16
    multi_ns_death_rate: float = 0.03

    # Private-deployment shares (Figure 7).
    private_share_single_ns: float = 0.75
    private_share_overall: float = 0.30

    # ------------------------------------------------------------------
    # Active-measurement population (§III-B).
    # 147k targets → 115k with a parent response → 96k non-empty.
    # ------------------------------------------------------------------
    parent_unresponsive_rate: float = 0.215  # no reply from parent zone NS
    delegation_removed_rate: float = 0.13    # parent answers NXDOMAIN/NODATA
    # Fraction of PDNS 2020-2021 names that look disposable and are
    # filtered before probing (192.6k seen in window → 147k targets).
    disposable_rate: float = 0.236

    # Nameserver-count distribution for multi-NS domains (Figure 9 CDF;
    # overall 98.4% of responsive domains have ≥2).
    ns_count_weights: Dict[int, float] = field(
        default_factory=lambda: {2: 0.62, 3: 0.19, 4: 0.13, 5: 0.04, 6: 0.015, 7: 0.005}
    )

    # ------------------------------------------------------------------
    # Defective delegations (§IV-C): 29.5% any, 25.4% partial-only,
    # ~4.1% fully defective.
    # ------------------------------------------------------------------
    full_defective_share: float = 0.08  # share of defective that are full
    # Among defective delegations, how the broken nameserver breaks:
    defect_mode_weights: Dict[str, float] = field(
        default_factory=lambda: {
            "unresolvable": 0.40,   # NS hostname no longer resolves
            "unresponsive": 0.30,   # resolves, but the address is silent
            "lame_refused": 0.18,   # server answers REFUSED
            "lame_upward": 0.07,    # server refers to the root
            "lame_servfail": 0.05,  # server answers SERVFAIL
        }
    )
    # Typo'd NS hostnames (pns12cloudns.net for pns12.cloudns.net…),
    # as a share of unresolvable defects.
    typo_share_of_unresolvable: float = 0.12

    # Hijack exposure (Figure 11/12): at paper scale 805 registrable
    # nameserver domains serving 1,121 domains across 49 countries.
    registrable_ns_domains: int = 805
    hijackable_domains: int = 1_121
    # Dangling-but-responsive (§IV-D): 13 d_ns serving 26 domains in 7
    # countries, minimum price $300.
    consistency_dangling_ns_domains: int = 13
    consistency_dangling_victims: int = 26

    # ------------------------------------------------------------------
    # Parent/child consistency (§IV-D, Figure 13): shares of responsive
    # domains.  P=C is the remainder (76.8% at defaults).
    # ------------------------------------------------------------------
    inconsistency_p_subset_c: float = 0.080  # P ⊂ C
    inconsistency_c_subset_p: float = 0.077  # C ⊂ P
    inconsistency_overlap_neither: float = 0.040
    inconsistency_disjoint: float = 0.035
    # Of disjoint (P ∩ C = ∅) cases, share whose IPs still overlap.
    disjoint_ip_overlap_share: float = 0.45
    # Single-label NS typo (dropped-origin) share of inconsistent cases.
    single_label_share: float = 0.05
    # Level-2 domains are far more consistent (93.5% vs ≤77%).
    level2_consistency_multiplier: float = 0.28

    # ------------------------------------------------------------------
    # PDNS noise: short-lived records removed by the 7-day filter.
    # ------------------------------------------------------------------
    transient_record_rate: float = 0.08
    transient_max_days: float = 6.0

    # Infrastructure sizing.
    addresses_per_24: int = 8        # server density within allocated /24s
    provider_pool_sets: int = 64     # NS sets a provider pre-provisions
    country_isp_asns: int = 2        # non-government ASNs per country

    # Transient flakiness: share of servers that drop this fraction of
    # datagrams.  Zero by default (the calibration targets assume a
    # quiet network); the retry-round ablation turns it up.
    flaky_server_share: float = 0.0
    flaky_loss_rate: float = 0.55

    # Probe client address and root-server addresses are fixed points.
    probe_source: str = "192.0.2.53"
    root_addresses: Tuple[str, ...] = ("198.41.0.4", "199.9.14.201", "192.33.4.12")

    def __post_init__(self) -> None:
        if not 0 < self.scale < float("inf"):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def scaled(self, value: float) -> int:
        """Apply the scale factor, keeping at least 1 where nonzero."""
        if value <= 0:
            return 0
        return max(1, round(value * self.scale))

    @property
    def inconsistency_total(self) -> float:
        return (
            self.inconsistency_p_subset_c
            + self.inconsistency_c_subset_p
            + self.inconsistency_overlap_neither
            + self.inconsistency_disjoint
        )
