"""Misconfiguration injection plans.

The world generator first builds every domain *healthy*, then applies a
:class:`FaultPlan` sampled here.  The plan vocabulary is exactly the
paper's taxonomy:

- **stale** — the whole child deployment is gone but the parent still
  delegates (fully defective; the zombie pattern behind Figure 8 and the
  625-of-1,121 no-response hijack victims);
- **broken nameservers** with a *mode* each (unresolvable hostname,
  unresponsive address, or a lame server that REFUSEs / SERVFAILs /
  refers upward) — partially defective delegations;
- **consistency class** — the Figure-13 taxonomy (P=C, P⊂C, C⊂P,
  intersecting-neither, disjoint with/without IP overlap), plus the
  single-label dropped-origin typo;
- **dangling** — a broken nameserver's registrable domain is available
  for purchase (the Figure 11/12 exposure).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import accumulate
from typing import Optional, Tuple

from .config import WorldConfig
from .countries import CountryProfile

__all__ = ["Consistency", "DefectMode", "FaultPlan", "FaultSampler"]


class Consistency:
    """Parent/child NS-set relationship classes (paper §IV-D)."""

    EQUAL = "equal"
    P_SUBSET_C = "p_subset_c"
    C_SUBSET_P = "c_subset_p"
    OVERLAP_NEITHER = "overlap_neither"
    DISJOINT = "disjoint"
    DISJOINT_IP_OVERLAP = "disjoint_ip_overlap"

    INCONSISTENT = (
        P_SUBSET_C,
        C_SUBSET_P,
        OVERLAP_NEITHER,
        DISJOINT,
        DISJOINT_IP_OVERLAP,
    )


class DefectMode:
    """How a broken nameserver fails to serve the zone."""

    UNRESOLVABLE = "unresolvable"
    UNRESPONSIVE = "unresponsive"
    LAME_REFUSED = "lame_refused"
    LAME_UPWARD = "lame_upward"
    LAME_SERVFAIL = "lame_servfail"

    ALL = (UNRESOLVABLE, UNRESPONSIVE, LAME_REFUSED, LAME_UPWARD, LAME_SERVFAIL)


@dataclass(frozen=True)
class FaultPlan:
    """What to break for one domain."""

    stale: bool = False
    broken_count: int = 0
    defect_modes: Tuple[str, ...] = ()
    consistency: str = Consistency.EQUAL
    single_label: bool = False
    # Filled by the generator's global allocation passes:
    dangling: bool = False

    @property
    def any_defect(self) -> bool:
        return self.stale or self.broken_count > 0

    @property
    def inconsistent(self) -> bool:
        return self.consistency != Consistency.EQUAL or self.single_label


class FaultSampler:
    """Per-domain stochastic fault assignment.

    Global count-based allocations (which defects get registrable
    nameserver domains, the consistency-dangling victims) are done by
    the generator afterwards, on top of these plans.
    """

    def __init__(self, config: WorldConfig, rng: random.Random) -> None:
        self._config = config
        self._rng = rng
        weights = config.defect_mode_weights
        self._modes = list(weights)
        self._mode_cum = list(accumulate(weights[m] for m in weights))

    # ------------------------------------------------------------------
    def _sample_modes(self, count: int) -> Tuple[str, ...]:
        return tuple(
            self._rng.choices(self._modes, cum_weights=self._mode_cum, k=count)
        )

    def _sample_consistency(
        self, profile: CountryProfile, level: int, ns_count: int
    ) -> Tuple[str, bool]:
        config = self._config
        rate = profile.inconsistency_rate / max(config.inconsistency_total, 1e-9)
        if level <= 2:
            rate *= config.level2_consistency_multiplier
        draw = self._rng.random()
        cursor = 0.0
        buckets = (
            (Consistency.P_SUBSET_C, config.inconsistency_p_subset_c),
            (Consistency.C_SUBSET_P, config.inconsistency_c_subset_p),
            (Consistency.OVERLAP_NEITHER, config.inconsistency_overlap_neither),
            (Consistency.DISJOINT, config.inconsistency_disjoint),
        )
        picked = Consistency.EQUAL
        for name, share in buckets:
            cursor += share * rate
            if draw < cursor:
                picked = name
                break
        if picked == Consistency.DISJOINT:
            if self._rng.random() < config.disjoint_ip_overlap_share:
                picked = Consistency.DISJOINT_IP_OVERLAP
        # Subset classes need at least two nameservers to differ by one.
        if ns_count < 2 and picked in (
            Consistency.P_SUBSET_C,
            Consistency.OVERLAP_NEITHER,
        ):
            picked = Consistency.C_SUBSET_P
        single_label = (
            picked != Consistency.EQUAL
            and self._rng.random() < config.single_label_share
        )
        return picked, single_label

    # ------------------------------------------------------------------
    def plan_for(
        self,
        profile: CountryProfile,
        level: int,
        ns_count: int,
        single_ns: bool,
        force_stale: Optional[bool] = None,
    ) -> FaultPlan:
        """Sample a fault plan for one alive, delegated domain."""
        config = self._config
        rng = self._rng

        # Staleness: single-NS domains have their own (much higher)
        # stale probability — that is the Figure-8 phenomenon.
        if force_stale is not None:
            stale = force_stale
        elif single_ns:
            stale = rng.random() < profile.single_ns_stale_rate
        else:
            stale = (
                rng.random()
                < profile.defective_rate * config.full_defective_share
            )

        if stale:
            return FaultPlan(
                stale=True,
                broken_count=ns_count,
                defect_modes=self._sample_modes(ns_count),
                consistency=Consistency.EQUAL,
            )

        consistency, single_label = self._sample_consistency(
            profile, level, ns_count
        )

        partial_rate = profile.defective_rate * (1 - config.full_defective_share)
        broken = 0
        if ns_count >= 2 and rng.random() < partial_rate:
            # Usually one dead server; occasionally more (but never all,
            # which would be a full defect handled above).
            broken = 1
            if ns_count >= 3 and rng.random() < 0.25:
                broken = 2
        # The paper finds 40.9% of inconsistent domains also carry a
        # partial defect — extra-parent records are often stale.  Couple
        # the two here.
        if (
            broken == 0
            and consistency
            in (Consistency.C_SUBSET_P, Consistency.OVERLAP_NEITHER)
            and rng.random() < 0.45
        ):
            broken = 1

        return FaultPlan(
            stale=False,
            broken_count=broken,
            defect_modes=self._sample_modes(broken),
            consistency=consistency,
            single_label=single_label,
        )
