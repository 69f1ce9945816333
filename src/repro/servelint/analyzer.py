"""The servelint analyzer: per-domain survivability findings.

Sits on top of zonelint's ground truth: :class:`ServeLinter` first runs
the delegation analysis (:class:`~repro.zonelint.analyzer.ZoneLinter`),
then feeds each :class:`~repro.zonelint.analyzer.GroundTruth` through
the static survivability model (:mod:`repro.servelint.model`) under the
committed ``outage`` profile — the profile whose windows are silence
for longer than any serve run, so its verdicts are deterministic — and
emits one :class:`~repro.lint.findings.Finding` per SV rule violation.

Findings use the same virtual ``world/<domain>`` paths as zonelint, so
the shared text/JSON/SARIF reporters work unchanged.  World-level
findings (TTL cohorts, stale-window sizing) anchor at
``world/serving-config``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

from ..dns.name import DnsName
from ..lint.findings import Finding
from ..inet.address import IPv4Address
from ..serve.service import DegradationState, ServeConfig
from ..zonelint.analyzer import GroundTruth, ZoneLinter
from .model import SurvivabilityModel, refresh_backoff_span
from .rules import (
    NEGATIVE_TTL_FLOOR,
    RULES_BY_ID,
    TTL_COHORT_MIN,
    TTL_COHORT_SHARE,
)

__all__ = ["ServeLinter", "ANALYSIS_PROFILE"]

# The profile domain-level findings are judged under.  Outage windows
# are total silence and outlast every default serve horizon, so the
# static verdicts under it are exact, not probabilistic.
ANALYSIS_PROFILE = "outage"

_CONFIG_PATH = "world/serving-config"


class ServeLinter:
    """Zonelint's ground truth + the survivability model = SV findings."""

    def __init__(
        self,
        zone_linter: ZoneLinter,
        addresses: Tuple[IPv4Address, ...],
        seed: int,
        config: ServeConfig = ServeConfig(),
        duration: float = 600.0,
        lossy: Tuple[IPv4Address, ...] = (),
    ) -> None:
        self.zones = zone_linter
        self.config = config
        self.model = SurvivabilityModel(
            zone_linter.graph,
            addresses,
            seed=seed,
            config=config,
            duration=duration,
            lossy=lossy,
        )

    @classmethod
    def for_world(
        cls,
        world,
        seed: int,
        config: ServeConfig = ServeConfig(),
        duration: float = 600.0,
    ) -> "ServeLinter":
        """Wire a linter from a generated :class:`worldgen.World`."""
        addresses = tuple(sorted(world.network.addresses()))
        lossy = tuple(
            address
            for address in addresses
            if world.network.effective_loss_rate(address) > 0.0
        )
        return cls(
            ZoneLinter.for_world(world),
            addresses,
            seed=seed,
            config=config,
            duration=duration,
            lossy=lossy,
        )

    # ------------------------------------------------------------------
    # Findings
    # ------------------------------------------------------------------
    def findings(
        self, table: Mapping[DnsName, GroundTruth]
    ) -> List[Finding]:
        out: List[Finding] = []
        survivability = self.model.survivability_table(
            table, ANALYSIS_PROFILE
        )
        fault_span = self.model.outlook(ANALYSIS_PROFILE).fault_span
        for domain in sorted(survivability):
            out.extend(
                self._domain_findings(survivability[domain], fault_span)
            )
        out.extend(self._world_findings(survivability, fault_span))
        return out

    def _domain_findings(self, surv, fault_span: float) -> List[Finding]:
        out: List[Finding] = []
        domain = surv.domain

        def emit(rule_id: str, message: str, snippet: str) -> None:
            rule = RULES_BY_ID[rule_id]
            out.append(
                Finding(
                    path=f"world/{domain}",
                    line=1,
                    column=1,
                    rule_id=rule_id,
                    severity=rule.severity,
                    message=message,
                    snippet=snippet,
                )
            )

        degraded = surv.verdict != DegradationState.FRESH
        answerable = surv.idle_status in ("ok", "nxdomain", "nodata")
        if surv.verdict == DegradationState.FAILED and answerable:
            emit(
                "SV001",
                f"goes dark under the {ANALYSIS_PROFILE} profile: all "
                f"{len(surv.dead_ns)} serving nameserver(s) inside the "
                "fault window and no cache entry bridges it",
                f"dark {domain}",
            )
        if surv.verdict == DegradationState.STALE_SERVED:
            emit(
                "SV002",
                f"survives the {ANALYSIS_PROFILE} profile only via the "
                f"RFC 8767 stale window (entry TTL {surv.clamped_ttl}s "
                f"+ stale {self.config.stale_window:.0f}s)",
                f"stale-only {domain}",
            )
        if surv.ns_count == 1 and degraded and surv.idle_status != "failed":
            emit(
                "SV003",
                "single-NS domain: one fault window removes the entire "
                "serve path (the paper's d_1NS resilience exposure)",
                f"single-NS outage {domain}",
            )
        if (
            degraded
            and surv.clamped_ttl is not None
            and surv.clamped_ttl < fault_span
            and not surv.surviving_ns
        ):
            emit(
                "SV004",
                f"positive TTL {surv.clamped_ttl}s (clamped) is shorter "
                f"than the {fault_span:.0f}s fault window and no "
                "nameserver survives it: live answers cannot outlast "
                "the fault",
                f"ttl-under-outage {domain}",
            )
        if surv.negative_ttl < NEGATIVE_TTL_FLOOR:
            emit(
                "SV005",
                f"effective negative TTL {surv.negative_ttl}s is below "
                f"the {NEGATIVE_TTL_FLOOR}s floor: NXDOMAIN storms "
                "re-hit the upstream instead of the negative cache",
                f"negative-ttl {domain}",
            )
        if surv.verdict == DegradationState.STALE_SERVED:
            span = refresh_backoff_span(self.config)
            if span < fault_span:
                emit(
                    "SV007",
                    f"background refresh futile: the whole "
                    f"{span:.0f}s backoff schedule lands inside the "
                    f"{fault_span:.0f}s fault window — every refresh "
                    "attempt is doomed before it starts",
                    f"refresh-futile {domain}",
                )
        return out

    def _world_findings(
        self, survivability: Mapping[DnsName, object], fault_span: float
    ) -> List[Finding]:
        out: List[Finding] = []

        def emit(rule_id: str, message: str, snippet: str) -> None:
            rule = RULES_BY_ID[rule_id]
            out.append(
                Finding(
                    path=_CONFIG_PATH,
                    line=1,
                    column=1,
                    rule_id=rule_id,
                    severity=rule.severity,
                    message=message,
                    snippet=snippet,
                )
            )

        cohorts: Dict[int, int] = {}
        answerable = 0
        for domain in sorted(survivability):
            surv = survivability[domain]
            if surv.clamped_ttl is None:
                continue
            answerable += 1
            cohorts[surv.clamped_ttl] = cohorts.get(surv.clamped_ttl, 0) + 1
        modal_ttl: Optional[int] = None
        modal_count = 0
        for ttl in sorted(cohorts):
            if cohorts[ttl] > modal_count:
                modal_ttl, modal_count = ttl, cohorts[ttl]
        if (
            modal_ttl is not None
            and answerable > 0
            and modal_count >= TTL_COHORT_MIN
            and modal_count / answerable >= TTL_COHORT_SHARE
        ):
            emit(
                "SV006",
                f"refresh-storm risk: {modal_count}/{answerable} "
                f"answerable domains share the clamped TTL "
                f"{modal_ttl}s, so warmed entries expire in sync",
                f"ttl-cohort {modal_ttl}",
            )
        if modal_ttl is not None and self.config.serve_stale:
            slack = modal_ttl + self.config.stale_window
            if slack < fault_span:
                emit(
                    "SV008",
                    f"stale window too small: modal TTL {modal_ttl}s + "
                    f"stale window {self.config.stale_window:.0f}s = "
                    f"{slack:.0f}s cannot bridge the {fault_span:.0f}s "
                    f"{ANALYSIS_PROFILE} fault window",
                    f"stale-window {ANALYSIS_PROFILE}",
                )
        return out
