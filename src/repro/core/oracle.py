"""Differential verification of the active pipeline against zonelint.

The static analyzer (:mod:`repro.zonelint`) computes, per domain, what
a lossless measurement must observe.  This module runs the *actual*
campaign — serial or concurrent, with or without a chaos profile —
and asserts per-domain agreement between the active pipeline's
DelegationAnalysis/ConsistencyAnalysis verdicts and that static truth.

Every disagreement is classified, never dropped:

``cohosted-parent``
    The parent walk landed on a server that co-hosts the child zone on
    one side and not the other (e.g. chaos silenced the server the
    other side hit first), flipping REFERRAL↔ANSWER while the NS data
    stays consistent.  A known, benign observation asymmetry.
``chaos-masked``
    A chaos profile was installed and the active run observed strictly
    *less* than the static truth — silence, refusals, lost referrals.
    Legitimately unobservable, not a bug.
``transient-loss``
    No chaos, but the network's intrinsic loss (flaky-server share)
    explains a strictly-weaker observation.
``unexplained``
    Everything else — the oracle's failure signal.  In particular, the
    active run observing *more* than the static truth (a server
    answering where the graph says nothing is attached) is always
    unexplained: chaos can only subtract.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..dns.name import DnsName
from ..zonelint.analyzer import GroundTruth, ZoneLinter
from .consistency import ConsistencyAnalysis
from .dataset import (
    MeasurementDataset,
    ParentStatus,
    ProbeResult,
    ServerOutcome,
)
from .delegation import DelegationAnalysis

__all__ = [
    "Disagreement",
    "OracleReport",
    "DifferentialOracle",
    "ORACLE_MODES",
    "run_oracle_mode",
]

ORACLE_MODES = ("serial", "concurrent", "chaos", "sharded")

_COHOSTED = "cohosted-parent"
_CHAOS_MASKED = "chaos-masked"
_TRANSIENT = "transient-loss"
_UNEXPLAINED = "unexplained"

# Outcomes a chaos layer can manufacture: silence (timeout) and
# rate-limit refusals.  SERVFAIL, upward referrals, and lame answers
# are configuration statements chaos never injects, so they must match
# the static truth exactly.
_SOFT_CHAOS = frozenset({ServerOutcome.TIMEOUT, ServerOutcome.REFUSED})
# Intrinsic packet loss can only produce silence.
_SOFT_PLAIN = frozenset({ServerOutcome.TIMEOUT})


@dataclass(frozen=True)
class Disagreement:
    """One domain where active and static views differ."""

    domain: DnsName
    iso2: str
    fields: Tuple[str, ...]
    classification: str
    detail: str


@dataclass
class OracleReport:
    """Outcome of one oracle run (one campaign mode)."""

    mode: str
    chaos_profile: Optional[str]
    total: int
    agreed: int
    disagreements: List[Disagreement] = field(default_factory=list)

    @property
    def unexplained(self) -> List[Disagreement]:
        return [
            d
            for d in self.disagreements
            if d.classification == _UNEXPLAINED
        ]

    def counts(self) -> Dict[str, int]:
        out: Dict[str, int] = {}
        for disagreement in self.disagreements:
            out[disagreement.classification] = (
                out.get(disagreement.classification, 0) + 1
            )
        return out


class DifferentialOracle:
    """Compares one campaign's dataset against a static truth table."""

    def __init__(self, world, table: Dict[DnsName, GroundTruth]) -> None:
        self._world = world
        self._table = table

    # ------------------------------------------------------------------
    def compare(
        self,
        dataset: MeasurementDataset,
        mode: str,
        chaos_profile: Optional[str] = None,
    ) -> OracleReport:
        delegation = DelegationAnalysis(dataset).reports()
        consistency = ConsistencyAnalysis(dataset).reports()
        report = OracleReport(
            mode=mode, chaos_profile=chaos_profile, total=0, agreed=0
        )
        for domain in sorted(result.domain for result in dataset):
            report.total += 1
            active = dataset[domain]
            static = self._table.get(domain)
            if static is None:
                report.disagreements.append(
                    Disagreement(
                        domain,
                        active.iso2,
                        ("static-missing",),
                        _UNEXPLAINED,
                        "no static ground truth for probed domain",
                    )
                )
                continue
            fields = self._diff(
                static,
                active,
                delegation.get(domain),
                consistency.get(domain),
            )
            if not fields:
                report.agreed += 1
                continue
            classification, detail = self._classify(
                static, active, fields, chaos_profile is not None
            )
            report.disagreements.append(
                Disagreement(
                    domain,
                    active.iso2,
                    tuple(fields),
                    classification,
                    detail,
                )
            )
        return report

    # ------------------------------------------------------------------
    def _diff(
        self,
        static: GroundTruth,
        active: ProbeResult,
        defect_report,
        consistency_report,
    ) -> List[str]:
        fields: List[str] = []
        if active.parent_status != static.parent_status:
            fields.append("parent_status")
        if set(active.parent_ns) != set(static.parent_ns):
            fields.append("parent_ns")
        if active.responsive != static.responsive:
            fields.append("responsive")
        if set(active.child_ns) != set(static.child_ns):
            fields.append("child_ns")
        active_verdict = (
            defect_report.verdict if defect_report is not None else None
        )
        if active_verdict != static.delegation_verdict:
            fields.append("delegation_verdict")
        active_defective = (
            sorted(defect_report.defective_ns)
            if defect_report is not None
            else []
        )
        if active_defective != sorted(static.defective_ns):
            fields.append("defective_ns")
        active_consistency = (
            consistency_report.verdict
            if consistency_report is not None
            else None
        )
        if active_consistency != static.consistency_verdict:
            fields.append("consistency_verdict")
        elif consistency_report is not None and (
            consistency_report.parent_only != static.parent_only
            or consistency_report.child_only != static.child_only
        ):
            fields.append("consistency_sets")
        return fields

    # ------------------------------------------------------------------
    def _classify(
        self,
        static: GroundTruth,
        active: ProbeResult,
        fields: List[str],
        chaos: bool,
    ) -> Tuple[str, str]:
        if self._cohost_flip(static, active, fields):
            return _COHOSTED, (
                f"parent walk flipped {static.parent_status}→"
                f"{active.parent_status} with a consistent NS view"
            )

        if chaos and self._loss_shaped(static, active, _SOFT_CHAOS):
            return _CHAOS_MASKED, (
                "active run observed strictly less than static truth "
                "under an installed chaos profile"
            )
        if not chaos and self._loss_shaped(static, active, _SOFT_PLAIN):
            if self._lossy_addresses(static, active):
                return _TRANSIENT, (
                    "strictly-weaker observation on addresses with "
                    "intrinsic packet loss"
                )
        return _UNEXPLAINED, (
            "fields: " + ", ".join(fields)
        )

    def _cohost_flip(
        self,
        static: GroundTruth,
        active: ProbeResult,
        fields: List[str],
    ) -> bool:
        """REFERRAL↔ANSWER flip where both views carry consistent NS
        data: a different (co-hosting) parent server answered first."""
        if "parent_status" not in fields:
            return False
        both = {static.parent_status, active.parent_status}
        if not both <= {ParentStatus.REFERRAL, ParentStatus.ANSWER}:
            return False
        if active.parent_status == ParentStatus.ANSWER:
            expected = set(static.child_ns)
        else:
            expected = set(static.parent_ns)
        if set(active.parent_ns) != expected:
            return False
        allowed = {
            "parent_status",
            "parent_ns",
            "consistency_verdict",
            "consistency_sets",
        }
        return set(fields) <= allowed

    def _loss_shaped(
        self,
        static: GroundTruth,
        active: ProbeResult,
        soft: frozenset,
    ) -> bool:
        """True when every divergence is the active run observing
        *less*: silenced walks, masked answers, failed resolutions.
        Observing more than the static truth is never loss-shaped."""
        if (
            active.parent_status == ParentStatus.NO_RESPONSE
            and static.parent_status != ParentStatus.NO_RESPONSE
        ):
            return True  # the whole walk was silenced
        if active.parent_status != static.parent_status:
            return False
        if set(active.parent_ns) != set(static.parent_ns):
            return False
        if not set(active.child_ns) <= set(static.child_ns):
            return False
        if active.responsive and not static.responsive:
            return False
        for hostname, server in active.servers.items():
            reference = static.servers.get(hostname)
            if reference is None:
                return False
            if server.resolvable and not reference.resolvable:
                return False
            if not server.resolvable and reference.resolvable:
                continue  # resolution itself was masked
            for address, outcome in server.outcomes.items():
                expected = reference.outcomes.get(address)
                if outcome == expected:
                    continue
                if outcome in soft:
                    continue
                return False
        return True

    def _lossy_addresses(
        self, static: GroundTruth, active: ProbeResult
    ) -> bool:
        """Does any address involved on either side drop packets?"""
        network = self._world.network
        involved: Dict = {}
        for address in static.all_addresses():
            involved.setdefault(address, None)
        for address in static.walk_addresses:
            involved.setdefault(address, None)
        for server in active.servers.values():
            for address in server.addresses:
                involved.setdefault(address, None)
        return any(
            network.effective_loss_rate(address) > 0.0
            for address in involved
        )


# ----------------------------------------------------------------------
# Campaign runner
# ----------------------------------------------------------------------
def run_oracle_mode(
    seed: int,
    scale: float,
    mode: str,
    chaos_profile: str = "mixed",
) -> OracleReport:
    """Build a fresh world, run one campaign mode, compare.

    ``serial`` probes one query at a time with zone-cut caching off
    (the reference pipeline), ``concurrent`` uses the default engine,
    ``chaos`` is the concurrent engine under ``chaos_profile``, and
    ``sharded`` runs the default engine across two worker processes —
    certifying that the parallel path observes the same world the
    static analyzer derives, not just the in-process engines.  The
    static truth is computed before chaos is installed — the graph
    bypasses the delivery path, but truth-before-fault keeps the
    methodology honest.
    """
    from ..serve.profiles import install_chaos_profile
    from ..worldgen.churn import world_at_epoch
    from .probe import ProbeConfig
    from .study import GovernmentDnsStudy

    if mode not in ORACLE_MODES:
        raise ValueError(f"unknown oracle mode: {mode!r}")
    world = world_at_epoch(seed, scale)
    if mode == "serial":
        config = ProbeConfig(max_in_flight=1, zone_cut_caching=False)
    else:
        config = ProbeConfig()
    study = GovernmentDnsStudy(
        world,
        probe_config=config,
        shards=2 if mode == "sharded" else None,
    )
    # Seed selection issues its own queries; compute targets (and the
    # static truth) before chaos lands, mirroring the campaign CLI.
    targets = study.targets()
    linter = ZoneLinter.for_world(world)
    table = linter.analyze_all(targets)
    profile: Optional[str] = None
    if mode == "chaos":
        profile = chaos_profile
        install_chaos_profile(world.network, chaos_profile, seed=seed)
    dataset = study.dataset()
    oracle = DifferentialOracle(world, table)
    return oracle.compare(dataset, mode, chaos_profile=profile)
