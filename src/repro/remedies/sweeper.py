"""Remediation campaigns: measure → fix → re-measure.

The paper's discussion asks what it would take to clean up the
pathologies it measures.  This module runs that counterfactual inside
the simulator: given a completed study, it applies the §V-B toolbox —

- **EPP delete** for fully defective (zombie) delegations, removing the
  stale records that enable hijacking;
- **EPP NS update** to drop broken nameservers from partially defective
  delegations;
- **CSYNC synchronization** for consistent-but-drifted parent/child NS
  sets;
- **registry locks** for every domain that was found hijack-exposed —

and reports what changed, so a fresh probe campaign can quantify the
cleanup.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..core.delegation import DelegationAnalysis, DelegationClass
from ..core.consistency import ConsistencyAnalysis
from ..core.study import GovernmentDnsStudy
from ..dns.name import DnsName
from ..dns.rdata import RRType
from ..dns.zone import Zone
from .csync import CsyncProcessor, CsyncRecord
from .epp import EppServer

__all__ = ["RemediationReport", "RemediationSweeper"]


@dataclass
class RemediationReport:
    """What a sweep changed."""

    zombies_deleted: List[DnsName] = field(default_factory=list)
    delegations_updated: List[DnsName] = field(default_factory=list)
    synchronized: List[DnsName] = field(default_factory=list)
    locked: List[DnsName] = field(default_factory=list)
    skipped: Dict[DnsName, str] = field(default_factory=dict)

    @property
    def total_changes(self) -> int:
        return (
            len(self.zombies_deleted)
            + len(self.delegations_updated)
            + len(self.synchronized)
            + len(self.locked)
        )


class RemediationSweeper:
    """Applies the remedies toolbox to a studied world."""

    def __init__(self, study: GovernmentDnsStudy) -> None:
        self._study = study
        self._world = study.world
        # One EPP server per government suffix zone, operated by a
        # single accredited "registrar" (the sweep).
        self._epp: Dict[str, EppServer] = {
            iso2: EppServer(
                zone,
                authorized_registrars=("remediation-sweep",),
                verify_unlock=lambda domain, registrar: False,
            )
            for iso2, zone in self._world.suffix_zones.items()
        }
        # Child operators are assumed to confirm CSYNC out-of-band for
        # the sweep (it is acting on their behalf).
        self._csync = CsyncProcessor(confirm=lambda zone: True)

    # ------------------------------------------------------------------
    def _parent_zone_for(self, domain: DnsName, iso2: str) -> Optional[Zone]:
        """The zone actually holding ``domain``'s delegation.

        The *zone* parent is not always the *name* parent (deep names
        hang off higher cuts), so walk every enclosing name.
        """
        for ancestor in domain.ancestors():
            zone = self._world.child_zones.get(ancestor)
            if zone is not None and zone.get(domain, RRType.NS):
                return zone
        suffix_zone = self._world.suffix_zones.get(iso2)
        if suffix_zone is not None and suffix_zone.get(domain, RRType.NS):
            return suffix_zone
        return None

    # ------------------------------------------------------------------
    def sweep(
        self,
        delete_zombies: bool = True,
        fix_partial: bool = True,
        synchronize: bool = True,
        lock_exposed: bool = True,
    ) -> RemediationReport:
        """Run the full campaign over the study's findings."""
        report = RemediationReport()
        delegation = self._study.delegation()
        consistency = self._study.consistency()

        if delete_zombies or fix_partial:
            self._fix_defects(
                delegation, report, delete_zombies, fix_partial
            )
        if synchronize:
            self._synchronize(consistency, report)
        if lock_exposed:
            self._lock_exposed(delegation, report)
        return report

    # ------------------------------------------------------------------
    def _fix_defects(
        self,
        delegation: DelegationAnalysis,
        report: RemediationReport,
        delete_zombies: bool,
        fix_partial: bool,
    ) -> None:
        for defect in delegation.reports().values():
            if not defect.any_defect:
                continue
            parent_zone = self._parent_zone_for(defect.domain, defect.iso2)
            if parent_zone is None:
                report.skipped[defect.domain] = "parent zone not reachable"
                continue
            server = self._epp_for_zone(parent_zone, defect.iso2)
            if server is None:
                report.skipped[defect.domain] = "no EPP route to parent"
                continue
            session = server.login("remediation-sweep")
            if defect.verdict == DelegationClass.FULL:
                if not delete_zombies:
                    continue
                result = session.delete_delegation(defect.domain)
                if result.ok:
                    report.zombies_deleted.append(defect.domain)
                else:
                    report.skipped[defect.domain] = result.message
            elif fix_partial:
                existing = parent_zone.get(defect.domain, RRType.NS)
                if existing is None:
                    continue
                healthy = tuple(
                    rdata.nsdname  # type: ignore[union-attr]
                    for rdata in existing.rdatas
                    if rdata.nsdname not in defect.defective_ns
                )
                if not healthy:
                    report.skipped[defect.domain] = "no healthy NS to keep"
                    continue
                result = session.update_ns(defect.domain, healthy)
                if result.ok:
                    report.delegations_updated.append(defect.domain)
                else:
                    report.skipped[defect.domain] = result.message

    def _epp_for_zone(self, parent_zone: Zone, iso2: str) -> Optional[EppServer]:
        server = self._epp.get(iso2)
        if server is not None and server.parent_zone is parent_zone:
            return server
        # Intermediate parents get ad-hoc EPP servers on first touch.
        key = f"{iso2}:{parent_zone.origin}"
        if key not in self._epp:
            self._epp[key] = EppServer(
                parent_zone, authorized_registrars=("remediation-sweep",)
            )
        return self._epp[key]

    # ------------------------------------------------------------------
    def _synchronize(
        self,
        consistency: ConsistencyAnalysis,
        report: RemediationReport,
    ) -> None:
        for finding in consistency.reports().values():
            if finding.consistent:
                continue
            child_zone = self._world.child_zones.get(finding.domain)
            if child_zone is None:
                report.skipped.setdefault(finding.domain, "no child zone")
                continue
            parent_zone = self._parent_zone_for(finding.domain, finding.iso2)
            if parent_zone is None:
                report.skipped.setdefault(finding.domain, "no parent zone")
                continue
            soa = child_zone.soa
            self._csync.publish(
                CsyncRecord(
                    zone=finding.domain,
                    soa_serial=soa.serial if soa else 1,
                    immediate=False,
                )
            )
            outcome = self._csync.sync_delegation(parent_zone, child_zone)
            if outcome.applied:
                report.synchronized.append(finding.domain)
            else:
                report.skipped.setdefault(finding.domain, outcome.reason)

    # ------------------------------------------------------------------
    def _lock_exposed(
        self,
        delegation: DelegationAnalysis,
        report: RemediationReport,
    ) -> None:
        exposure = delegation.hijack_exposure()
        for victim in exposure.victim_domains:
            iso2 = exposure.victim_country.get(victim)
            if iso2 is None:
                continue
            parent_zone = self._parent_zone_for(victim, iso2)
            if parent_zone is None:
                continue
            server = self._epp_for_zone(parent_zone, iso2)
            if server is None or server.is_locked(victim):
                continue
            session = server.login("remediation-sweep")
            if session.lock(victim).ok:
                report.locked.append(victim)
