"""Child-to-parent synchronization, RFC-7477 (CSYNC) style.

The paper's §V-B points at CSYNC as the standardized fix for
parent/child NS-set drift: a child zone publishes a CSYNC record
stating which of its RRsets the parent may copy; the parent-side
operator polls children and applies updates.  The RFC's safety valve is
reproduced too — when the ``immediate`` flag is clear, the parent MUST
obtain out-of-band confirmation from the child operator before acting,
precisely to keep the mechanism from becoming a hijack vector itself.

This module implements the record, the parent-side scanner, and the
application step against our zone model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from ..dns.name import DnsName
from ..dns.rdata import NS, RRType
from ..dns.rrset import RRset
from ..dns.zone import Zone

__all__ = ["CsyncRecord", "SyncOutcome", "CsyncProcessor"]

# CSYNC "type bit map" — we model only the NS bit, the one the paper's
# findings concern.
TYPE_NS = "NS"


@dataclass(frozen=True)
class CsyncRecord:
    """A child zone's synchronization directive.

    ``immediate``: parent may apply the change without out-of-band
    confirmation.  ``soa_serial``: the child SOA serial this directive
    was published at (guards against replays of stale directives).
    """

    zone: DnsName
    soa_serial: int
    immediate: bool = False
    types: Tuple[str, ...] = (TYPE_NS,)

    def covers(self, rrtype: str) -> bool:
        return rrtype in self.types


@dataclass
class SyncOutcome:
    """Result of attempting to synchronize one delegation."""

    zone: DnsName
    applied: bool
    reason: str
    old_ns: Tuple[DnsName, ...] = ()
    new_ns: Tuple[DnsName, ...] = ()


class CsyncProcessor:
    """Parent-side CSYNC scanning and application.

    Parameters
    ----------
    confirm:
        Callback used for non-immediate directives: given the child
        zone name, return True when the child operator confirmed the
        change out-of-band.  Defaults to refusing (the RFC-safe
        default).
    """

    def __init__(
        self,
        confirm: Optional[Callable[[DnsName], bool]] = None,
    ) -> None:
        self._confirm = confirm if confirm is not None else (lambda _zone: False)
        self._directives: Dict[DnsName, CsyncRecord] = {}
        self._last_serial: Dict[DnsName, int] = {}

    # ------------------------------------------------------------------
    # Child side: publish a directive
    # ------------------------------------------------------------------
    def publish(self, record: CsyncRecord) -> None:
        """Register a child's CSYNC directive (as if served by its
        authoritative nameservers)."""
        self._directives[record.zone] = record

    # ------------------------------------------------------------------
    # Parent side: scan and apply
    # ------------------------------------------------------------------
    def sync_delegation(
        self,
        parent_zone: Zone,
        child_zone: Zone,
    ) -> SyncOutcome:
        """Bring the parent's NS set for one child up to date.

        Applies only when the child published a CSYNC covering NS, the
        serial moved forward, and the immediate flag (or out-of-band
        confirmation) authorizes the change.
        """
        child_name = child_zone.origin
        delegation = parent_zone.get(child_name, RRType.NS)
        if delegation is None:
            return SyncOutcome(
                zone=child_name, applied=False, reason="no delegation in parent"
            )
        directive = self._directives.get(child_name)
        if directive is None:
            return SyncOutcome(
                zone=child_name, applied=False, reason="no CSYNC published"
            )
        if not directive.covers(RRType.NS):
            return SyncOutcome(
                zone=child_name, applied=False, reason="CSYNC does not cover NS"
            )
        last = self._last_serial.get(child_name)
        if last is not None and directive.soa_serial <= last:
            return SyncOutcome(
                zone=child_name,
                applied=False,
                reason=f"stale serial {directive.soa_serial} (≤ {last})",
            )
        child_ns = child_zone.apex_ns
        if child_ns is None:
            return SyncOutcome(
                zone=child_name, applied=False, reason="child has no apex NS"
            )
        # Refuse to copy obviously-broken data (the bare-label typo):
        # propagating it upward would convert a child mistake into a
        # resolution outage.
        if any(len(r.nsdname) == 1 for r in child_ns.rdatas):  # type: ignore[union-attr]
            return SyncOutcome(
                zone=child_name,
                applied=False,
                reason="child NS set contains a single-label name",
            )
        if not directive.immediate and not self._confirm(child_name):
            return SyncOutcome(
                zone=child_name,
                applied=False,
                reason="immediate flag clear and no out-of-band confirmation",
            )

        old = tuple(r.nsdname for r in delegation.rdatas)  # type: ignore[union-attr]
        new = tuple(r.nsdname for r in child_ns.rdatas)  # type: ignore[union-attr]
        if set(old) == set(new):
            self._last_serial[child_name] = directive.soa_serial
            return SyncOutcome(
                zone=child_name,
                applied=False,
                reason="already consistent",
                old_ns=old,
                new_ns=new,
            )
        parent_zone.add(
            RRset(
                child_name,
                RRType.NS,
                delegation.ttl,
                tuple(NS(h) for h in new),
            )
        )
        # In-bailiwick nameservers are unreachable without glue: the
        # update must carry the A records, or the sync would convert a
        # mere inconsistency into a fully defective delegation.
        for hostname in new:
            if not hostname.is_subdomain_of(child_name):
                continue
            glue = child_zone.get(hostname, RRType.A)
            if glue is not None and parent_zone.get(hostname, RRType.A) is None:
                parent_zone.add(glue)
        self._last_serial[child_name] = directive.soa_serial
        return SyncOutcome(
            zone=child_name,
            applied=True,
            reason="synchronized",
            old_ns=old,
            new_ns=new,
        )

    def sweep(
        self,
        parent_zone: Zone,
        children: Dict[DnsName, Zone],
    ) -> List[SyncOutcome]:
        """Synchronize every delegation the parent holds a child for."""
        outcomes = []
        for delegation in list(parent_zone.delegations()):
            child = children.get(delegation.name)
            if child is None:
                continue
            outcomes.append(self.sync_delegation(parent_zone, child))
        return outcomes
