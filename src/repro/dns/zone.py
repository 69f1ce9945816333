"""Zones and the RFC-1034 lookup algorithm.

A zone is a contiguous region of the namespace served by a set of
authoritative nameservers.  Zone boundaries are defined by NS records:
NS records at the zone origin name the zone's own servers, while NS
records at any other name are *delegations* cutting a child zone out of
this one (the parent/child relationship at the heart of §IV-C/IV-D).

:meth:`Zone.lookup` implements the authoritative side of the RFC-1034
algorithm: authoritative answers, referrals with glue, NXDOMAIN (with
empty-non-terminal handling), NODATA, and CNAME indirection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, Optional, Set, Tuple

from ..inet.address import IPv4Address
from .errors import ZoneError
from .name import DnsName
from .rdata import A, NS, RRType, SOA
from .rrset import RRset

__all__ = ["Zone", "LookupResult", "LookupStatus"]


class LookupStatus:
    """Outcome categories for an authoritative lookup."""

    ANSWER = "ANSWER"
    REFERRAL = "REFERRAL"
    NXDOMAIN = "NXDOMAIN"
    NODATA = "NODATA"
    CNAME = "CNAME"


@dataclass(frozen=True)
class LookupResult:
    """Result of :meth:`Zone.lookup`.

    ``delegation`` and ``glue`` are set for referrals; ``cname`` is set
    when the query hit an alias and should be re-chased.
    """

    status: str
    answers: Tuple[RRset, ...] = ()
    delegation: Optional[RRset] = None
    glue: Tuple[RRset, ...] = ()
    cname: Optional[DnsName] = None


class Zone:
    """A mutable zone: origin plus a map of (name, type) → RRset."""

    def __init__(self, origin: DnsName, default_ttl: int = 3600) -> None:
        self.origin = origin
        self.default_ttl = default_ttl
        self._records: Dict[Tuple[DnsName, str], RRset] = {}
        # Every name that exists in the zone (including empty
        # non-terminals), for NXDOMAIN vs NODATA decisions.
        self._names: Set[DnsName] = {origin}

    # ------------------------------------------------------------------
    # Content management
    # ------------------------------------------------------------------
    def add(self, rrset: RRset) -> None:
        """Insert an RRset; replaces any existing set of the same
        (name, type).

        Enforces in-zone ownership and the CNAME-exclusivity rule.
        """
        if not rrset.name.is_subdomain_of(self.origin):
            raise ZoneError(f"{rrset.name} is not within zone {self.origin}")
        key = (rrset.name, rrset.rrtype)
        if rrset.rrtype == RRType.CNAME:
            clashing = [
                existing_type
                for (name, existing_type) in self._records
                if name == rrset.name and existing_type != RRType.CNAME
            ]
            if clashing:
                raise ZoneError(
                    f"CNAME at {rrset.name} conflicts with {clashing}"
                )
        elif (rrset.name, RRType.CNAME) in self._records:
            raise ZoneError(f"{rrset.name} already holds a CNAME")
        self._records[key] = rrset
        # Every name in the set has its ancestors up to the origin in
        # it too, so the walk stops at the first name already present.
        names = self._names
        node: DnsName = rrset.name
        while node not in names:
            names.add(node)
            node = node.parent()

    def add_records(self, name: DnsName, *rdatas, ttl: Optional[int] = None) -> None:
        """Convenience: group rdatas by type into RRsets and add them."""
        by_type: Dict[str, list] = {}
        for rdata in rdatas:
            by_type.setdefault(rdata.rrtype, []).append(rdata)
        for rrtype, group in by_type.items():
            self.add(
                RRset(name, rrtype, ttl if ttl is not None else self.default_ttl,
                      tuple(group))
            )

    def remove(self, name: DnsName, rrtype: str) -> None:
        key = (name, rrtype)
        if key not in self._records:
            raise KeyError(f"no {rrtype} RRset at {name}")
        del self._records[key]

    def get(self, name: DnsName, rrtype: str) -> Optional[RRset]:
        return self._records.get((name, rrtype))

    def __contains__(self, name: DnsName) -> bool:
        return name in self._names

    def rrsets(self) -> Iterator[RRset]:
        return iter(self._records.values())

    def __len__(self) -> int:
        return len(self._records)

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    @property
    def apex_ns(self) -> Optional[RRset]:
        """The zone's own NS set (None for an improperly built zone)."""
        return self._records.get((self.origin, RRType.NS))

    @property
    def soa(self) -> Optional[SOA]:
        rrset = self._records.get((self.origin, RRType.SOA))
        if rrset is None:
            return None
        record = rrset.rdatas[0]
        assert isinstance(record, SOA)
        return record

    def delegations(self) -> Iterator[RRset]:
        """All non-apex NS sets: the children this zone delegates."""
        for (name, rrtype), rrset in self._records.items():
            if rrtype == RRType.NS and name != self.origin:
                yield rrset

    def delegation_covering(self, qname: DnsName) -> Optional[RRset]:
        """The closest delegation at-or-above ``qname`` (excluding apex).

        Walking top-down guarantees we honor the *highest* zone cut, as
        a real server does.
        """
        if not qname.is_subdomain_of(self.origin):
            return None
        depth = len(self.origin) + 1
        while depth <= len(qname):
            node = qname.slice_to_level(depth)
            rrset = self._records.get((node, RRType.NS))
            if rrset is not None:
                return rrset
            depth += 1
        return None

    @property
    def apex_ns_names(self) -> Tuple[DnsName, ...]:
        """Hostnames in the zone's own NS set, in record order."""
        rrset = self.apex_ns
        if rrset is None:
            return ()
        names = []
        for rdata in rrset.rdatas:
            assert isinstance(rdata, NS)
            names.append(rdata.nsdname)
        return tuple(names)

    def a_addresses(self, name: DnsName) -> Tuple[IPv4Address, ...]:
        """Addresses of the A RRset at ``name`` (empty if none)."""
        rrset = self._records.get((name, RRType.A))
        if rrset is None:
            return ()
        addresses = []
        for rdata in rrset.rdatas:
            assert isinstance(rdata, A)
            addresses.append(rdata.address)
        return tuple(addresses)

    def glue_for(self, delegation: RRset) -> Tuple[RRset, ...]:
        """In-zone A records for a delegation's nameserver hostnames."""
        glue = []
        for rdata in delegation.rdatas:
            assert isinstance(rdata, NS)
            a_set = self._records.get((rdata.nsdname, RRType.A))
            if a_set is not None:
                glue.append(a_set)
        return tuple(glue)

    # ------------------------------------------------------------------
    # The lookup algorithm
    # ------------------------------------------------------------------
    def lookup(self, qname: DnsName, qtype: str) -> LookupResult:
        """Authoritative lookup per RFC 1034 §4.3.2 (zone side).

        Callers must ensure ``qname`` is within this zone; the server
        layer picks the longest-matching zone first.
        """
        if not qname.is_subdomain_of(self.origin):
            raise ZoneError(f"{qname} is outside zone {self.origin}")

        delegation = self.delegation_covering(qname)
        if delegation is not None:
            # Below (or at) a zone cut this server is not authoritative —
            # even for the NS type itself.  The parent answers child-NS
            # queries with a non-AA referral, which is why the paper's
            # pipeline must query the child's own servers in step 3.
            return LookupResult(
                status=LookupStatus.REFERRAL,
                delegation=delegation,
                glue=self.glue_for(delegation),
            )

        cname_set = self._records.get((qname, RRType.CNAME))
        if cname_set is not None and qtype != RRType.CNAME:
            target = cname_set.rdatas[0].target  # type: ignore[union-attr]
            return LookupResult(
                status=LookupStatus.CNAME,
                answers=(cname_set,),
                cname=target,
            )

        exact = self._records.get((qname, qtype))
        if exact is not None:
            return LookupResult(status=LookupStatus.ANSWER, answers=(exact,))

        if qname in self._names:
            return LookupResult(status=LookupStatus.NODATA)
        return LookupResult(status=LookupStatus.NXDOMAIN)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def problems(self) -> list[str]:
        """Structural issues, in the spirit of the debugging tools the
        paper's §V-B surveys (zonemaster and friends)."""
        found = []
        if self.apex_ns is None:
            found.append(f"zone {self.origin} has no apex NS set")
        elif len(self.apex_ns) < 2:
            found.append(
                f"zone {self.origin} lists only {len(self.apex_ns)} "
                "nameserver (RFC 1034 requires at least 2)"
            )
        if self.soa is None:
            found.append(f"zone {self.origin} has no SOA")
        if self.apex_ns is not None:
            for rdata in self.apex_ns.rdatas:
                assert isinstance(rdata, NS)
                if len(rdata.nsdname) == 1:
                    found.append(
                        f"apex NS of {self.origin} is the single label "
                        f"{rdata.nsdname} (likely a dropped-origin typo)"
                    )
        for delegation in self.delegations():
            for rdata in delegation.rdatas:
                assert isinstance(rdata, NS)
                if len(rdata.nsdname) == 1:
                    found.append(
                        f"delegation {delegation.name} points at "
                        f"single-label nameserver {rdata.nsdname} "
                        "(likely a dropped-origin typo)"
                    )
                if rdata.nsdname.is_subdomain_of(delegation.name):
                    if self.get(rdata.nsdname, RRType.A) is None:
                        found.append(
                            f"in-bailiwick nameserver {rdata.nsdname} for "
                            f"{delegation.name} has no glue A record"
                        )
        return found

    def __repr__(self) -> str:
        return f"Zone({str(self.origin)!r}, {len(self._records)} rrsets)"
