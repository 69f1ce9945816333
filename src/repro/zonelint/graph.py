"""A static view of the generated world's delegation graph.

The simulated hosts are pure functions of their zone content: handing a
query :class:`~repro.dns.message.Message` to ``handle_datagram`` needs
no clock, no event engine, and no sockets.  :class:`ZoneGraph` exploits
that to re-implement the active pipeline's parent walk, per-server
sweep, and address resolution as *synchronous* graph traversals — the
same decision rules as ``repro.core.probe`` and
``repro.dns.resolver``, with every timing concern gone.  Chaos layers
live in the network's delivery path, which is bypassed entirely, so the
result is ground truth: what a lossless, infinitely patient measurement
would observe.

The traversal rules here deliberately mirror the active code line for
line (same skip conditions, same iteration order, same loop caps); the
differential oracle in ``repro.core.oracle`` depends on the two
implementations disagreeing only when the network itself misbehaves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from ..dns.message import Message, Rcode, make_query
from ..dns.name import DnsName
from ..dns.rdata import A, NS, RRType
from ..dns.server import AuthoritativeServer
from ..dns.zone import Zone
from ..inet.address import IPv4Address
from ..net.network import Network
from .smells import StaticOutcome, StaticStatus

__all__ = ["CutStore", "StaticResolution", "StaticResolver", "StaticWalk", "ZoneGraph"]

# Mirrors repro.core.probe._MAX_WALK and repro.dns.resolver's caps.
_MAX_WALK = 16
_MAX_REFERRALS = 24
_MAX_CNAME_HOPS = 8
_MAX_GLUELESS_DEPTH = 4


@dataclass(frozen=True)
class StaticWalk:
    """Outcome of a static parent walk for one domain."""

    status: str
    hostnames: Tuple[DnsName, ...]
    glue: Dict[DnsName, Tuple[IPv4Address, ...]]
    queried: Tuple[IPv4Address, ...]


class ZoneGraph:
    """Synchronous query access to every authoritative host."""

    def __init__(
        self,
        network: Network,
        root_addresses: Tuple[IPv4Address, ...],
        source: IPv4Address,
    ) -> None:
        self._network = network
        self.roots = tuple(root_addresses)
        self._source = source
        self.zones: Dict[DnsName, Zone] = {}
        self.servers_by_zone: Dict[DnsName, List[IPv4Address]] = {}
        for address in sorted(network.addresses()):
            host = network.host_at(address)
            if isinstance(host, AuthoritativeServer):
                for zone in host.zones():
                    self.zones.setdefault(zone.origin, zone)
                    self.servers_by_zone.setdefault(
                        zone.origin, []
                    ).append(address)
        # Lossless, nothing cached: the plain iterative resolver.
        self._resolver = StaticResolver(self, frozenset(), {})

    # ------------------------------------------------------------------
    # One exchange
    # ------------------------------------------------------------------
    def query(
        self, address: IPv4Address, qname: DnsName, qtype: str
    ) -> Optional[Message]:
        """One synchronous exchange; ``None`` plays the role of a
        timeout (nothing attached, or the host stays silent)."""
        if not self._network.is_attached(address):
            return None
        host = self._network.host_at(address)
        if host is None:
            return None
        return host.handle_datagram(make_query(qname, qtype), self._source)

    # ------------------------------------------------------------------
    # TTL introspection (consumed by repro.servelint)
    # ------------------------------------------------------------------
    def enclosing_zone(self, qname: DnsName) -> Optional[Zone]:
        """Deepest loaded zone whose origin encloses ``qname``."""
        for origin in qname.ancestors(include_self=True):
            zone = self.zones.get(origin)
            if zone is not None:
                return zone
        return None

    def answer_ttl(self, qname: DnsName, qtype: str) -> Optional[int]:
        """TTL the authoritative answer RRset for ``qname`` carries (one
        CNAME hop deep); ``None`` when no loaded zone holds an answer."""
        zone = self.enclosing_zone(qname)
        if zone is None:
            return None
        rrset = zone.get(qname, qtype)
        if rrset is not None:
            return rrset.ttl
        cname = zone.get(qname, RRType.CNAME)
        if cname is not None:
            return cname.ttl
        return None

    # ------------------------------------------------------------------
    # Address resolution (mirrors repro.dns.resolver)
    # ------------------------------------------------------------------
    def resolve_a(self, hostname: DnsName) -> Tuple[IPv4Address, ...]:
        """Addresses the iterative resolver would find for ``hostname``
        (empty on any resolution failure), memoized."""
        return self._resolver.resolve_a(hostname)

    # ------------------------------------------------------------------
    # Parent walk (mirrors repro.core.probe._walk_from_task)
    # ------------------------------------------------------------------
    def walk(self, domain: DnsName) -> StaticWalk:
        """Descend from the roots to the deepest referral for
        ``domain``, exactly as the active walk does."""
        queried: List[IPv4Address] = []
        candidates: List[IPv4Address] = list(self.roots)
        glueless: List[DnsName] = []
        for _ in range(_MAX_WALK):
            response = None
            queue = list(candidates)
            pending = list(glueless)
            while queue or pending:
                if not queue:
                    hostname = pending.pop(0)
                    queue.extend(self.resolve_a(hostname))
                    continue
                address = queue.pop(0)
                queried.append(address)
                reply = self.query(address, domain, RRType.NS)
                if reply is None:
                    continue
                if reply.rcode in (Rcode.REFUSED, Rcode.SERVFAIL):
                    continue
                if reply.is_upward_referral:
                    continue
                response = reply
                break
            if response is None:
                return StaticWalk(
                    StaticStatus.NO_RESPONSE, (), {}, tuple(queried)
                )
            if response.is_referral:
                target = response.referral_target
                hostnames, glue = _referral_parts(response)
                if target == domain:
                    return StaticWalk(
                        StaticStatus.REFERRAL,
                        hostnames,
                        glue,
                        tuple(queried),
                    )
                candidates = [
                    address
                    for addresses in glue.values()
                    for address in addresses
                ]
                glueless = [h for h in hostnames if h not in glue]
                continue
            if response.aa:
                answer = response.answer_rrset(RRType.NS)
                if answer is not None:
                    names = []
                    for rdata in answer.rdatas:
                        assert isinstance(rdata, NS)
                        names.append(rdata.nsdname)
                    return StaticWalk(
                        StaticStatus.ANSWER,
                        tuple(names),
                        {},
                        tuple(queried),
                    )
                return StaticWalk(
                    StaticStatus.EMPTY, (), {}, tuple(queried)
                )
            return StaticWalk(
                StaticStatus.NO_RESPONSE, (), {}, tuple(queried)
            )
        return StaticWalk(StaticStatus.NO_RESPONSE, (), {}, tuple(queried))

    # ------------------------------------------------------------------
    # Per-server sweep (mirrors repro.core.probe._classify)
    # ------------------------------------------------------------------
    def sweep_outcome(
        self, address: IPv4Address, domain: DnsName
    ) -> Tuple[str, Optional[Tuple[DnsName, ...]]]:
        """Classify one server's answer to ``NS <domain>``; the second
        element carries the NS set when the server answered."""
        response = self.query(address, domain, RRType.NS)
        if response is None:
            return StaticOutcome.TIMEOUT, None
        if response.rcode == Rcode.REFUSED:
            return StaticOutcome.REFUSED, None
        if response.rcode == Rcode.SERVFAIL:
            return StaticOutcome.SERVFAIL, None
        if response.is_upward_referral:
            return StaticOutcome.UPWARD, None
        if response.rcode == Rcode.NXDOMAIN and response.aa:
            return StaticOutcome.NXDOMAIN, None
        if response.aa:
            answer = response.answer_rrset(RRType.NS)
            if answer is not None:
                names = []
                for rdata in answer.rdatas:
                    assert isinstance(rdata, NS)
                    names.append(rdata.nsdname)
                return StaticOutcome.ANSWER, tuple(names)
            return StaticOutcome.NODATA, None
        return StaticOutcome.LAME, None


def _referral_parts(
    response: Message,
) -> Tuple[Tuple[DnsName, ...], Dict[DnsName, Tuple[IPv4Address, ...]]]:
    """Hostnames (rdata order) and glue (hostname order) of a referral,
    matching the active walk's construction order exactly."""
    delegation = response.authority_rrset(RRType.NS)
    assert delegation is not None
    hostnames = []
    for rdata in delegation.rdatas:
        assert isinstance(rdata, NS)
        hostnames.append(rdata.nsdname)
    glue: Dict[DnsName, Tuple[IPv4Address, ...]] = {}
    for hostname in hostnames:
        addresses: List[IPv4Address] = []
        for rrset in response.glue_for(hostname):
            for rdata in rrset.rdatas:
                assert isinstance(rdata, A)
                addresses.append(rdata.address)
        if addresses:
            glue[hostname] = tuple(addresses)
    return tuple(hostnames), glue


@dataclass(frozen=True)
class StaticResolution:
    """One static resolution: final status plus every address the walk
    considered (dead ones included — they are part of the serve path
    for masking purposes)."""

    status: str  # "ok" | "nxdomain" | "nodata" | "failed"
    attempted: Tuple[IPv4Address, ...]

    @property
    def answered(self) -> bool:
        return self.status != "failed"


# One cached zone cut: NS hostnames plus glue, exactly as the live
# ZoneCutCache stores every referral it processes (TTLs elided — the
# worldgen delegation TTL outlives every default serve horizon).
CutStore = Dict[
    DnsName,
    Tuple[Tuple[DnsName, ...], Dict[DnsName, Tuple[IPv4Address, ...]]],
]


class StaticResolver:
    """The iterative resolver's decision procedure over the static graph.

    Same skip rules, iteration order and loop caps as
    ``repro.dns.resolver``, plus two serving twists: addresses in
    ``dead`` are silence, and every resolution — including glueless-NS
    sub-resolutions — starts at the deepest zone cut in ``cuts`` before
    falling back to a cold root walk, exactly the
    fast-path-then-invalidate dance ``Resolver._resolve_inner``
    performs.  With an empty dead set and an empty cut store (what
    :class:`ZoneGraph` owns) it is the plain lossless resolver.

    ``cuts`` may be shared across resolvers: one built with
    ``record=True`` *records* every referral it processes (the static
    twin of ``ZoneCutCache.put``), the others only consume it.
    A-lookups are memoized by hostname at any glueless depth.
    """

    def __init__(
        self,
        graph: ZoneGraph,
        dead: FrozenSet[IPv4Address],
        cuts: CutStore,
        record: bool = False,
    ) -> None:
        self._graph = graph
        self._dead = dead
        self._cuts = cuts
        self._record = record
        self._a_memo: Dict[
            DnsName, Tuple[Tuple[IPv4Address, ...], Tuple[IPv4Address, ...]]
        ] = {}

    def resolve_a(self, hostname: DnsName) -> Tuple[IPv4Address, ...]:
        """Addresses for ``hostname``; empty on any resolution failure."""
        return self._resolve_a(hostname, 0, {})

    def _deepest_cut(
        self, qname: DnsName
    ) -> Optional[Tuple[List[IPv4Address], List[DnsName]]]:
        """Candidates + glueless hostnames of the deepest cached cut
        strictly above ``qname`` (mirrors ``deepest_enclosing``)."""
        for ancestor in qname.ancestors(include_self=False):
            if len(ancestor) == 0:
                break  # the root is served by hints, never a cut
            cut = self._cuts.get(ancestor)
            if cut is None:
                continue
            hostnames, glue = cut
            candidates = [
                address
                for hostname in hostnames
                for address in glue.get(hostname, ())
            ]
            glueless = [h for h in hostnames if h not in glue]
            return candidates, glueless
        return None

    def resolve(self, qname: DnsName, qtype: str) -> StaticResolution:
        attempted: Dict[IPv4Address, None] = {}
        status = "failed"
        cut = self._deepest_cut(qname)
        if cut is not None:
            candidates, glueless = cut
            status = self._resolve_from(
                candidates, glueless, qname, qtype, attempted, 0
            )
        if status == "failed":
            # The live resolver invalidates the cut and re-walks cold.
            status = self._resolve_from(
                list(self._graph.roots), [], qname, qtype, attempted, 0
            )
        return StaticResolution(status, tuple(sorted(attempted)))

    def resolve_cold(self, qname: DnsName, qtype: str) -> StaticResolution:
        """Resolution with no cached cut — what the live run does when
        its SRTT-ordered warm phase happened never to process (or to
        have invalidated) the delegation the cut-aware path starts at.
        Predictions take the union of both variants, since which one
        the live resolver lives is order-dependent."""
        attempted: Dict[IPv4Address, None] = {}
        status = self._resolve_from(
            list(self._graph.roots), [], qname, qtype, attempted, 0
        )
        return StaticResolution(status, tuple(sorted(attempted)))

    def _resolve_from(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        qtype: str,
        attempted: Dict[IPv4Address, None],
        cname_hops: int,
    ) -> str:
        for _ in range(_MAX_REFERRALS):
            response = self._first_useful(
                candidates, glueless, qname, qtype, attempted, depth=0
            )
            if response is None:
                return "failed"
            if response.rcode == Rcode.NXDOMAIN:
                return "nxdomain"
            if response.aa and response.answers:
                if response.answer_rrset(qtype) is not None:
                    return "ok"
                cname = response.answer_rrset(RRType.CNAME)
                if cname is not None:
                    if cname_hops >= _MAX_CNAME_HOPS:
                        return "failed"
                    return self._resolve_from(
                        list(self._graph.roots),
                        [],
                        cname.rdatas[-1].target,
                        qtype,
                        attempted,
                        cname_hops + 1,
                    )
                return "nodata"
            if response.aa:
                return "nodata"
            if response.is_referral and not response.is_upward_referral:
                hostnames, glue = self._take_referral(response)
                candidates = [
                    address
                    for addresses in glue.values()
                    for address in addresses
                ]
                glueless = [h for h in hostnames if h not in glue]
                continue
            return "failed"
        return "failed"

    def _take_referral(
        self, response: Message
    ) -> Tuple[Tuple[DnsName, ...], Dict[DnsName, Tuple[IPv4Address, ...]]]:
        """Split a referral and, when recording, cache it as a cut —
        the static twin of the live ``_zone_cuts.put`` on every
        referral processed."""
        hostnames, glue = _referral_parts(response)
        if self._record:
            delegation = response.authority_rrset(RRType.NS)
            assert delegation is not None
            self._cuts[delegation.name] = (hostnames, glue)
        return hostnames, glue

    def _first_useful(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        qtype: str,
        attempted: Dict[IPv4Address, None],
        depth: int,
    ) -> Optional[Message]:
        """First response worth acting on, in candidate order; glueless
        hostnames are resolved lazily only once addresses run out."""
        queue = list(candidates)
        pending = list(glueless)
        useful: Optional[Message] = None
        while queue or pending:
            if not queue:
                if useful is not None:
                    break
                hostname = pending.pop(0)
                queue.extend(self._resolve_a(hostname, depth + 1, attempted))
                continue
            address = queue.pop(0)
            if useful is not None and not self._record:
                break
            attempted[address] = None
            if address in self._dead:
                continue  # the fault window plays the role of a timeout
            response = self._graph.query(address, qname, qtype)
            if response is None:
                continue
            if response.rcode in (Rcode.REFUSED, Rcode.SERVFAIL):
                continue
            if response.is_upward_referral:
                continue
            if not (response.answers or response.aa or response.is_referral):
                continue  # lame: not authoritative, nothing useful
            if self._record:
                # The live resolver stops at its first useful response,
                # but *which* candidate that is depends on SRTT order.
                # Recording referrals from every candidate makes the
                # static cut store a superset of any live ordering; the
                # cold-resolution variant covers the none-cached case.
                if response.is_referral and not response.is_upward_referral:
                    self._take_referral(response)
                if useful is None:
                    useful = response
                continue
            return response
        return useful

    def _resolve_a(
        self,
        hostname: DnsName,
        depth: int,
        attempted: Dict[IPv4Address, None],
    ) -> Tuple[IPv4Address, ...]:
        memo = self._a_memo.get(hostname)
        if memo is not None:
            addresses, walked = memo
            for address in walked:
                attempted[address] = None
            return addresses
        walk: Dict[IPv4Address, None] = {}
        addresses = self._resolve_addresses(hostname, depth, 0, walk)
        self._a_memo[hostname] = (addresses, tuple(walk))
        for address in walk:
            attempted[address] = None
        return addresses

    def _resolve_addresses(
        self,
        qname: DnsName,
        depth: int,
        cname_hops: int,
        attempted: Dict[IPv4Address, None],
    ) -> Tuple[IPv4Address, ...]:
        if depth > _MAX_GLUELESS_DEPTH or cname_hops > _MAX_CNAME_HOPS:
            return ()
        # Glueless sub-resolutions go through the same cached-cut fast
        # path as the main walk (they are recursive _resolve_inner
        # calls in the live resolver), with the same cold fallback.
        cut = self._deepest_cut(qname)
        if cut is not None:
            candidates, glueless = cut
            found = self._addresses_from(
                list(candidates), list(glueless), qname, depth,
                cname_hops, attempted,
            )
            if found:
                return found
        return self._addresses_from(
            list(self._graph.roots), [], qname, depth, cname_hops,
            attempted,
        )

    def _addresses_from(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        depth: int,
        cname_hops: int,
        attempted: Dict[IPv4Address, None],
    ) -> Tuple[IPv4Address, ...]:
        for _ in range(_MAX_REFERRALS):
            response = self._first_useful(
                candidates, glueless, qname, RRType.A, attempted, depth
            )
            if response is None:
                return ()
            if response.rcode == Rcode.NXDOMAIN:
                return ()
            if response.aa and response.answers:
                answer = response.answer_rrset(RRType.A)
                if answer is not None:
                    found = []
                    for rdata in answer.rdatas:
                        assert isinstance(rdata, A)
                        found.append(rdata.address)
                    return tuple(found)
                cname = response.answer_rrset(RRType.CNAME)
                if cname is not None:
                    return self._resolve_addresses(
                        cname.rdatas[-1].target,
                        depth,
                        cname_hops + 1,
                        attempted,
                    )
                return ()
            if response.aa:
                return ()  # authoritative NODATA
            if response.is_referral and not response.is_upward_referral:
                hostnames, glue = self._take_referral(response)
                candidates = [
                    address
                    for addresses in glue.values()
                    for address in addresses
                ]
                glueless = [h for h in hostnames if h not in glue]
                continue
            return ()
        return ()
