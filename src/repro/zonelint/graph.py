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
from typing import Dict, List, Optional, Tuple

from ..dns.message import Message, Rcode, make_query
from ..dns.name import DnsName
from ..dns.rdata import A, NS, RRType, SOA
from ..dns.server import AuthoritativeServer
from ..dns.zone import Zone
from ..inet.address import IPv4Address
from ..net.network import Network
from .smells import StaticOutcome, StaticStatus

__all__ = ["ZoneGraph", "StaticWalk"]

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
        self._roots = tuple(root_addresses)
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
        self._resolve_cache: Dict[DnsName, Tuple[IPv4Address, ...]] = {}

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
    # TTL / SOA introspection (consumed by repro.servelint)
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

    def soa_minimum(self, qname: DnsName) -> Optional[int]:
        """RFC 2308 negative-TTL source for names under ``qname``'s
        enclosing zone: min(SOA minimum field, SOA RRset TTL)."""
        zone = self.enclosing_zone(qname)
        if zone is None:
            return None
        rrset = zone.get(zone.origin, RRType.SOA)
        if rrset is None or not rrset.rdatas:
            return None
        record = rrset.rdatas[0]
        assert isinstance(record, SOA)
        return min(int(record.minimum), rrset.ttl)

    def delegation_ttl(self, domain: DnsName) -> Optional[int]:
        """TTL a referral for ``domain`` would carry: min of the parent
        NS RRset TTL and its glue TTLs, mirroring the live resolver's
        zone-cut insertion (``_referral_targets``)."""
        for origin in domain.ancestors(include_self=False):
            zone = self.zones.get(origin)
            if zone is None:
                continue
            rrset = zone.get(domain, RRType.NS)
            if rrset is None:
                continue
            ttl = rrset.ttl
            for rdata in rrset.rdatas:
                assert isinstance(rdata, NS)
                glue = zone.get(rdata.nsdname, RRType.A)
                if glue is not None:
                    ttl = min(ttl, glue.ttl)
            return ttl
        return None

    # ------------------------------------------------------------------
    # Address resolution (mirrors repro.dns.resolver)
    # ------------------------------------------------------------------
    def resolve_a(self, hostname: DnsName) -> Tuple[IPv4Address, ...]:
        """Addresses the iterative resolver would find for ``hostname``
        (empty on any resolution failure), memoized."""
        cached = self._resolve_cache.get(hostname)
        if cached is None:
            cached = self._resolve(hostname, depth=0, cname_hops=0)
            self._resolve_cache[hostname] = cached
        return cached

    def _resolve(
        self, qname: DnsName, depth: int, cname_hops: int
    ) -> Tuple[IPv4Address, ...]:
        if depth > _MAX_GLUELESS_DEPTH or cname_hops > _MAX_CNAME_HOPS:
            return ()
        candidates: List[IPv4Address] = list(self._roots)
        glueless: List[DnsName] = []
        for _ in range(_MAX_REFERRALS):
            response = self._first_useful(
                candidates, glueless, qname, RRType.A, depth
            )
            if response is None:
                return ()
            if response.rcode == Rcode.NXDOMAIN:
                return ()
            if response.aa and response.answers:
                answer = response.answer_rrset(RRType.A)
                if answer is not None:
                    addresses = []
                    for rdata in answer.rdatas:
                        assert isinstance(rdata, A)
                        addresses.append(rdata.address)
                    return tuple(addresses)
                cname = response.answer_rrset(RRType.CNAME)
                if cname is not None:
                    target = cname.rdatas[-1].target
                    return self._resolve(target, depth, cname_hops + 1)
                return ()
            if response.aa:
                return ()  # authoritative NODATA
            if response.is_referral and not response.is_upward_referral:
                hostnames, glue = _referral_parts(response)
                candidates = [
                    address
                    for addresses in glue.values()
                    for address in addresses
                ]
                glueless = [h for h in hostnames if h not in glue]
                continue
            return ()  # non-authoritative noise: no servers left to ask
        return ()

    def _first_useful(
        self,
        candidates: List[IPv4Address],
        glueless: List[DnsName],
        qname: DnsName,
        qtype: str,
        depth: int,
        trace: Optional[List[IPv4Address]] = None,
    ) -> Optional[Message]:
        """First response worth acting on, in candidate order; glueless
        hostnames are resolved lazily only once addresses run out."""
        queue = list(candidates)
        pending = list(glueless)
        while queue or pending:
            if not queue:
                hostname = pending.pop(0)
                queue.extend(self._resolve(hostname, depth + 1, 0))
                continue
            address = queue.pop(0)
            if trace is not None:
                trace.append(address)
            response = self.query(address, qname, qtype)
            if response is None:
                continue
            if response.rcode in (Rcode.REFUSED, Rcode.SERVFAIL):
                continue
            if response.is_upward_referral:
                continue
            if not (response.answers or response.aa or response.is_referral):
                continue  # lame: not authoritative, nothing useful
            return response
        return None

    # ------------------------------------------------------------------
    # Parent walk (mirrors repro.core.probe._walk_from_task)
    # ------------------------------------------------------------------
    def walk(self, domain: DnsName) -> StaticWalk:
        """Descend from the roots to the deepest referral for
        ``domain``, exactly as the active walk does."""
        queried: List[IPv4Address] = []
        candidates: List[IPv4Address] = list(self._roots)
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
