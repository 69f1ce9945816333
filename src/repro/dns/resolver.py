"""An iterative resolver over the simulated network.

The probe pipeline needs two capabilities:

1. **Direct queries** to a specific server address (steps 1, 3, and the
   per-IP sweep of the paper's Figure 1) — :meth:`Resolver.query_at`.
2. **Full iterative resolution** from the root (finding parent-zone
   servers, and turning nameserver hostnames into IPv4 addresses) —
   :meth:`Resolver.resolve`.

A failed resolution keeps its dominant per-server outcome
(:attr:`Resolution.failure_reason`), so callers can tell timeout from
refusal from lame referral without re-probing.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..inet.address import IPv4Address
from ..inet.transport import QueryTimeout, QueryTransport
from .cache import ResolverCache, ZoneCutCache
from .errors import NoNameservers, ResolutionLoop
from .message import Message, Rcode, make_query
from .name import DnsName
from .rdata import A, NS, RRType
from .rrset import RRset

__all__ = ["Resolver", "Resolution"]

_MAX_REFERRALS = 24
_MAX_CNAME_HOPS = 8
_MAX_GLUELESS_DEPTH = 4

# When every candidate server fails, the exhaustion is summarized by the
# most *diagnostic* per-server outcome seen: an explicit SERVFAIL beats
# a refusal beats structural lameness beats plain silence.
_FAILURE_PRIORITY = ("servfail", "refused", "upward", "lame", "timeout")


def _dominant_failure(outcomes: Sequence[str]) -> str:
    for reason in _FAILURE_PRIORITY:
        if reason in outcomes:
            return reason
    return "no_servers"


@dataclass(frozen=True)
class Resolution:
    """Final state of an iterative resolution.

    ``failure_reason`` (only on ``"servfail"``) preserves the dominant
    upstream failure — ``"servfail"``, ``"refused"``, ``"upward"``,
    ``"lame"``, ``"timeout"``, or ``"loop"`` — so callers can tell a
    SERVFAIL-ing delegation from a silent one.  ``soa`` (only on
    negative statuses) is the authority SOA from the negative response,
    whose minimum field keys the RFC 2308 negative TTL.
    """

    status: str  # "ok" | "nxdomain" | "nodata" | "servfail"
    qname: DnsName
    qtype: str
    answers: Tuple[RRset, ...] = ()
    failure_reason: Optional[str] = None
    soa: Optional[RRset] = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def addresses(self) -> Tuple[IPv4Address, ...]:
        """All A-record addresses in the answers, in order."""
        found = []
        for rrset in self.answers:
            if rrset.rrtype == RRType.A:
                for rdata in rrset.rdatas:
                    assert isinstance(rdata, A)
                    found.append(rdata.address)
        return tuple(found)


class Resolver:
    """Iterative resolver bound to a network and a set of root hints."""

    def __init__(
        self,
        network: QueryTransport,
        root_addresses: Sequence[IPv4Address],
        cache: Optional[ResolverCache] = None,
        source: Optional[IPv4Address] = None,
        timeout: float = 3.0,
        retries: int = 1,
        zone_cuts: Optional[ZoneCutCache] = None,
    ) -> None:
        if not root_addresses:
            raise ValueError("at least one root hint is required")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        self._network = network
        self._roots = tuple(root_addresses)
        self._cache = cache
        self._source = source
        self._timeout = timeout
        self._retries = retries
        self._zone_cuts = zone_cuts
        # Authority SOA from the most recent negative response in the
        # current resolution (keys the RFC 2308 negative TTL upstream).
        self._negative_soa: Optional[RRset] = None

    @property
    def roots(self) -> Tuple[IPv4Address, ...]:
        """The configured root hints (the walk's starting candidates)."""
        return self._roots

    # ------------------------------------------------------------------
    # Direct queries
    # ------------------------------------------------------------------
    def query_at(
        self,
        server: IPv4Address,
        qname: DnsName,
        qtype: str,
        retries: Optional[int] = None,
    ) -> Optional[Message]:
        """Send one query (with immediate retransmissions) to a specific
        address.

        Returns the response message, or ``None`` after all attempts time
        out — the caller decides what a silent server *means* (the heart
        of the defective-delegation analysis).
        """
        attempts = 1 + (retries if retries is not None else self._retries)
        query = make_query(qname, qtype)
        for _ in range(attempts):
            try:
                return self._network.query(
                    server, query, source=self._source, timeout=self._timeout
                )
            except QueryTimeout:
                continue
        return None

    # ------------------------------------------------------------------
    # Iterative resolution
    # ------------------------------------------------------------------
    def resolve(self, qname: DnsName, qtype: str) -> Resolution:
        """Resolve from the roots, following referrals and aliases."""
        self._negative_soa = None
        try:
            answers, status = self._resolve_inner(qname, qtype, depth=0)
        except NoNameservers as exc:
            return Resolution(
                status="servfail",
                qname=qname,
                qtype=qtype,
                failure_reason=exc.reason,
            )
        except ResolutionLoop:
            return Resolution(
                status="servfail",
                qname=qname,
                qtype=qtype,
                failure_reason="loop",
            )
        return Resolution(
            status=status,
            qname=qname,
            qtype=qtype,
            answers=tuple(answers),
            soa=(
                self._negative_soa
                if status in ("nxdomain", "nodata")
                else None
            ),
        )

    def resolve_address(self, hostname: DnsName) -> Tuple[IPv4Address, ...]:
        """Resolve a hostname to IPv4 addresses (empty tuple on failure)."""
        resolution = self.resolve(hostname, RRType.A)
        return resolution.addresses() if resolution.ok else ()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_inner(
        self,
        qname: DnsName,
        qtype: str,
        depth: int,
        cname_depth: int = 0,
    ) -> Tuple[List[RRset], str]:
        if depth > _MAX_GLUELESS_DEPTH:
            raise ResolutionLoop(f"glueless chain too deep resolving {qname}")
        if cname_depth > _MAX_CNAME_HOPS:
            raise ResolutionLoop(f"CNAME chain too long at {qname}")

        if self._cache is not None:
            found = self._cache.lookup(qname, qtype)
            if found.state == "fresh" and found.rrset is not None:
                return [found.rrset], "ok"
            if found.state == "negative":
                return [], "nodata" if found.kind == "nodata" else "nxdomain"

        if self._zone_cuts is not None:
            cut = self._zone_cuts.deepest_enclosing(qname)
            if cut is not None:
                # Start at the deepest cached delegation instead of the
                # root; if its servers turn out to be dead or stale,
                # fall back to a full cold walk so caching can never
                # produce a failure the cold path would not.
                try:
                    return self._resolve_from(
                        list(cut.addresses()),
                        list(cut.glueless()),
                        qname,
                        qtype,
                        depth,
                        cname_depth,
                    )
                except (NoNameservers, ResolutionLoop):
                    self._zone_cuts.invalidate(cut.name)

        return self._resolve_from(
            list(self._roots), [], qname, qtype, depth, cname_depth
        )

    def _resolve_from(
        self,
        candidates: List[IPv4Address],
        unresolved_ns: List[DnsName],
        qname: DnsName,
        qtype: str,
        depth: int,
        cname_depth: int,
    ) -> Tuple[List[RRset], str]:
        """Follow referrals from the given starting servers."""
        answers: List[RRset] = []

        for _ in range(_MAX_REFERRALS):
            response = self._try_servers(
                candidates, unresolved_ns, qname, qtype, depth
            )

            if response.rcode == Rcode.NXDOMAIN:
                self._negative_soa = response.authority_rrset(RRType.SOA)
                if self._cache is not None:
                    self._cache.put_negative(qname, qtype)
                return answers, "nxdomain"

            if response.aa and response.answers:
                answer = response.answer_rrset(qtype)
                cname = response.answer_rrset(RRType.CNAME)
                if answer is not None:
                    answers.extend(response.answers)
                    if self._cache is not None:
                        self._cache.put(answer)
                    return answers, "ok"
                if cname is not None and qtype != RRType.CNAME:
                    # Thread the alias-chain length through the
                    # recursion: a looping chain must exhaust the hop
                    # budget rather than the stack.
                    answers.extend(response.answers)
                    target = cname.rdatas[-1].target  # type: ignore[union-attr]
                    chased, status = self._resolve_inner(
                        target,
                        qtype,
                        depth,
                        cname_depth=cname_depth + 1 + len(response.answers) // 2,
                    )
                    answers.extend(chased)
                    return answers, status
                self._negative_soa = response.authority_rrset(RRType.SOA)
                return answers, "nodata"

            if response.aa:
                self._negative_soa = response.authority_rrset(RRType.SOA)
                return answers, "nodata"

            if response.is_referral and not response.is_upward_referral:
                candidates, unresolved_ns = self._referral_targets(response)
                continue

            raise NoNameservers(f"no usable response for {qname} {qtype}")

        raise ResolutionLoop(f"referral chain too long for {qname}")

    def _referral_targets(
        self, response: Message
    ) -> Tuple[List[IPv4Address], List[DnsName]]:
        """Split a referral into glued addresses and glueless NS names.

        Every referral seen is also recorded in the shared zone-cut
        cache (when one is wired in), so later resolutions and probe
        walks can start at this delegation instead of the root.
        """
        delegation = None
        for rrset in response.authority:
            if rrset.rrtype == RRType.NS:
                delegation = rrset
                break
        assert delegation is not None
        addresses: List[IPv4Address] = []
        glueless: List[DnsName] = []
        hostnames: List[DnsName] = []
        glue_map: Dict[DnsName, Tuple[IPv4Address, ...]] = {}
        ttl = delegation.ttl
        for rdata in delegation.rdatas:
            assert isinstance(rdata, NS)
            hostnames.append(rdata.nsdname)
            glue = response.glue_for(rdata.nsdname)
            if glue:
                glued: List[IPv4Address] = []
                for glue_set in glue:
                    ttl = min(ttl, glue_set.ttl)
                    for glue_rdata in glue_set.rdatas:
                        assert isinstance(glue_rdata, A)
                        glued.append(glue_rdata.address)
                addresses.extend(glued)
                glue_map[rdata.nsdname] = tuple(glued)
            else:
                glueless.append(rdata.nsdname)
        if self._zone_cuts is not None:
            self._zone_cuts.put(
                delegation.name, tuple(hostnames), glue_map, ttl
            )
        return addresses, glueless

    def _try_servers(
        self,
        candidates: List[IPv4Address],
        unresolved_ns: List[DnsName],
        qname: DnsName,
        qtype: str,
        depth: int,
    ) -> Message:
        """Query candidates in order until one answers usefully.

        Glueless nameservers are resolved lazily, only when every glued
        address has failed — matching resolver practice and keeping
        probe traffic down.
        """
        pending_ns = list(unresolved_ns)
        queue = list(candidates)
        failures: List[str] = []
        while queue or pending_ns:
            if not queue:
                hostname = pending_ns.pop(0)
                queue.extend(self._resolve_ns_host(hostname, depth))
                continue
            response, outcome = self._exchange(queue.pop(0), qname, qtype)
            if response is not None:
                return response
            failures.append(outcome)
        raise NoNameservers(
            f"all nameservers failed for {qname} {qtype}",
            reason=_dominant_failure(failures),
        )

    def _resolve_ns_host(
        self, hostname: DnsName, depth: int
    ) -> List[IPv4Address]:
        try:
            rrsets, status = self._resolve_inner(hostname, RRType.A, depth + 1)
        except (NoNameservers, ResolutionLoop):
            return []
        if status != "ok":
            return []
        addresses = []
        for rrset in rrsets:
            if rrset.rrtype == RRType.A:
                for rdata in rrset.rdatas:
                    assert isinstance(rdata, A)
                    addresses.append(rdata.address)
        return addresses

    def _exchange(
        self, server: IPv4Address, qname: DnsName, qtype: str
    ) -> Tuple[Optional[Message], str]:
        """One server's verdict: ``(response, "answer" | "referral")``
        when it answered usefully, else ``(None, outcome)`` with outcome
        ``"timeout"``, ``"refused"``, ``"servfail"``, ``"upward"`` or
        ``"lame"``."""
        response = self.query_at(server, qname, qtype)
        if response is None:
            return None, "timeout"
        rcode = response.rcode
        if rcode == Rcode.REFUSED:
            return None, "refused"
        if rcode == Rcode.SERVFAIL:
            return None, "servfail"
        if response.answers or response.aa:
            return response, "answer"
        if not response.is_referral:
            return None, "lame"
        if response.is_upward_referral:
            return None, "upward"
        return response, "referral"
