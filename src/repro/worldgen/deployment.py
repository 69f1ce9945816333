"""Constructing nameserver deployments.

This module turns sampled *intent* ("two nameservers, hosted on
Cloudflare, spanning multiple /24s") into concrete infrastructure:
hostnames, addresses drawn from the right AS blocks, server objects on
the network, and zones for provider nameserver names to resolve under.

Address-diversity layouts (:class:`repro.worldgen.providers.NsLayout`)
are constructed, not hoped for: a ``single_ip`` set really does resolve
every hostname to one address (the shared-pair pattern the paper traces
to one country's estate), ``multi_asn`` really does straddle ASes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..dns.rdata import A, NS, RRType, SOA
from ..dns.server import AuthoritativeServer
from ..dns.zone import Zone
from ..geo.asn import AutonomousSystem
from ..geo.geoip import GeoIPDatabase
from ..inet.address import BlockAllocator, IPv4Address, IPv4Prefix
from ..net.network import Network
from .providers import NsLayout, ProviderSpec

__all__ = ["NsHost", "NsSet", "AddressPlanner", "ProviderInstance", "PrivateHoster"]


@dataclass(frozen=True)
class NsHost:
    """One nameserver: hostname plus the address it resolves to."""

    hostname: DnsName
    address: IPv4Address


@dataclass(frozen=True)
class NsSet:
    """A reusable set of nameservers with a known diversity layout."""

    hosts: Tuple[NsHost, ...]
    layout: str

    @property
    def hostnames(self) -> Tuple[DnsName, ...]:
        return tuple(h.hostname for h in self.hosts)

    @property
    def addresses(self) -> Tuple[IPv4Address, ...]:
        return tuple(h.address for h in self.hosts)


class AddressPlanner:
    """Hands out addresses satisfying a diversity layout.

    Owns a set of AS-backed /24 pools and walks them so that consecutive
    requests spread load the way real allocations do.  Each AS gets its
    own allocator; /24s are carved on demand.
    """

    def __init__(
        self,
        geoip: GeoIPDatabase,
        systems: Sequence[Tuple[AutonomousSystem, BlockAllocator]],
        addresses_per_24: int = 8,
        refill=None,
    ) -> None:
        if not systems:
            raise ValueError("at least one AS block is required")
        self._geoip = geoip
        self._systems = list(systems)
        self._per_24 = addresses_per_24
        # Called with an AutonomousSystem when its block runs dry; must
        # return a fresh BlockAllocator (lets big worlds grow blocks on
        # demand instead of pre-sizing the address plan).
        self._refill = refill
        # Per AS: the /24 currently being filled and the next host index.
        self._open_24: Dict[int, Tuple[IPv4Prefix, int]] = {}

    @property
    def asn_count(self) -> int:
        return len(self._systems)

    def _fresh_24(self, system_index: int) -> IPv4Prefix:
        autonomous_system, allocator = self._systems[system_index]
        try:
            prefix = allocator.allocate(24)
        except RuntimeError:
            if self._refill is None:
                raise
            allocator = self._refill(autonomous_system)
            self._systems[system_index] = (autonomous_system, allocator)
            prefix = allocator.allocate(24)
        self._geoip.add_block(prefix, autonomous_system)
        return prefix

    def next_address(self, system_index: int, fresh_prefix: bool = False) -> IPv4Address:
        """Next address within an AS; ``fresh_prefix`` forces a new /24."""
        system_index %= len(self._systems)
        asn = self._systems[system_index][0].asn
        state = self._open_24.get(asn)
        if state is None or fresh_prefix or state[1] >= self._per_24:
            prefix = self._fresh_24(system_index)
            index = 0
        else:
            prefix, index = state
        # Skip .0 for conventional hygiene.
        address = prefix.nth(index + 1)
        self._open_24[asn] = (prefix, index + 1)
        return address

    def plan(self, count: int, layout: str) -> Tuple[IPv4Address, ...]:
        """Addresses for ``count`` nameservers under a layout."""
        if count < 1:
            raise ValueError("need at least one nameserver")
        if layout == NsLayout.SINGLE_IP:
            address = self.next_address(0)
            return (address,) * count
        if layout == NsLayout.SINGLE_24:
            prefix = self._fresh_24(0)
            return tuple(prefix.nth(i + 1) for i in range(count))
        if layout == NsLayout.MULTI_24:
            return tuple(
                self.next_address(0, fresh_prefix=True) for _ in range(count)
            )
        if layout == NsLayout.MULTI_ASN:
            if len(self._systems) < 2:
                # Degenerate world (one AS): best effort is multi-/24.
                return self.plan(count, NsLayout.MULTI_24)
            return tuple(
                self.next_address(i % len(self._systems), fresh_prefix=True)
                for i in range(count)
            )
        raise ValueError(f"unknown layout: {layout!r}")


def _soa_for(origin: DnsName, mname: DnsName, rname: Optional[DnsName] = None) -> SOA:
    if rname is None:
        rname = DnsName.parse("hostmaster." + str(origin))
    return SOA(mname=mname, rname=rname)


class ProviderInstance:
    """A provider's live footprint: base zones, server fleet, NS pools.

    The pool is a list of :class:`NsSet` per layout category; customers
    draw sets (with reuse — shared hosting really does share NS pairs
    across thousands of zones).  Every pool hostname is backed by an
    :class:`AuthoritativeServer` attached to the network, onto which
    customer zones get loaded.
    """

    def __init__(
        self,
        spec: ProviderSpec,
        planner: AddressPlanner,
        network: Network,
        pool_target: int,
        rng: random.Random,
    ) -> None:
        self.spec = spec
        self._planner = planner
        self._network = network
        self._rng = rng
        self._pool: Dict[str, List[NsSet]] = {layout: [] for layout in NsLayout.ALL}
        self._pool_target = max(1, pool_target)
        self._servers: Dict[IPv4Address, AuthoritativeServer] = {}
        self._next_set_index = 1
        self.base_zones: Dict[DnsName, Zone] = {}
        self._base_zone_addresses: Dict[DnsName, IPv4Address] = {}
        self._build_base_zones()

    # ------------------------------------------------------------------
    # Base zones: the zones provider NS hostnames resolve under.
    # ------------------------------------------------------------------
    def _build_base_zones(self) -> None:
        probe_set = self.spec.make_ns_set(0)
        base_domains = sorted(
            {self._base_domain_of(DnsName.parse(h)) for h in probe_set}
        )
        for origin in base_domains:
            zone = Zone(origin)
            self_ns = origin.prepend("ns1")
            address = self._planner.next_address(0)
            zone.add_records(origin, NS(self_ns))
            zone.add_records(
                origin,
                _soa_for(
                    origin,
                    mname=self_ns,
                    rname=(
                        DnsName.parse(self.spec.soa_rname)
                        if self.spec.soa_rname
                        else None
                    ),
                ),
            )
            zone.add_records(self_ns, A(address))
            server = AuthoritativeServer(self_ns)
            server.load_zone(zone)
            self._network.attach(address, server)
            self._servers[address] = server
            self.base_zones[origin] = zone
            self._base_zone_addresses[origin] = address

    @staticmethod
    def _base_domain_of(hostname: DnsName) -> DnsName:
        """Registered-ish base domain of a provider hostname.

        Handles two-label public suffixes (co.uk, com.br) the same way
        the paper's grouping does.
        """
        two_level_suffixes = {"co.uk", "com.br", "net.br"}
        labels = hostname.labels
        tail2 = ".".join(labels[-2:])
        if tail2 in two_level_suffixes:
            return DnsName(labels[-3:])
        return DnsName(labels[-2:])

    def base_zone_glue(self) -> Dict[DnsName, Tuple[DnsName, IPv4Address]]:
        """origin → (self NS hostname, address), for TLD delegation."""
        glue = {}
        for origin, zone in self.base_zones.items():
            apex = zone.apex_ns
            assert apex is not None
            ns_host = apex.rdatas[0].nsdname  # type: ignore[union-attr]
            glue[origin] = (ns_host, self._base_zone_addresses[origin])
        return glue

    # ------------------------------------------------------------------
    # NS pool
    # ------------------------------------------------------------------
    def _create_set(self, layout: str) -> NsSet:
        hostnames = [
            DnsName.parse(h) for h in self.spec.make_ns_set(self._next_set_index)
        ]
        self._next_set_index += 1
        addresses = self._planner.plan(len(hostnames), layout)
        hosts = []
        for hostname, address in zip(hostnames, addresses):
            base = self._base_domain_of(hostname)
            zone = self.base_zones.get(base)
            if zone is not None:
                existing = zone.get(hostname, RRType.A)
                if existing is None:
                    zone.add_records(hostname, A(address))
                else:
                    # A template without enough entropy produced this
                    # hostname before: keep hostname→address stable and
                    # reuse the already-published address.
                    address = existing.rdatas[0].address  # type: ignore[union-attr]
            if not self._network.is_attached(address):
                server = AuthoritativeServer(hostname)
                self._network.attach(address, server)
                self._servers[address] = server
            hosts.append(NsHost(hostname, address))
        ns_set = NsSet(tuple(hosts), layout)
        self._pool[layout].append(ns_set)
        return ns_set

    def draw_set(self, layout: str) -> NsSet:
        """A pool set with the requested layout (created on demand)."""
        pool = self._pool[layout]
        if len(pool) < self._pool_target:
            return self._create_set(layout)
        return pool[self._rng.randrange(len(pool))]

    # ------------------------------------------------------------------
    # Customer zones
    # ------------------------------------------------------------------
    def host_zone(self, zone: Zone, ns_set: NsSet) -> None:
        """Load a customer zone on every server behind an NS set."""
        seen = set()
        for host in ns_set.hosts:
            if host.address in seen:
                continue
            seen.add(host.address)
            server = self._servers[host.address]
            if not server.serves(zone.origin):
                server.load_zone(zone)

    def server_at(self, address: IPv4Address) -> Optional[AuthoritativeServer]:
        return self._servers.get(address)


class PrivateHoster:
    """Constructs self-hosted (government-run) deployments.

    "Private" follows the paper's definition: the nameserver hostnames
    live inside the country's own government namespace.  Addresses come
    from the government's AS (plus a national ISP AS for multi-AS
    layouts).
    """

    def __init__(
        self,
        planner: AddressPlanner,
        network: Network,
        rng: random.Random,
    ) -> None:
        self._planner = planner
        self._network = network
        self._rng = rng
        self._servers: Dict[IPv4Address, AuthoritativeServer] = {}
        self._shared_sets: List[NsSet] = []

    def build_set(
        self,
        owner: DnsName,
        count: int,
        layout: str,
        under: Optional[DnsName] = None,
    ) -> NsSet:
        """Create nameservers named ``ns<i>.<owner>`` (or under a central
        government host domain) with addresses satisfying ``layout``."""
        base = under if under is not None else owner
        addresses = self._planner.plan(count, layout)
        hosts = []
        for index, address in enumerate(addresses, start=1):
            hostname = base.prepend(f"ns{index}")
            if not self._network.is_attached(address):
                server = AuthoritativeServer(hostname)
                self._network.attach(address, server)
                self._servers[address] = server
            hosts.append(NsHost(hostname, address))
        return NsSet(tuple(hosts), layout)

    def shared_set(self, central: DnsName, count: int, layout: str) -> NsSet:
        """A government-central NS set reused by many domains (the
        single-IP shared-pair phenomenon concentrates here)."""
        for candidate in self._shared_sets:
            if candidate.layout == layout and len(candidate.hosts) == count:
                if candidate.hosts[0].hostname.is_subdomain_of(central):
                    return candidate
        suffix_label = f"c{len(self._shared_sets)}"
        addresses = self._planner.plan(count, layout)
        hosts = []
        for index, address in enumerate(addresses, start=1):
            hostname = central.prepend(suffix_label).prepend(f"ns{index}")
            if not self._network.is_attached(address):
                server = AuthoritativeServer(hostname)
                self._network.attach(address, server)
                self._servers[address] = server
            hosts.append(NsHost(hostname, address))
        ns_set = NsSet(tuple(hosts), layout)
        self._shared_sets.append(ns_set)
        return ns_set

    def host_zone(self, zone: Zone, ns_set: NsSet) -> None:
        seen = set()
        for host in ns_set.hosts:
            if host.address in seen:
                continue
            seen.add(host.address)
            server = self._servers.get(host.address)
            if server is not None and not server.serves(zone.origin):
                server.load_zone(zone)

    def server_at(self, address: IPv4Address) -> Optional[AuthoritativeServer]:
        return self._servers.get(address)
