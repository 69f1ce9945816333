"""World assembly: a synthetic Internet for the measurement pipeline.

:class:`WorldGenerator` builds, bottom-up, everything the paper's
methodology touches:

1. address space, autonomous systems, GeoIP;
2. the DNS tree: root servers, gTLD and ccTLD registry zones;
3. third-party DNS providers (base zones, server fleets, NS pools) and
   per-country local hosters;
4. per-country government suffix zones, national portals, registry
   policies, whois/archive entries — and the UN Knowledge Base with its
   §III-A pathologies (unresolvable links, MSQ mismatches, one
   ad-parked portal);
5. the 2011-2020 longitudinal history and its PDNS emission;
6. the April-2021 active world: delegations, child zones, and the full
   misconfiguration fault inventory (defective delegations, staleness,
   parent/child inconsistency, dangling registrable nameserver
   domains).

Everything is deterministic in ``config.seed`` and ``config.scale``.
"""

from __future__ import annotations

import gc
import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from ..dns.name import DnsName, ROOT
from ..dns.rdata import A, NS, RRType, SOA
from ..dns.rrset import RRset
from ..dns.server import AuthoritativeServer, MissBehavior
from ..dns.zone import Zone
from ..geo.asn import AsnRegistry
from ..geo.geoip import GeoIPDatabase
from ..inet.address import BlockAllocator, IPv4Address, IPv4Prefix
from ..inet.clock import SimulatedClock, date_to_epoch
from ..net.latency import FixedLatency
from ..net.network import Network
from ..pdns.database import PdnsDatabase
from ..registry.registrar import PriceModel, Registrar
from ..registry.tld import SuffixPolicy, TldPolicy, TldRegistry
from ..registry.whois import ArchiveIndex, WhoisDatabase, WhoisRecord
from .config import WorldConfig
from .countries import (
    AD_PARKED_PORTAL_ISO2,
    MSQ_MISMATCH_ISO2,
    UNRESOLVABLE_PORTAL_ISO2,
    CountryProfile,
    build_profiles,
)
from .deployment import AddressPlanner, NsHost, NsSet, PrivateHoster, ProviderInstance
from .faults import Consistency, DefectMode, FaultPlan, FaultSampler
from .history import (
    PROBE_EPOCH,
    STYLE_LOCAL,
    STYLE_PRIVATE,
    STYLE_PROVIDER,
    DomainHistory,
    HistoryBuilder,
    HistoryResult,
)
from .providers import PROVIDERS, NsLayout, ProviderSpec

__all__ = ["DomainTruth", "KnowledgeBaseEntry", "World", "WorldGenerator"]

_GTLDS = ("com", "net", "org", "info")

# Open second-level public suffixes under ccTLDs (commercial namespaces
# that providers like AWS and Hostgator register names under).
_PUBLIC_SECOND_LEVEL = {
    "uk": ("co.uk",),
    "br": ("com.br", "net.br"),
}


class TargetStatus:
    """Probe-time disposition of a target domain."""

    ALIVE = "alive"        # delegated, parent reachable
    REMOVED = "removed"    # parent answers, delegation gone (empty)
    ORPHANED = "orphaned"  # parent zone's own servers are dead


@dataclass
class DomainTruth:
    """Ground truth for one probe target (for validating measurements)."""

    name: DnsName
    iso2: str
    level: int
    parent: DnsName
    status: str
    single_ns: bool = False
    style: Optional[str] = None
    provider_key: Optional[str] = None
    layout: Optional[str] = None
    parent_ns: Tuple[DnsName, ...] = ()
    child_ns: Tuple[DnsName, ...] = ()
    plan: Optional[FaultPlan] = None
    dangling_ns_domains: Tuple[DnsName, ...] = ()


@dataclass(frozen=True)
class KnowledgeBaseEntry:
    """One country's row in the UN e-government Knowledge Base."""

    iso2: str
    portal_url: str
    msq_fqdn: str

    @property
    def portal_fqdn(self) -> str:
        stripped = self.portal_url.split("//", 1)[-1]
        return stripped.split("/", 1)[0]


@dataclass
class World:
    """The generated world: every substrate, wired together."""

    config: WorldConfig
    clock: SimulatedClock
    network: Network
    root_addresses: Tuple[IPv4Address, ...]
    probe_source: IPv4Address
    tld_registry: TldRegistry
    whois: WhoisDatabase
    registrar: Registrar
    archive: ArchiveIndex
    asn_registry: AsnRegistry
    geoip: GeoIPDatabase
    pdns: PdnsDatabase
    profiles: Dict[str, CountryProfile]
    knowledge_base: Dict[str, KnowledgeBaseEntry]
    history: HistoryResult
    truths: Dict[DnsName, DomainTruth]
    suffix_zones: Dict[str, Zone]
    child_zones: Dict[DnsName, Zone]
    providers: Dict[str, ProviderInstance]
    dangling_map: Dict[DnsName, List[DnsName]] = field(default_factory=dict)
    consistency_dangling: Dict[DnsName, List[DnsName]] = field(default_factory=dict)
    registry_zones: Dict[DnsName, Zone] = field(default_factory=dict)

    def targets(self) -> List[DnsName]:
        """The active-probe target list (the paper's 147k)."""
        return list(self.truths)

    def fault_plans(self) -> Dict[DnsName, FaultPlan]:
        """The applied fault plan per target, as queryable metadata.

        Plans are recorded as *applied*, after any generator fix-ups
        (e.g. consistency-dangling wiring upgrading an EQUAL plan), so
        static analyzers can be checked against what was actually built.
        """
        return {
            name: truth.plan
            for name, truth in self.truths.items()
            if truth.plan is not None
        }


class WorldGenerator:
    """Deterministic builder for :class:`World`."""

    def __init__(self, config: Optional[WorldConfig] = None) -> None:
        self.config = config if config is not None else WorldConfig()
        self._rng = random.Random(self.config.seed)
        self._profiles = build_profiles()
        # Address space for synthetic allocations: 0.0.0.0/2 keeps the
        # probe source and root-server addresses (all above 64.0.0.0)
        # out of reach.
        self._dealer = BlockAllocator(IPv4Prefix(0x00000000, 2))
        self._registry_zones: Dict[DnsName, Zone] = {}
        self._child_zones: Dict[DnsName, Zone] = {}
        self._broken_serial = 50_000
        self._shared_web: Dict[str, IPv4Address] = {}
        self._deferred_provider_glue: List[Tuple[DnsName, DnsName, IPv4Address]] = []
        self._country_dangling_pools: Dict[str, List[DnsName]] = {}

    # ==================================================================
    # Public entry point
    # ==================================================================
    def generate(self) -> World:
        """Build the world with the cycle collector paused (worldgen makes
        no cyclic garbage), then move it to the oldest generation without
        a pass over it, unless that would thaw a caller's open freeze
        (DESIGN.md, "Heap discipline")."""
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            world = self._build()
            if gc.get_freeze_count() == 0:
                gc.freeze()
                gc.unfreeze()
            return world
        finally:
            if gc_was_enabled:
                gc.enable()

    def _build(self) -> World:
        config = self.config
        clock = SimulatedClock(PROBE_EPOCH)
        network = Network(
            clock=clock,
            rng=random.Random(config.seed + 1),
            default_latency=FixedLatency(0.004),
            flaky_share=config.flaky_server_share,
            flaky_loss_rate=config.flaky_loss_rate,
            flaky_seed=config.seed,
        )
        self._network = network
        self._asn_registry = AsnRegistry()
        self._geoip = GeoIPDatabase(self._asn_registry)
        self._tlds = TldRegistry()
        self._whois = WhoisDatabase()
        self._archive = ArchiveIndex()
        self._pdns = PdnsDatabase()
        self._registrar = Registrar(
            self._tlds, self._whois, PriceModel(salt=str(config.seed))
        )
        self._truths: Dict[DnsName, DomainTruth] = {}
        self._dangling_map: Dict[DnsName, List[DnsName]] = {}
        self._consistency_dangling: Dict[DnsName, List[DnsName]] = {}
        self._fault_sampler = FaultSampler(config, random.Random(config.seed + 2))

        self._build_root_and_tlds()
        self._build_providers()
        self._build_local_hosters()
        knowledge_base, suffix_zones = self._build_countries()
        history = self._build_history()
        self._build_active(history, suffix_zones)
        self._inject_consistency_dangling()

        return World(
            config=config,
            clock=clock,
            network=network,
            root_addresses=tuple(
                IPv4Address.parse(a) for a in config.root_addresses
            ),
            probe_source=IPv4Address.parse(config.probe_source),
            tld_registry=self._tlds,
            whois=self._whois,
            registrar=self._registrar,
            archive=self._archive,
            asn_registry=self._asn_registry,
            geoip=self._geoip,
            pdns=self._pdns,
            profiles={p.iso2: p for p in self._profiles},
            knowledge_base=knowledge_base,
            history=history,
            truths=self._truths,
            suffix_zones=suffix_zones,
            child_zones=dict(self._child_zones),
            providers=self._provider_instances,
            dangling_map=self._dangling_map,
            consistency_dangling=self._consistency_dangling,
            registry_zones=dict(self._registry_zones),
        )

    # ==================================================================
    # Shared infrastructure helpers
    # ==================================================================
    def _new_planner(
        self, organizations: Sequence[Tuple[str, str]]
    ) -> AddressPlanner:
        """Planner over freshly allocated ASes: [(org, country), ...]."""
        systems = []
        for org, country in organizations:
            autonomous_system = self._asn_registry.allocate(org, country)
            systems.append((autonomous_system, self._dealer.allocate(16)))
        pairs = [
            (system, BlockAllocator(block)) for system, block in systems
        ]
        return AddressPlanner(
            self._geoip,
            pairs,
            addresses_per_24=self.config.addresses_per_24,
            refill=lambda autonomous_system: BlockAllocator(
                self._dealer.allocate(16)
            ),
        )

    def _host_registry_zone(
        self,
        origin: DnsName,
        parent: Optional[Zone],
        planner: AddressPlanner,
        ns_count: int = 2,
    ) -> Zone:
        """Create a registry-style zone (root/TLD/suffix) on fresh
        servers, delegated (with glue) from its parent zone."""
        zone = Zone(origin)
        label = "nic" if not origin.is_root else "root-servers"
        hosts: List[NsHost] = []
        for index in range(ns_count):
            if origin.is_root:
                hostname = DnsName.parse(f"{'abc'[index]}.root-servers.net.")
                address = IPv4Address.parse(
                    self.config.root_addresses[index]
                )
            else:
                hostname = origin.prepend(label).prepend(f"ns{index + 1}")
                address = planner.next_address(index, fresh_prefix=True)
            hosts.append(NsHost(hostname, address))
        zone.add_records(origin, *(NS(h.hostname) for h in hosts))
        zone.add_records(
            origin,
            SOA(
                mname=hosts[0].hostname,
                rname=(
                    DnsName.parse("nstld.verisign-grs.com.")
                    if origin.is_root
                    else origin.prepend("hostmaster")
                ),
            ),
        )
        for host in hosts:
            if host.hostname.is_subdomain_of(origin):
                zone.add_records(host.hostname, A(host.address))
            server = AuthoritativeServer(host.hostname)
            server.load_zone(zone)
            self._network.attach(host.address, server)
        if parent is not None:
            parent.add_records(origin, *(NS(h.hostname) for h in hosts))
            for host in hosts:
                if host.hostname.is_subdomain_of(parent.origin):
                    parent.add_records(host.hostname, A(host.address))
        self._registry_zones[origin] = zone
        return zone

    def _build_root_and_tlds(self) -> None:
        infra_planner = self._new_planner(
            [("Registry Infrastructure", "US"), ("Registry Anycast", "US")]
        )
        self._infra_planner = infra_planner
        root = self._host_registry_zone(ROOT, None, infra_planner, ns_count=3)
        self._root_zone = root
        for tld in _GTLDS:
            tld_name = DnsName.parse(tld)
            self._host_registry_zone(tld_name, root, infra_planner)
            # gTLDs need registry entries so the registrar can answer
            # availability questions about expired hoster domains.
            self._tlds.add(
                TldPolicy(
                    tld=tld_name,
                    operator=f"{tld} registry",
                    country="US",
                )
            )

    def _registry_zone_for(self, name: DnsName) -> Optional[Zone]:
        """Longest-match registry zone covering a name: ancestors come
        nearest first, so the first one with a zone is the longest."""
        for ancestor in name.ancestors(include_self=True):
            zone = self._registry_zones.get(ancestor)
            if zone is not None:
                return zone
        return None

    # ==================================================================
    # Providers
    # ==================================================================
    def _build_providers(self) -> None:
        config = self.config
        self._provider_instances: Dict[str, ProviderInstance] = {}
        pool_target = max(4, round(config.provider_pool_sets * max(config.scale, 0.05)))
        for spec in PROVIDERS:
            planner = self._new_planner(
                [(spec.display, spec.home_country)] * spec.asn_count
            )
            instance = ProviderInstance(
                spec,
                planner,
                self._network,
                pool_target=pool_target,
                rng=random.Random(config.seed * 31 + hashabs(spec.key)),
            )
            self._provider_instances[spec.key] = instance
            self._register_provider_zones(instance)

    def _register_provider_zones(self, instance: ProviderInstance) -> None:
        """Delegate provider base zones from their TLD zones and record
        the base domains in whois (they are taken, not registrable)."""
        for origin, (ns_host, address) in instance.base_zone_glue().items():
            parent = self._registry_zone_for(origin)
            if parent is None or parent.origin.is_root:
                # Only the root matches: the provider lives under a TLD
                # not built yet (e.g. co.uk / com.br before the ccTLDs
                # exist) — putting the delegation in the root would be
                # shadowed by the TLD cut.  Defer to _build_countries.
                self._deferred_provider_glue.append((origin, ns_host, address))
                continue
            parent.add_records(origin, NS(ns_host))
            parent.add_records(ns_host, A(address))
            self._register_taken_domain(origin, instance.spec.display)

    def _register_taken_domain(self, domain: DnsName, owner: str) -> None:
        if self._whois.lookup(domain) is None:
            self._whois.add(
                WhoisRecord(
                    domain=domain,
                    registrant=owner,
                    registrant_is_government=False,
                    created_at=date_to_epoch(2005),
                    expires_at=date_to_epoch(2030),
                )
            )

    # ==================================================================
    # Local hosters (per-country, non-catalog third parties)
    # ==================================================================
    def _build_local_hosters(self) -> None:
        # Created lazily per country in _build_countries (they live
        # under ccTLDs); this just prepares the container.
        self._local_hosters: Dict[str, List[ProviderInstance]] = {}

    def _local_hoster_for(
        self, profile: CountryProfile, index: int
    ) -> ProviderInstance:
        hosters = self._local_hosters.setdefault(profile.iso2, [])
        while len(hosters) <= index:
            number = len(hosters) + 1
            base = f"webhost{number}.{profile.cctld}"
            spec = ProviderSpec(
                key=f"local-{profile.cctld}-{number}",
                display=f"Local host {number} ({profile.iso2})",
                ns_domains=(base,),
                templates=(
                    f"ns{{i}}x{{set}}.{base}",
                ),
                set_size=2,
                domains_2011=0,
                domains_2020=0,
                countries_2011=0,
                countries_2020=0,
                home_country=profile.iso2,
                asn_count=1,
            )
            planner = self._new_planner([(spec.display, profile.iso2)])
            instance = ProviderInstance(
                spec,
                planner,
                self._network,
                pool_target=3,
                rng=random.Random(
                    self.config.seed * 77 + hashabs(spec.key)
                ),
            )
            self._register_provider_zones(instance)
            hosters.append(instance)
        return hosters[index]

    # ==================================================================
    # Countries
    # ==================================================================
    def _build_countries(
        self,
    ) -> Tuple[Dict[str, KnowledgeBaseEntry], Dict[str, Zone]]:
        knowledge_base: Dict[str, KnowledgeBaseEntry] = {}
        suffix_zones: Dict[str, Zone] = {}
        self._country_planners: Dict[str, AddressPlanner] = {}
        self._private_hosters: Dict[str, PrivateHoster] = {}
        self._suffix_names: Dict[str, DnsName] = {}

        for profile in self._profiles:
            planner = self._new_planner(
                [(f"Government of {profile.country.name}", profile.iso2)]
                + [
                    (f"ISP {i + 1} ({profile.iso2})", profile.iso2)
                    for i in range(self.config.country_isp_asns)
                ]
            )
            self._country_planners[profile.iso2] = planner
            self._private_hosters[profile.iso2] = PrivateHoster(
                planner,
                self._network,
                random.Random(self.config.seed * 13 + hashabs(profile.iso2)),
            )

            cctld_name = DnsName.parse(profile.cctld)
            cctld_zone = self._host_registry_zone(
                cctld_name, self._root_zone, planner
            )
            policy = TldPolicy(
                tld=cctld_name,
                operator=f"NIC {profile.iso2}",
                country=profile.iso2,
            )
            for open_suffix in _PUBLIC_SECOND_LEVEL.get(profile.cctld, ()):
                policy.add_suffix(
                    SuffixPolicy(
                        suffix=DnsName.parse(open_suffix),
                        government_reserved=False,
                    )
                )
            suffix_name = DnsName.parse(profile.gov_suffix)
            self._suffix_names[profile.iso2] = suffix_name
            if not profile.seed_is_registered_domain:
                policy.add_suffix(
                    SuffixPolicy(
                        suffix=suffix_name,
                        government_reserved=profile.suffix_is_reserved,
                        documented=profile.suffix_documented,
                    )
                )
            elif suffix_name.level >= 3 and profile.suffix_is_reserved:
                # The laogov.gov.la-style cases: the enclosing gov.XX
                # suffix exists but its reservation is undocumented, so
                # the paper fell back to the registered domain.
                parent_suffix = suffix_name.parent()
                if parent_suffix.level == 2:
                    policy.add_suffix(
                        SuffixPolicy(
                            suffix=parent_suffix,
                            government_reserved=True,
                            documented=profile.suffix_documented,
                        )
                    )
            self._tlds.add(policy)

            suffix_zone = self._host_registry_zone(
                suffix_name, cctld_zone, planner
            )
            suffix_zones[profile.iso2] = suffix_zone
            if profile.seed_is_registered_domain:
                self._whois.add(
                    WhoisRecord(
                        domain=suffix_name,
                        registrant=f"Government of {profile.country.name}",
                        registrant_is_government=True,
                        created_at=date_to_epoch(2004),
                        expires_at=date_to_epoch(2030),
                    )
                )
                self._archive.record_snapshot(suffix_name, date_to_epoch(2005, 6))

            knowledge_base[profile.iso2] = self._knowledge_base_entry(
                profile, suffix_zone
            )

        # Providers under ccTLDs (co.uk, com.br) deferred earlier.
        for origin, ns_host, address in self._deferred_provider_glue:
            parent = self._registry_zone_for(origin)
            if parent is not None:
                if parent.get(origin, RRType.NS) is None:
                    parent.add_records(origin, NS(ns_host))
                    parent.add_records(ns_host, A(address))
                self._register_taken_domain(origin, "provider")
        self._deferred_provider_glue.clear()
        return knowledge_base, suffix_zones

    def _knowledge_base_entry(
        self, profile: CountryProfile, suffix_zone: Zone
    ) -> KnowledgeBaseEntry:
        iso2 = profile.iso2
        portal = profile.portal_host
        msq = portal
        if iso2 in UNRESOLVABLE_PORTAL_ISO2:
            # Link points at a dead domain; for two countries the MSQ
            # names the working portal instead.
            dead = f"www.oldportal.{profile.cctld}"
            portal = dead
            msq = dead
        if iso2 in MSQ_MISMATCH_ISO2:
            portal = f"www.wrongportal.{profile.cctld}"
            msq = profile.portal_host
        if iso2 == AD_PARKED_PORTAL_ISO2:
            parked = f"www.{profile.cctld}-info.com"
            self._build_parked_portal(profile, parked)
            portal = parked
            msq = profile.portal_host
        # The working portal resolves: an A record at the suffix apex's
        # www (or the registered-domain zone's www).
        www = DnsName.parse(profile.portal_host)
        if www.is_subdomain_of(suffix_zone.origin):
            if suffix_zone.get(www, RRType.A) is None:
                suffix_zone.add_records(
                    www, A(self._shared_web_address(profile))
                )
        return KnowledgeBaseEntry(
            iso2=iso2,
            portal_url=f"https://{portal}/",
            msq_fqdn=msq,
        )

    def _shared_web_address(self, profile: CountryProfile) -> IPv4Address:
        address = self._shared_web.get(profile.iso2)
        if address is None:
            address = self._country_planners[profile.iso2].next_address(0)
            self._shared_web[profile.iso2] = address
        return address

    def _build_parked_portal(self, profile: CountryProfile, fqdn: str) -> None:
        """The §III-A case: a national-portal link whose domain belongs
        to a third party serving ads."""
        name = DnsName.parse(fqdn)
        domain = name.parent()
        com_zone = self._registry_zones[DnsName.parse("com")]
        ns_host = domain.prepend("ns1")
        address = self._infra_planner.next_address(1)
        zone = Zone(domain)
        zone.add_records(domain, NS(ns_host))
        zone.add_records(
            domain, SOA(mname=ns_host, rname=domain.prepend("ads"))
        )
        zone.add_records(ns_host, A(address))
        zone.add_records(name, A(address))
        server = AuthoritativeServer(ns_host)
        server.load_zone(zone)
        self._network.attach(address, server)
        com_zone.add_records(domain, NS(ns_host))
        com_zone.add_records(ns_host, A(address))
        self._whois.add(
            WhoisRecord(
                domain=domain,
                registrant="SearchAds Media LLC",
                registrant_is_government=False,
                created_at=date_to_epoch(2016),
                expires_at=date_to_epoch(2026),
            )
        )

    # ==================================================================
    # History
    # ==================================================================
    def _build_history(self) -> HistoryResult:
        builder = HistoryBuilder(self.config, self._profiles)
        result = builder.build()
        builder.emit_pdns(result, self._pdns)
        return result

    # ==================================================================
    # Active world
    # ==================================================================
    def _build_active(
        self, history: HistoryResult, suffix_zones: Dict[str, Zone]
    ) -> None:
        config = self.config
        rng = random.Random(config.seed + 9)
        profiles = {p.iso2: p for p in self._profiles}
        cluster_roots = {c.root for c in history.clusters}

        targets = history.targets()
        # Parents first so intermediate zones exist before their
        # children need delegations added.
        targets.sort(key=lambda d: (d.iso2, d.level, str(d.name)))

        for domain in targets:
            profile = profiles[domain.iso2]
            suffix_zone = suffix_zones[domain.iso2]
            if domain.cluster is not None and domain.name not in cluster_roots:
                self._truths[domain.name] = DomainTruth(
                    name=domain.name,
                    iso2=domain.iso2,
                    level=domain.level,
                    parent=domain.parent,
                    status=TargetStatus.ORPHANED,
                    single_ns=domain.single_ns,
                )
                continue

            if domain.name in cluster_roots:
                self._build_alive_domain(
                    domain, profile, suffix_zone, force_stale=True
                )
                continue

            if not _is_intermediate(domain) and (
                domain.death_year is not None
                or rng.random() < self._removal_top_up()
            ):
                # Delegation cleaned up: the parent will answer, but
                # emptily (NXDOMAIN/NODATA) — the paper's 19k.
                self._truths[domain.name] = DomainTruth(
                    name=domain.name,
                    iso2=domain.iso2,
                    level=domain.level,
                    parent=domain.parent,
                    status=TargetStatus.REMOVED,
                    single_ns=domain.single_ns,
                )
                continue

            self._build_alive_domain(domain, profile, suffix_zone)

    def _removal_top_up(self) -> float:
        """Extra removal probability so removed ≈ 13% of targets
        (natural 2020 deaths provide only part)."""
        return 0.085

    # ------------------------------------------------------------------
    def _parent_zone_for(self, domain: DomainHistory) -> Optional[Zone]:
        zone = self._child_zones.get(domain.parent)
        if zone is not None:
            return zone
        return self._registry_zones.get(domain.parent)

    def _sample_layout(self, profile: CountryProfile, rng: random.Random) -> str:
        f_ip, f_24, f_asn = profile.diversity
        draw = rng.random()
        if draw >= f_ip:
            return NsLayout.SINGLE_IP
        if draw >= f_24:
            return NsLayout.SINGLE_24
        if draw >= f_asn:
            return NsLayout.MULTI_24
        return NsLayout.MULTI_ASN

    def _build_alive_domain(
        self,
        domain: DomainHistory,
        profile: CountryProfile,
        suffix_zone: Zone,
        force_stale: Optional[bool] = None,
    ) -> None:
        config = self.config
        rng = self._fault_sampler._rng  # shared stream keeps determinism
        parent_zone = self._parent_zone_for(domain)
        if parent_zone is None:
            # Parent intermediate itself went stale — the children are
            # effectively orphaned.
            self._truths[domain.name] = DomainTruth(
                name=domain.name,
                iso2=domain.iso2,
                level=domain.level,
                parent=domain.parent,
                status=TargetStatus.ORPHANED,
                single_ns=domain.single_ns,
            )
            return

        era = domain.eras[-1]
        # Intermediate zones can be misconfigured like any other domain,
        # but never stale — a stale intermediate would orphan its whole
        # subtree, and the orphan population is budgeted by the cluster
        # mechanism instead.
        plan = self._fault_sampler.plan_for(
            profile,
            domain.level,
            era.ns_count,
            domain.single_ns,
            force_stale=False if _is_intermediate(domain) else force_stale,
        )

        layout = (
            NsLayout.SINGLE_IP
            if domain.single_ns
            else self._sample_layout(profile, rng)
        )

        if plan.stale:
            self._build_stale_domain(domain, profile, parent_zone, plan, era)
            return

        ns_set, style, provider_key = self._healthy_set(
            domain, profile, era, layout, rng
        )
        child_ns, parent_ns, extra_hosts, broken_hosts, dangling = (
            self._apply_faults(domain, profile, ns_set, plan, rng)
        )

        # Child zone.
        zone = Zone(domain.name)
        soa_rname = None
        soa_mname = None
        if provider_key is not None and provider_key in self._provider_instances:
            spec = self._provider_instances[provider_key].spec
            if spec.soa_rname:
                soa_rname = DnsName.parse(spec.soa_rname)
            if era.vanity:
                # The SOA is where a vanity-branded managed-DNS
                # deployment still names its operator.
                soa_mname = DnsName.parse(spec.make_ns_set(1)[0])
                if soa_rname is None:
                    soa_rname = DnsName.parse(
                        f"hostmaster.{spec.ns_domains[0]}"
                    )
        zone.add_records(
            zone.origin,
            SOA(
                mname=soa_mname
                if soa_mname is not None
                else (
                    child_ns[0] if child_ns else domain.name.prepend("ns1")
                ),
                rname=soa_rname
                if soa_rname is not None
                else domain.name.prepend("hostmaster"),
            ),
        )
        zone.add(
            RRset(
                zone.origin,
                RRType.NS,
                3600,
                tuple(NS(h) for h in child_ns),
            )
        )
        zone.add_records(
            domain.name.prepend("www"), A(self._shared_web_address(profile))
        )
        # In-bailiwick A records (both healthy and alias hosts); hosts
        # named under the government suffix but outside this domain
        # (central shared sets, legacy leftovers) publish their A
        # records in the suffix zone instead.
        suffix_obj = self._registry_zones.get(self._suffix_names[profile.iso2])
        for host in list(ns_set.hosts) + extra_hosts:
            if host.hostname.is_subdomain_of(domain.name):
                if zone.get(host.hostname, RRType.A) is None:
                    zone.add_records(host.hostname, A(host.address))
            elif (
                suffix_obj is not None
                and host.hostname.is_subdomain_of(suffix_obj.origin)
                and suffix_obj.get(host.hostname, RRType.A) is None
            ):
                suffix_obj.add_records(host.hostname, A(host.address))

        # Load the zone on its servers.
        self._host_on(ns_set, style, provider_key, profile, zone)
        for host in extra_hosts:
            server = self._network.host_at(host.address)
            if isinstance(server, AuthoritativeServer) and not server.serves(
                zone.origin
            ):
                server.load_zone(zone)

        # Parent-side delegation + glue.
        parent_zone.add(
            RRset(
                domain.name,
                RRType.NS,
                3600,
                tuple(NS(h) for h in parent_ns),
            )
        )
        for host in list(ns_set.hosts) + extra_hosts:
            if (
                host.hostname in parent_ns
                and host.hostname.is_subdomain_of(domain.name)
            ):
                if parent_zone.get(host.hostname, RRType.A) is None:
                    parent_zone.add_records(host.hostname, A(host.address))

        self._child_zones[domain.name] = zone
        self._truths[domain.name] = DomainTruth(
            name=domain.name,
            iso2=domain.iso2,
            level=domain.level,
            parent=domain.parent,
            status=TargetStatus.ALIVE,
            single_ns=domain.single_ns,
            style=style,
            provider_key=provider_key,
            layout=layout,
            parent_ns=tuple(parent_ns),
            child_ns=tuple(child_ns),
            plan=plan,
            dangling_ns_domains=tuple(dangling),
        )

    # ------------------------------------------------------------------
    def _healthy_set(
        self,
        domain: DomainHistory,
        profile: CountryProfile,
        era,
        layout: str,
        rng: random.Random,
    ) -> Tuple[NsSet, str, Optional[str]]:
        style = era.style
        provider_key = era.provider_key
        hoster = self._private_hosters[profile.iso2]
        if style == STYLE_PROVIDER and provider_key is not None:
            instance = self._provider_instances[provider_key]
            if domain.single_ns:
                full = instance.draw_set(NsLayout.SINGLE_IP)
                ns_set = NsSet(full.hosts[:1], NsLayout.SINGLE_IP)
                return ns_set, style, provider_key
            drawn = instance.draw_set(layout)
            if era.vanity:
                # Vanity branding: in-bailiwick names fronting the
                # provider's addresses; only the SOA names the operator.
                vanity_hosts = tuple(
                    NsHost(domain.name.prepend(f"ns{i + 1}"), host.address)
                    for i, host in enumerate(drawn.hosts)
                )
                return NsSet(vanity_hosts, drawn.layout), style, provider_key
            return drawn, style, provider_key
        if style == STYLE_LOCAL:
            index = rng.randrange(3)
            instance = self._local_hoster_for(profile, index)
            drawn = instance.draw_set(
                layout
                if layout in (NsLayout.SINGLE_IP, NsLayout.SINGLE_24, NsLayout.MULTI_24)
                else NsLayout.MULTI_24
            )
            if domain.single_ns:
                return NsSet(drawn.hosts[:1], drawn.layout), style, instance.spec.key
            return drawn, style, instance.spec.key
        # Private.
        ns_count = 1 if domain.single_ns else era.ns_count
        if layout == NsLayout.SINGLE_IP and not domain.single_ns and rng.random() < 0.6:
            ns_set = hoster.shared_set(
                self._suffix_names[profile.iso2], max(2, ns_count), layout
            )
        else:
            ns_set = hoster.build_set(domain.name, ns_count, layout)
        return ns_set, STYLE_PRIVATE, None

    def _host_on(
        self,
        ns_set: NsSet,
        style: str,
        provider_key: Optional[str],
        profile: CountryProfile,
        zone: Zone,
    ) -> None:
        if style == STYLE_PROVIDER and provider_key is not None:
            self._provider_instances[provider_key].host_zone(zone, ns_set)
        elif style == STYLE_LOCAL and provider_key is not None:
            for hosters in self._local_hosters.get(profile.iso2, []):
                if hosters.spec.key == provider_key:
                    hosters.host_zone(zone, ns_set)
                    return
        else:
            self._private_hosters[profile.iso2].host_zone(zone, ns_set)

    # ------------------------------------------------------------------
    # Fault application
    # ------------------------------------------------------------------
    def _next_broken_serial(self) -> int:
        self._broken_serial += 1
        return self._broken_serial

    def _make_broken_host(
        self,
        domain: DomainHistory,
        profile: CountryProfile,
        mode: str,
        rng: random.Random,
        third_party_p: float = 0.05,
    ) -> Tuple[NsHost, Optional[DnsName]]:
        """A nameserver that fails in the requested way.

        Returns the host plus, for third-party unresolvable hostnames,
        the registrable domain it dangles from.  ``third_party_p``
        controls how often an unresolvable name dangles from an expired
        third-party domain — higher for stale (abandoned) domains,
        which is why most of the paper's 1,121 hijack victims were
        silent.
        """
        serial = self._next_broken_serial()
        planner = self._country_planners[profile.iso2]
        suffix = self._suffix_names[profile.iso2]

        if mode == DefectMode.UNRESOLVABLE:
            # Most unresolvable nameservers are governments' own dead
            # names; a calibrated share dangles from expired third-party
            # domains (Figure 11's exposure counts).
            third_party = rng.random() < third_party_p
            if third_party:
                dangling_domain = self._draw_dangling_domain(profile, rng)
                hostname = dangling_domain.prepend(f"ns{serial % 4 + 1}")
                address = planner.next_address(0)  # never used: unresolvable
                return NsHost(hostname, address), dangling_domain
            # Government-internal dead name: no glue, no zone, NXDOMAIN.
            hostname = suffix.prepend(f"defunct{serial}").prepend("ns1")
            return NsHost(hostname, planner.next_address(0)), None

        hostname = suffix.prepend(f"old-ns{serial}")
        address = planner.next_address(0, fresh_prefix=False)
        # Whatever the failure mode, the hostname itself must resolve
        # (that is what distinguishes unresponsive/lame from
        # unresolvable): publish an A record in the suffix zone.
        suffix_zone = self._registry_zones.get(suffix)
        if suffix_zone is not None and suffix_zone.get(hostname, RRType.A) is None:
            suffix_zone.add_records(hostname, A(address))
        if mode == DefectMode.UNRESPONSIVE:
            # Resolvable, but nothing is attached at the address.
            return NsHost(hostname, address), None
        behavior = {
            DefectMode.LAME_REFUSED: MissBehavior.REFUSED,
            DefectMode.LAME_UPWARD: MissBehavior.UPWARD_REFERRAL,
            DefectMode.LAME_SERVFAIL: MissBehavior.SERVFAIL,
        }[mode]
        server = AuthoritativeServer(hostname, miss_behavior=behavior)
        self._network.attach(address, server)
        return NsHost(hostname, address), None

    def _draw_dangling_domain(
        self, profile: CountryProfile, rng: random.Random
    ) -> DnsName:
        """A registrable (expired) nameserver domain for this country.

        Reuse within a country is heavy — the paper found whole groups
        of domains in one d_gov sharing a dead provider, and only 2
        registrable d_ns shared across countries.
        """
        pool = self._country_dangling_pools.setdefault(profile.iso2, [])
        if pool and rng.random() < 0.35:
            domain = pool[rng.randrange(len(pool))]
        else:
            serial = self._next_broken_serial()
            if rng.random() < self.config.typo_share_of_unresolvable:
                # Typo of a real provider domain, e.g. pns12cloudns.net
                # for pns12.cloudns.net.
                base = rng.choice(["cloudns", "hostgator", "dnsmadeeasy"])
                domain = DnsName.parse(f"pns{serial % 20}{base}.net")
            else:
                word = ["swift", "prime", "rapid", "blue", "metro", "apex"][
                    serial % 6
                ]
                tld = rng.choice(["com", "net", "org"])
                domain = DnsName.parse(f"{word}dns{serial}.{tld}")
            pool.append(domain)
        self._dangling_map.setdefault(domain, [])
        return domain

    def _apply_faults(
        self,
        domain: DomainHistory,
        profile: CountryProfile,
        ns_set: NsSet,
        plan: FaultPlan,
        rng: random.Random,
    ) -> Tuple[
        List[DnsName],
        List[DnsName],
        List[NsHost],
        List[NsHost],
        List[DnsName],
    ]:
        """Derive (child NS, parent NS, serving extra hosts, broken
        hosts, dangling domains) from the healthy set and the fault
        plan.  Serving extras get the zone loaded; broken hosts only
        get their records published (where resolvable)."""
        healthy = list(ns_set.hostnames)
        child_ns = list(healthy)
        parent_ns = list(healthy)
        extra_hosts: List[NsHost] = []
        broken: Dict[DnsName, str] = {}
        dangling: List[DnsName] = []

        # --- consistency shape ---------------------------------------
        consistency = plan.consistency
        if consistency == Consistency.P_SUBSET_C and len(parent_ns) >= 2:
            parent_ns = parent_ns[:-1]
        elif consistency == Consistency.C_SUBSET_P:
            host, dns_domain = self._extra_parent_host(domain, profile, rng)
            parent_ns.append(host.hostname)
            extra_hosts.append(host)
        elif consistency == Consistency.OVERLAP_NEITHER and len(parent_ns) >= 2:
            parent_ns = parent_ns[:-1]
            host, dns_domain = self._extra_parent_host(domain, profile, rng)
            parent_ns.append(host.hostname)
            extra_hosts.append(host)
        elif consistency == Consistency.DISJOINT_IP_OVERLAP:
            renamed = []
            for index, host in enumerate(ns_set.hosts, start=1):
                alias = domain.name.prepend(f"edge{index}")
                renamed.append(NsHost(alias, host.address))
            extra_hosts.extend(renamed)
            parent_ns = [h.hostname for h in renamed]
        elif consistency == Consistency.DISJOINT:
            old_set = self._old_deployment_set(domain, profile, rng)
            extra_hosts.extend(old_set.hosts)
            parent_ns = list(old_set.hostnames)

        if plan.single_label:
            # The dropped-origin typo: the child's own NS RRset carries
            # a bare label the server cannot complete.
            child_ns[-1] = DnsName(("ns",))

        # --- broken nameservers --------------------------------------
        # Broken hosts are tracked separately from serving extras: they
        # need A/glue records published (when resolvable) but must NOT
        # have the zone loaded — a lame server with the zone would not
        # be lame.
        broken_hosts: List[NsHost] = []
        for mode in plan.defect_modes:
            victim_host, dns_domain = self._make_broken_host(
                domain, profile, mode, rng
            )
            broken[victim_host.hostname] = mode
            if dns_domain is not None:
                dangling.append(dns_domain)
                self._dangling_map[dns_domain].append(domain.name)
            # Broken entries live in the parent's copy (update lag), and
            # usually in the child's too unless the sets already differ.
            parent_ns.append(victim_host.hostname)
            if consistency in (Consistency.EQUAL, Consistency.P_SUBSET_C):
                child_ns.append(victim_host.hostname)

        return child_ns, parent_ns, extra_hosts, broken_hosts, dangling

    def _extra_parent_host(
        self, domain: DomainHistory, profile: CountryProfile, rng: random.Random
    ) -> Tuple[NsHost, Optional[DnsName]]:
        """A parent-only nameserver (an old deployment's leftover) that
        still works — it will be loaded with the zone."""
        serial = self._next_broken_serial()
        suffix = self._suffix_names[profile.iso2]
        hostname = suffix.prepend(f"legacy-ns{serial}")
        address = self._country_planners[profile.iso2].next_address(1)
        server = AuthoritativeServer(hostname)
        self._network.attach(address, server)
        suffix_zone = self._registry_zones.get(suffix)
        if suffix_zone is not None and suffix_zone.get(hostname, RRType.A) is None:
            suffix_zone.add_records(hostname, A(address))
        return NsHost(hostname, address), None

    def _old_deployment_set(
        self, domain: DomainHistory, profile: CountryProfile, rng: random.Random
    ) -> NsSet:
        """A fully disjoint parent-side set that still serves the zone
        (a provider migration the parent never heard about, but the old
        provider kept the zone loaded)."""
        hoster = self._private_hosters[profile.iso2]
        return hoster.build_set(
            domain.name.prepend("old"), 2, NsLayout.MULTI_24
        )

    # ------------------------------------------------------------------
    def _build_stale_domain(
        self,
        domain: DomainHistory,
        profile: CountryProfile,
        parent_zone: Zone,
        plan: FaultPlan,
        era,
    ) -> None:
        """A domain whose delegation survives but whose service is gone:
        every parent-listed nameserver is broken."""
        rng = self._fault_sampler._rng
        parent_ns: List[DnsName] = []
        dangling: List[DnsName] = []
        glue_hosts: List[NsHost] = []
        for mode in plan.defect_modes:
            # Abandoned domains ran out with their hosting: their dead
            # nameservers disproportionately sit under lapsed
            # third-party domains.
            host, dns_domain = self._make_broken_host(
                domain, profile, mode, rng, third_party_p=0.22
            )
            parent_ns.append(host.hostname)
            if dns_domain is not None:
                dangling.append(dns_domain)
                self._dangling_map[dns_domain].append(domain.name)
            if mode != DefectMode.UNRESOLVABLE:
                glue_hosts.append(host)
        if not parent_ns:
            host, _ = self._make_broken_host(
                domain, profile, DefectMode.UNRESPONSIVE, rng
            )
            parent_ns.append(host.hostname)
            glue_hosts.append(host)
        parent_zone.add(
            RRset(
                domain.name,
                RRType.NS,
                3600,
                tuple(NS(h) for h in parent_ns),
            )
        )
        for host in glue_hosts:
            if host.hostname.is_subdomain_of(parent_zone.origin):
                if parent_zone.get(host.hostname, RRType.A) is None:
                    parent_zone.add_records(host.hostname, A(host.address))
        self._truths[domain.name] = DomainTruth(
            name=domain.name,
            iso2=domain.iso2,
            level=domain.level,
            parent=domain.parent,
            status=TargetStatus.ALIVE,
            single_ns=domain.single_ns,
            style=era.style,
            provider_key=era.provider_key,
            parent_ns=tuple(parent_ns),
            child_ns=(),
            plan=plan,
            dangling_ns_domains=tuple(dangling),
        )

    # ------------------------------------------------------------------
    # Consistency-dangling injection (§IV-D's 13 d_ns / 26 domains)
    # ------------------------------------------------------------------
    def _inject_consistency_dangling(self) -> None:
        config = self.config
        rng = random.Random(config.seed + 33)
        want_dns = config.scaled(config.consistency_dangling_ns_domains)
        want_victims = config.scaled(config.consistency_dangling_victims)
        if want_dns == 0 or want_victims == 0:
            return
        candidates = [
            t
            for t in self._truths.values()
            if t.status == TargetStatus.ALIVE
            and t.plan is not None
            and not t.plan.any_defect
            and t.name in self._child_zones
        ]
        if not candidates:
            return
        rng.shuffle(candidates)
        by_country: Dict[str, List[DomainTruth]] = {}
        for truth in candidates:
            by_country.setdefault(truth.iso2, []).append(truth)
        countries = sorted(
            by_country, key=lambda iso: -len(by_country[iso])
        )[: max(1, round(7 * max(config.scale, 1 / 7)))]

        victims_left = want_victims
        dns_left = want_dns
        first_country = True
        for iso2 in countries:
            if victims_left <= 0 or dns_left <= 0:
                break
            group = by_country[iso2]
            if first_country:
                # The paper's standout: 12 district governments on one
                # expired provider.
                take = min(len(group), max(1, round(12 * config.scale * 2)), victims_left)
                first_country = False
            else:
                take = min(len(group), max(1, victims_left // max(1, dns_left)), victims_left)
            dns_domain = self._premium_dangling_name(rng)
            served = group[:take]
            self._wire_consistency_dangling(dns_domain, served)
            victims_left -= take
            dns_left -= 1

    def _premium_dangling_name(self, rng: random.Random) -> DnsName:
        """Find an unregistered name the registrar prices at ≥ $300
        (the paper's observed minimum for this class)."""
        for attempt in range(4000):
            word = ["zone", "net", "dns", "edge"][attempt % 4]
            candidate = DnsName.parse(
                f"{word}{rng.randrange(10_000)}.net"
            )
            if self._whois.lookup(candidate) is not None:
                continue
            quote = self._registrar.check(candidate)
            if quote.available and quote.price_usd is not None and quote.price_usd >= 300:
                return candidate
        return DnsName.parse("dns0.net")

    def _wire_consistency_dangling(
        self, dns_domain: DnsName, victims: List[DomainTruth]
    ) -> None:
        """Attach an expired-provider nameserver that still answers for
        the victim zones, listed only in the parents' NS sets."""
        hostname = dns_domain.prepend("pns1")
        address = self._infra_planner.next_address(0, fresh_prefix=True)
        server = AuthoritativeServer(hostname)
        self._network.attach(address, server)
        # Grace-period lingering: the TLD keeps delegation + glue even
        # though the registration has lapsed.
        tld_zone = self._registry_zone_for(dns_domain)
        if tld_zone is not None and tld_zone.get(dns_domain, RRType.NS) is None:
            tld_zone.add_records(dns_domain, NS(hostname))
            tld_zone.add_records(hostname, A(address))
        provider_zone = Zone(dns_domain)
        provider_zone.add_records(dns_domain, NS(hostname))
        provider_zone.add_records(
            dns_domain,
            SOA(mname=hostname, rname=dns_domain.prepend("hostmaster")),
        )
        provider_zone.add_records(hostname, A(address))
        server.load_zone(provider_zone)

        for truth in victims:
            zone = self._child_zones[truth.name]
            parent_zone = self._parent_zone_for_truth(truth)
            if parent_zone is None:
                continue
            existing = parent_zone.get(truth.name, RRType.NS)
            if existing is None:
                continue
            new_rdatas = existing.rdatas + (NS(hostname),)
            parent_zone.add(
                RRset(truth.name, RRType.NS, existing.ttl, new_rdatas)
            )
            server.load_zone(zone)
            truth.parent_ns = truth.parent_ns + (hostname,)
            truth.dangling_ns_domains = truth.dangling_ns_domains + (dns_domain,)
            if truth.plan is not None and truth.plan.consistency == Consistency.EQUAL:
                truth.plan = FaultPlan(
                    stale=False,
                    broken_count=0,
                    defect_modes=(),
                    consistency=Consistency.C_SUBSET_P,
                    single_label=truth.plan.single_label,
                )
            self._consistency_dangling.setdefault(dns_domain, []).append(
                truth.name
            )

    def _parent_zone_for_truth(self, truth: DomainTruth) -> Optional[Zone]:
        zone = self._child_zones.get(truth.parent)
        if zone is not None:
            return zone
        return self._registry_zones.get(truth.parent)


def _is_intermediate(domain: DomainHistory) -> bool:
    """Intermediates carry the region label prefix the history builder
    assigns to level-3 zones."""
    return domain.level == 3 and domain.name.labels[0].startswith("region")


def hashabs(text: str) -> int:
    """Deterministic small hash (process-stable, unlike ``hash``)."""
    value = 0
    for ch in text:
        value = (value * 131 + ord(ch)) % 1_000_003
    return value
