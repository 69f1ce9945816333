"""Seeded between-epoch world evolution (the Fig. 6 churn processes).

The paper's longitudinal axis exists because government DNS deployments
*change*: domains migrate between providers, delegations disappear and
reappear (the d_1NS churn of Fig. 6), glue records are renumbered, and
registries tweak delegation TTLs.  This module evolves a generated
:class:`~repro.worldgen.generator.World` between measurement epochs as
a deterministic delta: :func:`build_churn_plan` derives epoch *k*'s
:class:`ChurnPlan` purely from ``(seed, scale, k)`` and the current
world state, and :func:`apply_churn_plan` mutates the world in place.
Because the base world is a pure function of ``(seed, scale)`` and each
plan is a pure function of the world it is built against, epoch *k*'s
world is itself a pure function of ``(seed, scale, k)`` — which is what
lets an incremental re-measurement certify equivalence against a
from-scratch campaign by dataset digest alone.

Design constraints that keep the incremental layer sound:

* **Fixed target universe.**  Churn only ever drops and re-adds names
  that already exist in ``world.truths``; it never invents new ones.
  The passive-DNS substrate is never touched, so the PDNS-derived
  target list (and hence the dataset's admission order) is identical at
  every epoch.
* **Leaves only.**  Every op targets a domain that parents no other
  target, so the set of targets whose probe result can change is
  exactly the set of op domains — the containment the change sensor's
  per-cohort flagging relies on.
* **Disjoint address space.**  New infrastructure is numbered from
  ``100.0.0.0/8``; the generator's allocator stays inside ``0.0.0.0/2``
  and the root/probe anchors sit above ``192.0.0.0``, so churn can
  never collide with an existing attachment.  The per-epoch block
  recycles after 250 epochs (far beyond any realistic campaign).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..dns.rdata import NS, SOA, A
from ..dns.rrset import RRset, RRType
from ..dns.server import AuthoritativeServer
from ..dns.zone import Zone
from ..inet.address import IPv4Address, IPv4Prefix
from .deployment import NsHost
from .faults import Consistency, FaultPlan
from .config import WorldConfig
from .generator import DomainTruth, TargetStatus, World, WorldGenerator
from .history import STYLE_PRIVATE, STYLE_PROVIDER
from .providers import NsLayout

__all__ = [
    "CHURN_TTLS",
    "ChurnOp",
    "ChurnPlan",
    "advance_world",
    "apply_churn_plan",
    "build_churn_plan",
    "churn_rng",
    "world_at_epoch",
]

# Per-epoch churn intensities, as fractions of the clean-leaf pool.
# Calibration anchor: WorldConfig's window-wide death rates (16% of
# single-NS domains, 3% of multi-NS domains over ~14 months, §V/Fig. 6)
# scaled to a per-epoch cadence, plus provider-migration and glue-edit
# rates in the same order of magnitude.  The aggregate (~5% of targets
# per epoch) is what bounds the incremental re-probe set and yields the
# >=5x steady-state query reduction the bench gates.
MIGRATION_RATE = 0.02
SINGLE_DROP_RATE = 0.04
MULTI_DROP_RATE = 0.01
READD_RATE = 0.012
RENUMBER_RATE = 0.015
TTL_EDIT_RATE = 0.01

# Registry-style delegation TTLs for the TTL-edit op.  All are long
# enough that a warm-phase cache entry cannot expire before the cache
# freezes, so a TTL edit provably never changes a probe result — it
# exists to exercise the sensor's flagged-but-unchanged path.
CHURN_TTLS = (1800, 3600, 7200, 86400)

_CHURN_NET = 100  # first octet of the churn address block


@dataclass(frozen=True)
class ChurnOp:
    """One atomic change to the world between epochs."""

    kind: str  # migrate | drop | readd | renumber | ttl
    domain: DnsName
    iso2: str
    provider_key: Optional[str] = None  # migrate
    layout: Optional[str] = None  # migrate
    hostname: Optional[DnsName] = None  # renumber
    ttl: Optional[int] = None  # ttl

    KINDS = ("migrate", "drop", "readd", "renumber", "ttl")

    def to_dict(self) -> Dict[str, object]:
        row: Dict[str, object] = {
            "kind": self.kind,
            "domain": str(self.domain),
            "iso2": self.iso2,
        }
        if self.provider_key is not None:
            row["provider_key"] = self.provider_key
        if self.layout is not None:
            row["layout"] = self.layout
        if self.hostname is not None:
            row["hostname"] = str(self.hostname)
        if self.ttl is not None:
            row["ttl"] = self.ttl
        return row


@dataclass(frozen=True)
class ChurnPlan:
    """The deterministic delta taking the world from epoch k-1 to k."""

    epoch: int
    seed: int
    scale: float
    ops: Tuple[ChurnOp, ...] = ()

    @property
    def changed_domains(self) -> Tuple[DnsName, ...]:
        """Every domain an op touches, sorted.

        This is the ground-truth "NS footprint plausibly changed" set
        the passive sensor derives its feeds from.  TTL-only edits are
        included deliberately: passive DNS sees them, but re-probing
        finds no result change.
        """
        return tuple(sorted({op.domain for op in self.ops}))

    def to_dict(self) -> Dict[str, object]:
        return {
            "epoch": self.epoch,
            "seed": self.seed,
            "scale": self.scale,
            "ops": [op.to_dict() for op in self.ops],
        }


def churn_rng(seed: int, scale: float, epoch: int) -> random.Random:
    """The one RNG stream for epoch *k*'s plan (namespaced, seeded)."""
    return random.Random(f"{seed}:{scale}:epoch:{epoch}")


def _parent_zone(world: World, truth: DomainTruth) -> Optional[Zone]:
    zone = world.child_zones.get(truth.parent)
    if zone is not None:
        return zone
    return world.registry_zones.get(truth.parent)


def _is_clean(truth: DomainTruth) -> bool:
    """Defect-free, consistent, non-dangling: safe to churn without
    entangling the fault machinery's global allocations."""
    plan = truth.plan
    if plan is None:
        return False
    if plan.stale or plan.broken_count or plan.defect_modes or plan.dangling:
        return False
    if plan.consistency != Consistency.EQUAL or plan.single_label:
        return False
    if truth.dangling_ns_domains:
        return False
    if not truth.child_ns:
        return False
    return tuple(sorted(truth.child_ns)) == tuple(sorted(truth.parent_ns))


def build_churn_plan(world: World, epoch: int) -> ChurnPlan:
    """Derive epoch *k*'s plan from the epoch k-1 world.

    Deterministic: candidates are enumerated in sorted order and every
    random draw comes from the namespaced :func:`churn_rng` stream.
    """
    if epoch < 1:
        raise ValueError(f"churn epochs start at 1, got {epoch}")
    config = world.config
    rng = churn_rng(config.seed, config.scale, epoch)
    truths = world.truths
    parents = {t.parent for t in truths.values()}

    clean: List[DnsName] = []
    removed: List[DnsName] = []
    for name in sorted(truths):
        if name in parents:
            continue  # leaves only: keeps the changed set self-contained
        truth = truths[name]
        if truth.status == TargetStatus.ALIVE:
            if name in world.child_zones and _is_clean(truth):
                clean.append(name)
        elif truth.status == TargetStatus.REMOVED:
            if _parent_zone(world, truth) is not None:
                removed.append(name)

    pool = list(clean)
    rng.shuffle(pool)
    total = len(clean)
    ops: List[ChurnOp] = []

    def carve(names: Sequence[DnsName]) -> None:
        chosen = set(names)
        pool[:] = [d for d in pool if d not in chosen]

    # Provider migrations (§IV-B style churn).
    provider_keys = sorted(world.providers)
    migrations = pool[: round(MIGRATION_RATE * total)]
    carve(migrations)
    for domain in migrations:
        truth = truths[domain]
        choices = [k for k in provider_keys if k != truth.provider_key]
        key = rng.choice(choices)
        if truth.single_ns:
            layout = NsLayout.SINGLE_IP
        else:
            layout = rng.choice(
                (NsLayout.SINGLE_24, NsLayout.MULTI_24, NsLayout.MULTI_ASN)
            )
        ops.append(
            ChurnOp(
                "migrate", domain, truth.iso2, provider_key=key, layout=layout
            )
        )

    # Delegation deaths: Fig. 6's d_1NS churn dies faster than the
    # multi-NS population, so the two carry separate rates.
    singles = [d for d in pool if truths[d].single_ns]
    multis = [d for d in pool if not truths[d].single_ns]
    drops = (
        singles[: round(SINGLE_DROP_RATE * len(singles))]
        + multis[: round(MULTI_DROP_RATE * len(multis))]
    )
    carve(drops)
    ops.extend(ChurnOp("drop", d, truths[d].iso2) for d in drops)

    # Glue renumbering: private deployments whose nameserver lives
    # inside the domain itself (in-bailiwick glue in child and parent).
    renumberable = [
        d
        for d in pool
        if truths[d].style == STYLE_PRIVATE
        and any(h.is_subdomain_of(d) for h in truths[d].child_ns)
    ]
    renumbers = renumberable[: round(RENUMBER_RATE * total)]
    carve(renumbers)
    for domain in renumbers:
        host = sorted(
            h for h in truths[domain].child_ns if h.is_subdomain_of(domain)
        )[0]
        ops.append(ChurnOp("renumber", domain, truths[domain].iso2, hostname=host))

    # Registry TTL edits: visible to passive DNS, invisible to results.
    ttl_edits = pool[: round(TTL_EDIT_RATE * total)]
    carve(ttl_edits)
    ops.extend(
        ChurnOp("ttl", d, truths[d].iso2, ttl=rng.choice(CHURN_TTLS))
        for d in ttl_edits
    )

    # Re-delegations of previously removed names (delegation re-adds).
    readd_count = min(len(removed), round(READD_RATE * total))
    readds = rng.sample(removed, readd_count) if readd_count else []
    ops.extend(ChurnOp("readd", d, truths[d].iso2) for d in readds)

    ops.sort(key=lambda op: (op.kind, op.domain))
    return ChurnPlan(
        epoch=epoch, seed=config.seed, scale=config.scale, ops=tuple(ops)
    )


class _ChurnApplier:
    """Applies one plan's ops to a world, in place."""

    def __init__(self, world: World, epoch: int) -> None:
        self._world = world
        self._epoch = epoch
        self._counter = 0
        self._system = None
        self._registered: set = set()

    # ------------------------------------------------------------------
    # Address allocation (disjoint from the generator's 0.0.0.0/2)
    # ------------------------------------------------------------------
    def _fresh_address(self) -> IPv4Address:
        index = self._counter
        self._counter += 1
        value = (
            (_CHURN_NET << 24)
            | (((self._epoch - 1) % 250) << 16)
            | ((index // 200) << 8)
            | (index % 200 + 1)
        )
        address = IPv4Address(value)
        prefix = IPv4Prefix(value & 0xFFFFFF00, 24)
        if prefix not in self._registered:
            if self._system is None:
                self._system = self._world.asn_registry.allocate(
                    f"Churn epoch {self._epoch} infrastructure", "US"
                )
            self._world.geoip.add_block(prefix, self._system)
            self._registered.add(prefix)
        return address

    # ------------------------------------------------------------------
    def apply(self, op: ChurnOp) -> None:
        handler = getattr(self, f"_apply_{op.kind}", None)
        if handler is None:
            raise ValueError(f"unknown churn op kind: {op.kind!r}")
        handler(op)

    def _truth_and_parent(self, op: ChurnOp) -> Tuple[DomainTruth, Zone]:
        truth = self._world.truths[op.domain]
        parent_zone = _parent_zone(self._world, truth)
        if parent_zone is None:
            raise ValueError(f"no parent zone for churn target {op.domain}")
        return truth, parent_zone

    def _strip_parent_glue(self, truth: DomainTruth, parent_zone: Zone) -> None:
        for host in truth.parent_ns:
            if not host.is_subdomain_of(truth.name):
                continue
            if parent_zone.get(host, RRType.A) is not None:
                parent_zone.remove(host, RRType.A)

    # ------------------------------------------------------------------
    def _apply_migrate(self, op: ChurnOp) -> None:
        world = self._world
        truth, parent_zone = self._truth_and_parent(op)
        zone = world.child_zones[op.domain]
        instance = world.providers[op.provider_key or ""]
        ns_set = instance.draw_set(op.layout or NsLayout.SINGLE_24)
        if truth.single_ns:
            ns_set = type(ns_set)(ns_set.hosts[:1], ns_set.layout)
        hostnames = tuple(ns_set.hostnames)

        apex = zone.get(zone.origin, RRType.NS)
        zone.add(
            RRset(
                zone.origin,
                RRType.NS,
                apex.ttl if apex else zone.default_ttl,
                tuple(NS(h) for h in hostnames),
            )
        )
        instance.host_zone(zone, ns_set)

        delegation = parent_zone.get(truth.name, RRType.NS)
        parent_zone.add(
            RRset(
                truth.name,
                RRType.NS,
                delegation.ttl if delegation else parent_zone.default_ttl,
                tuple(NS(h) for h in hostnames),
            )
        )
        self._strip_parent_glue(truth, parent_zone)

        truth.style = STYLE_PROVIDER
        truth.provider_key = op.provider_key
        truth.layout = ns_set.layout
        truth.parent_ns = hostnames
        truth.child_ns = hostnames

    def _apply_drop(self, op: ChurnOp) -> None:
        truth, parent_zone = self._truth_and_parent(op)
        self._strip_parent_glue(truth, parent_zone)
        parent_zone.remove(truth.name, RRType.NS)
        truth.status = TargetStatus.REMOVED
        truth.parent_ns = ()
        truth.child_ns = ()
        truth.style = None
        truth.provider_key = None
        truth.layout = None
        truth.plan = None

    def _apply_readd(self, op: ChurnOp) -> None:
        world = self._world
        truth, parent_zone = self._truth_and_parent(op)
        name = truth.name
        count = 1 if truth.single_ns else 2
        hosts = tuple(
            NsHost(
                DnsName.parse(f"ns{index + 1}.{name}"), self._fresh_address()
            )
            for index in range(count)
        )

        zone = Zone(name)
        zone.add(
            RRset(name, RRType.NS, 3600, tuple(NS(h.hostname) for h in hosts))
        )
        zone.add_records(
            name,
            SOA(
                mname=hosts[0].hostname,
                rname=DnsName.parse(f"hostmaster.{name}"),
            ),
        )
        for host in hosts:
            zone.add_records(host.hostname, A(host.address))
        zone.add_records(DnsName.parse(f"www.{name}"), A(self._fresh_address()))
        for host in hosts:
            server = AuthoritativeServer(host.hostname)
            server.load_zone(zone)
            world.network.attach(host.address, server)
        world.child_zones[name] = zone

        parent_zone.add(
            RRset(name, RRType.NS, 3600, tuple(NS(h.hostname) for h in hosts))
        )
        for host in hosts:
            parent_zone.add_records(host.hostname, A(host.address))

        addresses = {h.address for h in hosts}
        prefixes = {a.slash24() for a in addresses}
        truth.status = TargetStatus.ALIVE
        truth.style = STYLE_PRIVATE
        truth.provider_key = None
        truth.layout = (
            NsLayout.SINGLE_IP if len(addresses) == 1 else NsLayout.SINGLE_24
            if len(prefixes) == 1
            else NsLayout.MULTI_24
        )
        truth.parent_ns = tuple(h.hostname for h in hosts)
        truth.child_ns = truth.parent_ns
        truth.plan = FaultPlan()

    def _apply_renumber(self, op: ChurnOp) -> None:
        world = self._world
        truth, parent_zone = self._truth_and_parent(op)
        zone = world.child_zones[op.domain]
        host = op.hostname
        assert host is not None
        address = self._fresh_address()

        existing = zone.get(host, RRType.A)
        zone.add(
            RRset(
                host,
                RRType.A,
                existing.ttl if existing else zone.default_ttl,
                (A(address),),
            )
        )
        glue = parent_zone.get(host, RRType.A)
        if glue is not None:
            parent_zone.add(RRset(host, RRType.A, glue.ttl, (A(address),)))
        server = AuthoritativeServer(host)
        server.load_zone(zone)
        world.network.attach(address, server)

    def _apply_ttl(self, op: ChurnOp) -> None:
        truth, parent_zone = self._truth_and_parent(op)
        delegation = parent_zone.get(truth.name, RRType.NS)
        if delegation is None:
            raise ValueError(f"ttl edit on undelegated domain {op.domain}")
        assert op.ttl is not None
        parent_zone.add(
            RRset(truth.name, RRType.NS, op.ttl, delegation.rdatas)
        )


def apply_churn_plan(world: World, plan: ChurnPlan) -> None:
    """Mutate ``world`` in place per the plan (idempotence not implied:
    apply each epoch's plan exactly once, in epoch order)."""
    applier = _ChurnApplier(world, plan.epoch)
    for op in plan.ops:
        applier.apply(op)


def advance_world(world: World, epoch: int) -> ChurnPlan:
    """Build and apply epoch *k*'s plan in one step; returns the plan."""
    plan = build_churn_plan(world, epoch)
    apply_churn_plan(world, plan)
    return plan


def world_at_epoch(seed: int, scale: float, epoch: int = 0) -> World:
    """The (seed, scale) world advanced to epoch *k*: the one world
    constructor every pipeline calls (epoch 0 is the generated world),
    and the reference the incremental layer's ``as_of`` digests are
    certified against."""
    world = WorldGenerator(WorldConfig(seed=seed, scale=scale)).generate()
    for step in range(1, epoch + 1):
        advance_world(world, step)
    return world
