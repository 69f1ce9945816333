"""Seeded client-population workload generator.

Synthesizes the query stream a recursive resolver serving government
domains would see from a national client population:

- **Per-country Zipf popularity** — within each country, queries
  concentrate on a few hot domains (rank-``r`` weight ``1/r^s``), the
  canonical web-traffic shape.
- **Diurnal curve** — per-country sinusoidal load with a phase offset
  per country, approximating time zones.
- **Burst storms** — short windows in which one country's rate is
  multiplied (a news event, an outage-recovery stampede).
- **Query mix** — mostly ``www.<domain>`` A lookups, plus a slice of
  NXDOMAIN typos (``missing-<k>.<domain>``) and apex-A NODATA lookups,
  so both RFC 2308 negative-cache paths see realistic traffic.

Generation is one pass over one-second steps.  Per-country constants
(base rate, diurnal phase, storm windows) are computed once, the
diurnal angle once per step, and the per-(step, country) arrival count
comes from Knuth's Poisson sampler, inlined.

Determinism contract: :meth:`ClientWorkload.generate` is a pure
function of (target set, config, seed).  Targets are canonicalized
(sorted, deduplicated) before any RNG draw, so caller ordering and
``PYTHONHASHSEED`` cannot perturb the stream — the property the
workload determinism test asserts byte-for-byte.  Arrival times are
*relative offsets* from the serving run's start, so warming the cache
beforehand cannot shift the workload either.
"""

from __future__ import annotations

import hashlib
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from ..dns.name import DnsName
from ..dns.rdata import RRType

__all__ = [
    "ClientQuery",
    "ClientWorkload",
    "WorkloadConfig",
    "targets_from_world",
    "workload_digest",
]

_DAY_SECONDS = 86_400.0


@dataclass(frozen=True)
class ClientQuery:
    """One client lookup: arrival offset, name, type, and provenance."""

    at: float  # seconds after the serving run's start
    qname: DnsName
    qtype: str
    iso2: str
    kind: str  # "popular" | "nxdomain" | "nodata"


@dataclass(frozen=True)
class WorkloadConfig:
    """Shape of the synthetic client population."""

    duration: float = 600.0
    mean_qps: float = 20.0
    zipf_exponent: float = 1.1
    nxdomain_share: float = 0.06
    nodata_share: float = 0.04
    nxdomain_pool: int = 16
    diurnal_amplitude: float = 0.4
    storm_count: int = 2
    storm_duration: float = 30.0
    storm_multiplier: float = 5.0

    def __post_init__(self) -> None:
        if self.duration <= 0:
            raise ValueError(f"duration must be positive: {self.duration}")
        if self.mean_qps <= 0:
            raise ValueError(f"mean_qps must be positive: {self.mean_qps}")
        if self.zipf_exponent <= 0:
            raise ValueError(
                f"zipf_exponent must be positive: {self.zipf_exponent}"
            )
        if self.nxdomain_share < 0 or self.nodata_share < 0:
            raise ValueError("negative-query shares must be >= 0")
        if self.nxdomain_share + self.nodata_share >= 1.0:
            raise ValueError("negative-query shares must sum below 1")
        if self.nxdomain_pool < 1:
            raise ValueError(f"nxdomain_pool must be >= 1: {self.nxdomain_pool}")
        if not 0.0 <= self.diurnal_amplitude < 1.0:
            raise ValueError(
                f"diurnal_amplitude must be in [0, 1): {self.diurnal_amplitude}"
            )
        if self.storm_count < 0:
            raise ValueError(f"storm_count must be >= 0: {self.storm_count}")
        if self.storm_duration <= 0:
            raise ValueError(
                f"storm_duration must be positive: {self.storm_duration}"
            )
        if self.storm_multiplier < 1.0:
            raise ValueError(
                f"storm_multiplier must be >= 1: {self.storm_multiplier}"
            )


def targets_from_world(world) -> List[Tuple[DnsName, str]]:
    """(domain, iso2) pairs for every ground-truth target, sorted."""
    return sorted((truth.name, truth.iso2) for truth in world.truths.values())


class ClientWorkload:
    """Deterministic query-stream generator over a government ecosystem."""

    def __init__(
        self,
        targets: Sequence[Tuple[DnsName, str]],
        config: WorkloadConfig = WorkloadConfig(),
        seed: int = 0,
    ) -> None:
        if not targets:
            raise ValueError("workload needs at least one (domain, iso2) target")
        self._config = config
        self._seed = seed
        # Canonicalize before any RNG draw: generation must be invariant
        # under caller ordering and duplicates.
        unique = sorted(set(targets))
        by_country: Dict[str, List[DnsName]] = {}
        for name, iso2 in unique:
            by_country.setdefault(iso2, []).append(name)
        self._countries: Tuple[str, ...] = tuple(sorted(by_country))
        self._domains: Dict[str, Tuple[DnsName, ...]] = {
            iso2: tuple(by_country[iso2]) for iso2 in self._countries
        }
        total = float(len(unique))
        self._country_share: Dict[str, float] = {
            iso2: len(self._domains[iso2]) / total for iso2 in self._countries
        }
        # Per-country Zipf cumulative weights over the sorted domain list.
        self._zipf_cum: Dict[str, Tuple[float, ...]] = {}
        for iso2 in self._countries:
            cum: List[float] = []
            running = 0.0
            for rank in range(1, len(self._domains[iso2]) + 1):
                running += 1.0 / (rank ** config.zipf_exponent)
                cum.append(running)
            self._zipf_cum[iso2] = tuple(cum)

    @property
    def countries(self) -> Tuple[str, ...]:
        return self._countries

    def _pick_domain(self, iso2: str, rng: random.Random) -> DnsName:
        cum = self._zipf_cum[iso2]
        index = bisect_left(cum, rng.random() * cum[-1])
        if index >= len(cum):
            index = len(cum) - 1
        return self._domains[iso2][index]

    def generate(self) -> Tuple[ClientQuery, ...]:
        """The full query stream, sorted by arrival offset."""
        cfg = self._config
        rng = random.Random(f"serve-workload:{self._seed}")
        storms: List[Tuple[float, float, str]] = []
        for _ in range(cfg.storm_count):
            begin = rng.uniform(
                0.0, max(0.0, cfg.duration - cfg.storm_duration)
            )
            iso2 = self._countries[rng.randrange(len(self._countries))]
            storms.append((begin, begin + cfg.storm_duration, iso2))
        # Everything that does not vary with the step is hoisted: each
        # country's base rate, diurnal phase and storm windows.
        countries = [
            (
                iso2,
                cfg.mean_qps * self._country_share[iso2],
                (2.0 * math.pi * index) / len(self._countries),
                tuple(
                    (begin, end)
                    for begin, end, storm_iso2 in storms
                    if storm_iso2 == iso2
                ),
            )
            for index, iso2 in enumerate(self._countries)
        ]
        amplitude = cfg.diurnal_amplitude
        draw = rng.random
        queries: List[ClientQuery] = []
        for step in range(int(math.ceil(cfg.duration))):
            t = float(step)
            angle = 2.0 * math.pi * ((t % _DAY_SECONDS) / _DAY_SECONDS)
            for iso2, base, phase, windows in countries:
                rate = base * (1.0 + amplitude * math.sin(angle + phase))
                for begin, end in windows:
                    if begin <= t < end:
                        rate *= cfg.storm_multiplier
                # Knuth's Poisson sampler (rates here stay tiny per step,
                # and are always positive: amplitude < 1).  All of this
                # step's draws come before any arrival's own draws.
                limit = math.exp(-rate)
                arrivals = 0
                product = draw()
                while product > limit:
                    arrivals += 1
                    product *= draw()
                for _ in range(arrivals):
                    offset = t + rng.random()
                    domain = self._pick_domain(iso2, rng)
                    mix = rng.random()
                    if mix < cfg.nxdomain_share:
                        qname = domain.prepend(
                            f"missing-{rng.randrange(cfg.nxdomain_pool)}"
                        )
                        kind = "nxdomain"
                    elif mix < cfg.nxdomain_share + cfg.nodata_share:
                        # Apex A: the name exists (SOA/NS) but carries no
                        # A records in the generated zones — a NODATA.
                        qname = domain
                        kind = "nodata"
                    else:
                        qname = domain.prepend("www")
                        kind = "popular"
                    queries.append(
                        ClientQuery(
                            at=offset,
                            qname=qname,
                            qtype=RRType.A,
                            iso2=iso2,
                            kind=kind,
                        )
                    )
        queries.sort(key=lambda q: (q.at, str(q.qname), q.kind))
        return tuple(queries)


def workload_digest(queries: Sequence[ClientQuery]) -> str:
    """sha256 over the canonical rendering of a query stream."""
    hasher = hashlib.sha256()
    for query in queries:
        hasher.update(
            f"{query.at:.9f}|{query.qname}|{query.qtype}|"
            f"{query.iso2}|{query.kind}\n".encode("utf-8")
        )
    return hasher.hexdigest()
