"""Longitudinal evolution: a decade of synthetic government DNS.

A per-country cohort model generates domains with birth and death years
so that yearly population totals track the paper's Figure-2 curve, with
each domain carrying a sequence of deployment *eras* (who hosted its
nameservers, and how many).  The model's moving parts map one-to-one
onto the paper's longitudinal findings:

- single-NS domains are drawn from a higher-churn class, producing the
  Figure-6 overlap decay (≈16%/yr attrition, 2011 cohort ≈21% alive by
  2020) while the total population grows;
- era re-sampling with year-dependent provider weights produces the
  Tables II/III adoption curves (Cloudflare/AWS rising by orders of
  magnitude, 2000s shared hosts declining);
- provider×country adoption years reproduce the geographic-reach growth
  (52 → 85 countries for the most widespread provider);
- China's share is boosted in 2018-2019 and consolidated in 2020,
  producing the Figure-2 dip.

The builder also emits every domain's NS history into a PDNS database,
plus sub-7-day transient noise for the §III-C filter to remove.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import accumulate
from typing import Dict, List, Optional, Sequence, Tuple

from ..dns.name import DnsName
from ..dns.rdata import RRType
from ..inet.clock import SECONDS_PER_DAY, date_to_epoch
from ..pdns.database import PdnsDatabase
from .config import YEARS, WorldConfig
from .countries import CountryProfile
from .providers import PROVIDERS, ProviderSpec

__all__ = [
    "Era",
    "DomainHistory",
    "HistoryResult",
    "HistoryBuilder",
    "STYLE_PRIVATE",
    "STYLE_PROVIDER",
    "STYLE_LOCAL",
]

STYLE_PRIVATE = "private"
STYLE_PROVIDER = "provider"
STYLE_LOCAL = "local"

# Measurement campaign date (April 2021): live records run to here.
PROBE_EPOCH = date_to_epoch(2021, 4, 1)
WINDOW_START = date_to_epoch(2020, 1, 1)

_LABEL_WORDS = (
    "health", "finance", "education", "customs", "tax", "justice",
    "interior", "defense", "agriculture", "energy", "transport",
    "labor", "environment", "tourism", "trade", "culture", "sports",
    "statistics", "treasury", "budget", "police", "courts", "senate",
    "parliament", "president", "cabinet", "mail", "portal", "data",
    "services", "id", "passport", "visa", "registry", "land", "water",
    "mining", "forestry", "fisheries", "science", "archives", "library",
    "census", "elections", "procurement", "pensions", "social",
    "housing", "planning", "municipal", "regional", "digital",
)


@dataclass
class Era:
    """One deployment period: [start_year, end_year] inclusive.

    ``vanity``: a provider-hosted deployment whose NS hostnames are
    in-bailiwick vanity names (``ns1.<domain>``) — only the SOA betrays
    the operator, which is why the paper's §IV-B matches MNAME/RNAME in
    addition to nameserver names.
    """

    __slots__ = ("start_year", "end_year", "style", "provider_key",
                 "ns_hostnames", "ns_count", "vanity")

    start_year: int
    end_year: int  # inclusive; the probe year (2021) means "still open"
    style: str
    provider_key: Optional[str]
    ns_hostnames: Tuple[str, ...]
    ns_count: int
    vanity: bool


@dataclass
class DomainHistory:
    """One domain's decade in the synthetic world."""

    __slots__ = ("name", "iso2", "level", "parent", "birth_year",
                 "death_year", "churny", "disposable", "cluster",
                 "eras", "single_ns")

    name: DnsName
    iso2: str
    level: int
    parent: DnsName
    birth_year: int
    death_year: Optional[int]  # None = alive at the probe date
    churny: bool
    disposable: bool
    cluster: Optional[str]
    eras: List[Era]
    single_ns: bool

    @property
    def alive_at_probe(self) -> bool:
        return self.death_year is None

    def alive_in(self, year: int) -> bool:
        if year < self.birth_year:
            return False
        return self.death_year is None or year <= self.death_year

    def era_in(self, year: int) -> Optional[Era]:
        for era in self.eras:
            if era.start_year <= year <= era.end_year:
                return era
        return None

    @property
    def seen_in_window(self) -> bool:
        """Seen in PDNS between January 2020 and the probe date."""
        return self.death_year is None or self.death_year >= 2020


@dataclass
class ClusterInfo:
    """A subtree that died wholesale mid-2020 (orphan parent zones)."""

    cluster_id: str
    root: DnsName
    iso2: str
    root_level: int


@dataclass
class HistoryResult:
    """Everything the longitudinal stage produced."""

    domains: List[DomainHistory]
    clusters: List[ClusterInfo]
    adoption_year: Dict[Tuple[str, str], int]  # (provider, iso2) → year
    by_country: Dict[str, List[DomainHistory]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.by_country:
            for domain in self.domains:
                self.by_country.setdefault(domain.iso2, []).append(domain)

    def targets(self) -> List[DomainHistory]:
        """The active-probe candidate list: non-disposable names seen in
        the 2020-01 → 2021-02 window (the paper's 147k)."""
        return [
            d for d in self.domains
            if d.seen_in_window and not d.disposable
        ]


class HistoryBuilder:
    """Runs the cohort model for every country."""

    def __init__(
        self,
        config: WorldConfig,
        profiles: Sequence[CountryProfile],
        providers: Sequence[ProviderSpec] = PROVIDERS,
    ) -> None:
        self._config = config
        self._profiles = list(profiles)
        self._providers = list(providers)
        self._specs = {spec.key: spec for spec in self._providers}
        self._rng = random.Random(config.seed * 1_000_003 + 17)
        self._adoption = self._build_adoption_years()
        self._ns_serial = 0
        # (iso2, clamped year) → (keys, cum_weights) for provider draws.
        self._provider_tables: Dict[
            Tuple[str, int], Tuple[List[Optional[str]], List[float]]
        ] = {}
        counts = config.ns_count_weights
        self._ns_counts = list(counts)
        self._ns_count_cum = list(accumulate(counts[c] for c in counts))

    # ------------------------------------------------------------------
    # Provider geographic adoption
    # ------------------------------------------------------------------
    def _build_adoption_years(self) -> Dict[Tuple[str, str], int]:
        """(provider, iso2) → first year the provider serves the country.

        Ordered per provider: home country, preferred countries, then a
        seed-deterministic shuffle of the rest.  The first
        ``countries_2011`` adopt before 2011; adoption then ramps so the
        2020 count matches ``countries_2020``.
        """
        adoption: Dict[Tuple[str, str], int] = {}
        iso_codes = [p.iso2 for p in self._profiles]
        pref_lookup = {
            p.iso2: p.provider_prefs for p in self._profiles
        }
        weight_lookup = {p.iso2: p.weight for p in self._profiles}
        max_weight = max(weight_lookup.values()) or 1.0
        for spec in self._providers:
            if spec.restricted_to:
                candidates = [c for c in spec.restricted_to if c in iso_codes]
            else:
                rng = random.Random(f"{self._config.seed}:{spec.key}:adopt")
                # Providers enter big markets first (jittered), so the
                # early-adopter list covers most of the domain mass.
                candidates = sorted(
                    iso_codes,
                    key=lambda code: (
                        code != spec.home_country,
                        spec.key not in pref_lookup.get(code, {}),
                        -(weight_lookup[code] / max_weight)
                        + rng.uniform(0, 0.35),
                    ),
                )
            early = spec.countries_2011
            total = max(spec.countries_2020, early)
            for rank, iso2 in enumerate(candidates):
                if rank < early:
                    adoption[(spec.key, iso2)] = 2010
                elif rank < total:
                    ramp = (rank - early + 1) / max(1, total - early)
                    adoption[(spec.key, iso2)] = 2011 + max(
                        1, round(ramp * 9)
                    )
                else:
                    break
        return adoption

    def adoption_for(self, provider_key: str, iso2: str) -> Optional[int]:
        return self._adoption.get((provider_key, iso2))

    # ------------------------------------------------------------------
    # Deployment sampling
    # ------------------------------------------------------------------
    def _provider_weights(
        self, profile: CountryProfile, year: int
    ) -> List[Tuple[Optional[str], float]]:
        """Candidate (provider_key|None, weight) pairs for one year.

        ``None`` stands for local (in-country, non-catalog) hosting.

        Weights are *flow*-calibrated: deployments are mostly sampled
        once (at a domain's birth or on a rare provider switch), so the
        standing stock in year Y is an average over cohort birth years.
        To make the 2020 stock hit the Tables II/III targets for
        providers growing by orders of magnitude, the sampling weight
        tracks each provider's net inflow (Δstock plus replacement of
        churned customers), not its instantaneous stock share.
        """
        config = self._config
        year = min(max(year, 2011), 2020)
        total_year = config.domains_per_year[year - 2011]
        # Approximate yearly inflow across the whole population:
        # births (growth + death replacement) plus provider switches.
        if year > 2011:
            total_prev = config.domains_per_year[year - 2012]
        else:
            total_prev = total_year * 0.94
        replacement = config.multi_ns_death_rate + 0.05  # deaths + switches
        total_inflow = max(
            total_year - total_prev * (1 - replacement), total_year * 0.05
        )
        weights: List[Tuple[Optional[str], float]] = []
        for spec in self._providers:
            adopted = self._adoption.get((spec.key, profile.iso2))
            if adopted is None or adopted > year:
                continue
            boost = profile.provider_prefs.get(spec.key)
            if boost is not None:
                # Preference values are absolute stock shares within the
                # country (e.g. HiChina at 0.38 of gov.cn); these
                # providers hold steady shares, so flow ≈ stock.
                weights.append((spec.key, boost / 10.0))
                continue
            if year <= 2011:
                # The opening cohort IS the 2011 stock.
                weights.append(
                    (spec.key, spec.domains_in(year) / max(total_year, 1.0))
                )
                continue
            stock_now = spec.domains_in(year)
            stock_prev = spec.domains_in(year - 1)
            inflow = max(
                stock_now - stock_prev * (1 - replacement),
                stock_now * 0.02,
            )
            weights.append((spec.key, min(0.45, inflow / total_inflow)))
        catalog_weight = sum(w for _, w in weights)
        local_weight = max(
            0.05, 1.0 - profile.private_rate - catalog_weight
        )
        weights.append((None, local_weight))
        return weights

    def _provider_table(
        self, profile: CountryProfile, year: int
    ) -> Tuple[List[Optional[str]], List[float]]:
        """``_provider_weights`` as (keys, cum_weights), built once per
        (country, clamped year).

        ``choices(keys, cum_weights=…)`` runs exactly what
        ``choices(keys, weights=…)`` runs after accumulating, so a draw
        from the table consumes and picks as a fresh computation would.
        """
        key = (profile.iso2, min(max(year, 2011), 2020))
        table = self._provider_tables.get(key)
        if table is None:
            weights = self._provider_weights(profile, key[1])
            table = (
                [provider for provider, _ in weights],
                list(accumulate(weight for _, weight in weights)),
            )
            self._provider_tables[key] = table
        return table

    def _sample_style(
        self, profile: CountryProfile, year: int, single_ns: bool
    ) -> Tuple[str, Optional[str]]:
        config = self._config
        private_p = (
            config.private_share_single_ns if single_ns else profile.private_rate
        )
        if self._rng.random() < private_p:
            return STYLE_PRIVATE, None
        keys, cum_weights = self._provider_table(profile, year)
        picked = self._rng.choices(keys, cum_weights=cum_weights, k=1)[0]
        if picked is None:
            return STYLE_LOCAL, None
        return STYLE_PROVIDER, picked

    def _sample_ns_count(self, single_ns: bool) -> int:
        if single_ns:
            return 1
        return self._rng.choices(
            self._ns_counts, cum_weights=self._ns_count_cum, k=1
        )[0]

    def _era_hostnames(
        self,
        domain_name: DnsName,
        profile: CountryProfile,
        style: str,
        provider_key: Optional[str],
        ns_count: int,
        vanity: bool = False,
    ) -> Tuple[str, ...]:
        if style == STYLE_PROVIDER and vanity:
            # Vanity-branded managed DNS: in-bailiwick names fronting
            # the provider's servers.
            return tuple(
                f"ns{i + 1}.{domain_name}" for i in range(max(2, ns_count))
            )
        if style == STYLE_PROVIDER:
            assert provider_key is not None
            spec = self._specs[provider_key]
            pool = max(4, self._config.provider_pool_sets // 4)
            set_index = self._rng.randrange(1, pool + 1)
            hostnames = spec.make_ns_set(set_index)
            return hostnames[:ns_count] if ns_count < len(hostnames) else hostnames
        if style == STYLE_LOCAL:
            hoster_index = self._rng.randrange(1, 4)
            base = f"webhost{hoster_index}.{profile.cctld}"
            return tuple(f"ns{i + 1}.{base}" for i in range(ns_count))
        return tuple(f"ns{i + 1}.{domain_name}" for i in range(ns_count))

    def _make_era(
        self,
        domain_name: DnsName,
        profile: CountryProfile,
        year: int,
        single_ns: bool,
    ) -> Era:
        style, provider_key = self._sample_style(profile, year, single_ns)
        ns_count = self._sample_ns_count(single_ns)
        vanity = (
            style == STYLE_PROVIDER
            and not single_ns
            and self._rng.random() < 0.08
        )
        hostnames = self._era_hostnames(
            domain_name, profile, style, provider_key, ns_count, vanity
        )
        return Era(
            start_year=year,
            end_year=2021,
            style=style,
            provider_key=provider_key,
            ns_hostnames=hostnames,
            ns_count=len(hostnames),
            vanity=vanity,
        )

    # ------------------------------------------------------------------
    # Names
    # ------------------------------------------------------------------
    def _fresh_label(self) -> str:
        self._ns_serial += 1
        word = _LABEL_WORDS[self._ns_serial % len(_LABEL_WORDS)]
        return f"{word}{self._ns_serial}"

    def _disposable_label(self) -> str:
        self._ns_serial += 1
        token = f"{self._rng.getrandbits(48):012x}"
        return f"x{token}"

    def _domain_name(
        self,
        profile: CountryProfile,
        suffix: DnsName,
        disposable: bool,
        intermediates: List[DnsName],
    ) -> Tuple[DnsName, int, DnsName]:
        """(name, level, parent-zone origin) for a new domain under the
        country's government ``suffix``."""
        label = (
            self._disposable_label() if disposable else self._fresh_label()
        )
        f3, f4, f5 = profile.depth_split
        draw = self._rng.random()
        if intermediates and draw < f4 + f5:
            parent = intermediates[self._rng.randrange(len(intermediates))]
            name = parent.prepend(label)
            if draw < f5 and not disposable:
                name = name.prepend(self._fresh_label())
            return name, name.level, parent
        # Level-2 seeds (rare) live directly under the ccTLD.
        if draw > f3 + f4 + f5 and not profile.seed_is_registered_domain:
            cctld = DnsName.parse(profile.cctld)
            name = cctld.prepend(label)
            return name, name.level, cctld
        name = suffix.prepend(label)
        return name, name.level, suffix

    # ------------------------------------------------------------------
    # The cohort loop
    # ------------------------------------------------------------------
    def build(self) -> HistoryResult:
        config = self._config
        total_weight = sum(p.weight for p in self._profiles)
        domains: List[DomainHistory] = []
        clusters: List[ClusterInfo] = []

        for profile in self._profiles:
            share = profile.weight / total_weight
            country_domains, country_clusters = self._build_country(
                profile, share
            )
            domains.extend(country_domains)
            clusters.extend(country_clusters)

        return HistoryResult(
            domains=domains,
            clusters=clusters,
            adoption_year=dict(self._adoption),
        )

    def _year_multiplier(self, iso2: str, year: int) -> float:
        """China's 2018-19 bulge and 2020 consolidation (Figure 2 dip)."""
        if iso2 != "CN":
            return 1.0
        return {2018: 1.10, 2019: 1.22, 2020: 1.0}.get(year, 1.0)

    def _build_country(
        self, profile: CountryProfile, share: float
    ) -> Tuple[List[DomainHistory], List[ClusterInfo]]:
        config = self._config
        rng = self._rng

        # Intermediate (level-3) zones used for deeper names.
        suffix = DnsName.parse(profile.gov_suffix)
        f3, f4, f5 = profile.depth_split
        intermediate_count = 0
        if f4 + f5 > 0.02:
            expected = share * config.domains_per_year[-1] * config.scale
            intermediate_count = max(1, min(30, round(expected * (f4 + f5) / 18)))
        intermediates = [
            suffix.prepend(f"region{i + 1}") for i in range(intermediate_count)
        ]

        alive: List[DomainHistory] = []
        all_domains: List[DomainHistory] = []

        # Intermediates are themselves domains, born early and stable.
        for origin in intermediates:
            era = self._make_era(origin, profile, 2011, single_ns=False)
            era.start_year = 2011
            history = DomainHistory(
                name=origin,
                iso2=profile.iso2,
                level=origin.level,
                parent=suffix,
                birth_year=2011,
                death_year=None,
                churny=False,
                disposable=False,
                cluster=None,
                eras=[era],
                single_ns=False,
            )
            alive.append(history)
            all_domains.append(history)

        for year in YEARS:
            target = round(
                share
                * config.domains_per_year[year - 2011]
                * config.scale
                * self._year_multiplier(profile.iso2, year)
            )
            if year > 2011:
                survivors = []
                for domain in alive:
                    death_rate = (
                        config.single_ns_death_rate
                        if domain.churny
                        else config.multi_ns_death_rate
                    )
                    if rng.random() < death_rate:
                        domain.death_year = year - 1
                        domain.eras[-1].end_year = year - 1
                    else:
                        survivors.append(domain)
                alive = survivors
                # Era switching for survivors (provider migrations).
                for domain in alive:
                    if domain.disposable or rng.random() >= 0.07:
                        continue
                    domain.eras[-1].end_year = year - 1
                    domain.eras.append(
                        self._make_era(
                            domain.name, profile, year, domain.single_ns
                        )
                    )

            births = max(0, target - len(alive))
            for _ in range(births):
                disposable = rng.random() < config.disposable_rate
                single = (not disposable) and rng.random() < profile.single_ns_rate
                name, level, parent = self._domain_name(
                    profile, suffix, disposable, intermediates
                )
                era = self._make_era(name, profile, year, single)
                era.start_year = year
                history = DomainHistory(
                    name=name,
                    iso2=profile.iso2,
                    level=level,
                    parent=parent,
                    birth_year=year,
                    death_year=None,
                    churny=single or disposable or rng.random() < 0.10,
                    disposable=disposable,
                    cluster=None,
                    eras=[era],
                    single_ns=single,
                )
                alive.append(history)
                all_domains.append(history)

        clusters = self._carve_clusters(profile, suffix, alive, all_domains)
        return all_domains, clusters

    def _carve_clusters(
        self,
        profile: CountryProfile,
        suffix: DnsName,
        alive: List[DomainHistory],
        all_domains: List[DomainHistory],
    ) -> List[ClusterInfo]:
        """Mark orphan clusters: parent zones that died mid-2020 with
        their delegations left in place, stranding their children.

        At paper scale ~22% of probe targets are unreachable through
        their parent; we assign that share of this country's in-window
        population to clusters.
        """
        config = self._config
        rng = self._rng
        window = [
            d for d in alive
            if not d.disposable and d.cluster is None and d.level >= 3
        ]
        want = round(len(window) * config.parent_unresponsive_rate)
        # Below this size a country contributes no orphan clusters: a
        # dead parent zone with one or two children is not the pattern
        # the paper describes, and a forest of tiny cluster roots would
        # inflate the fully-defective share.
        if want < 8:
            return []
        clusters: List[ClusterInfo] = []
        per_cluster = 25 if want >= 25 else want
        assigned = 0
        cluster_index = 0
        pool = list(window)
        rng.shuffle(pool)
        while assigned < want and pool:
            cluster_index += 1
            cluster_id = f"{profile.iso2}-cluster{cluster_index}"
            root = suffix.prepend(f"legacy{cluster_index}")
            members = pool[: per_cluster]
            pool = pool[per_cluster:]
            # Re-home members under the cluster root (they become
            # children of the dead zone).
            for member in members:
                member.cluster = cluster_id
                member.name = root.prepend(member.name.labels[0])
                member.level = member.name.level
                member.parent = root
                # Their records stop when the cluster dies.
                member.death_year = 2020
                for era in member.eras:
                    era.end_year = min(era.end_year, 2020)
                assigned += 1
            # The root itself is an alive-but-stale domain (its
            # delegation stays in the suffix zone).
            root_era = self._make_era(root, profile, 2015, single_ns=False)
            root_era.start_year = min(2015, min(m.birth_year for m in members))
            root_history = DomainHistory(
                name=root,
                iso2=profile.iso2,
                level=root.level,
                parent=suffix,
                birth_year=root_era.start_year,
                death_year=None,  # delegation never cleaned up
                churny=False,
                disposable=False,
                cluster=cluster_id,
                eras=[root_era],
                single_ns=False,
            )
            all_domains.append(root_history)
            clusters.append(
                ClusterInfo(
                    cluster_id=cluster_id,
                    root=root,
                    iso2=profile.iso2,
                    root_level=root.level,
                )
            )
        return clusters

    # ------------------------------------------------------------------
    # PDNS emission
    # ------------------------------------------------------------------
    def emit_pdns(
        self, result: HistoryResult, database: PdnsDatabase
    ) -> int:
        """Write every domain's NS history into the PDNS database.

        Returns the number of rows written.  Adds sub-threshold
        transient noise records for the §III-C filter to remove.
        """
        config = self._config
        rng = random.Random(config.seed * 7_368_787 + 3)
        # Eras start in 2011-2020 and end by 2021; transients use YEARS.
        year_start = {
            year: date_to_epoch(year) for year in range(YEARS[0], YEARS[-1] + 2)
        }
        rows = 0
        for domain in result.domains:
            for index, era in enumerate(domain.eras):
                first = year_start[era.start_year] + rng.uniform(
                    0, 180 * SECONDS_PER_DAY
                )
                if era.end_year >= 2021:
                    last = PROBE_EPOCH - rng.uniform(0, 20 * SECONDS_PER_DAY)
                else:
                    next_start = year_start[era.end_year + 1]
                    last = next_start - rng.uniform(0, 180 * SECONDS_PER_DAY)
                    if index < len(domain.eras) - 1 and rng.random() < 0.5:
                        # Update lag: a replaced NS set keeps being
                        # observed (cached referrals, slow parent
                        # cleanup) well into the successor's first year.
                        last = next_start + rng.uniform(30, 150) * SECONDS_PER_DAY
                if last <= first:
                    last = first + 30 * SECONDS_PER_DAY
                for hostname in era.ns_hostnames:
                    # Sensors pick up each nameserver independently, so
                    # the per-record windows are slightly staggered —
                    # which is exactly why the paper summarizes a year
                    # by the *mode* of the daily count rather than the
                    # minimum (a brief one-server observation window at
                    # a deployment's edges is not a 1-NS deployment).
                    first_h = first + rng.uniform(0, 12 * SECONDS_PER_DAY)
                    last_h = max(
                        first_h + SECONDS_PER_DAY,
                        last - rng.uniform(0, 12 * SECONDS_PER_DAY),
                    )
                    database.observe_span(
                        domain.name,
                        RRType.NS,
                        hostname,
                        first_h,
                        last_h,
                        count=max(1, int((last_h - first_h) / SECONDS_PER_DAY)),
                    )
                    rows += 1
                if era.vanity and era.provider_key is not None:
                    # Vanity deployments hide the provider in the NS
                    # names; the SOA still names it (MNAME/RNAME), which
                    # is the signal §IV-B's identification exploits.
                    spec = self._specs[era.provider_key]
                    mname = spec.make_ns_set(1)[0].rstrip(".") + "."
                    rname = (
                        spec.soa_rname.rstrip(".") + "."
                        if spec.soa_rname
                        else f"hostmaster.{spec.ns_domains[0]}."
                    )
                    database.observe_span(
                        domain.name,
                        RRType.SOA,
                        f"{mname} {rname} 1 7200 900 1209600 3600",
                        first,
                        last,
                    )
                    rows += 1
            if rng.random() < config.transient_record_rate:
                year = rng.choice(YEARS)
                start = year_start[year] + rng.uniform(0, 300 * SECONDS_PER_DAY)
                duration = rng.uniform(0.2, config.transient_max_days)
                database.observe_span(
                    domain.name,
                    RRType.NS,
                    f"tmp-ns.flux{rng.randrange(100)}.net.",
                    start,
                    start + duration * SECONDS_PER_DAY,
                )
                rows += 1
        return rows
