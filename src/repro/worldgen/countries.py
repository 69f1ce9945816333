"""Per-country e-government profiles for world generation.

A :class:`CountryProfile` carries everything the generator needs to
synthesize one country's government DNS estate: its ccTLD and government
suffix idiom, national-portal host, relative share of the global domain
population, namespace depth structure, and calibration overrides for the
pathology rates the paper reports per country (Table I diversity, Figure
8/9 single-NS behaviour, Figure 10 defective-delegation hot spots).

Real facts here: country identities, ccTLDs, suffix idioms (``gob.mx``,
``go.th``, ``gov.uk``…), and the handful of seed-selection special cases
the paper §III-A narrates (Norway's registered domain; the three
suffixes whose reservation could not be verified).  Counts and rates are
calibration targets copied from the paper's tables.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Tuple

from ..geo.regions import UN_MEMBERS, Country

__all__ = [
    "CountryProfile",
    "build_profiles",
    "TOP10_ISO2",
    "PAPER_RESPONSIVE_TOTAL",
]

# Table I: the ten countries with the most responsive multi-NS domains.
_TOP10_COUNTS: Dict[str, int] = {
    "CN": 13_623,
    "TH": 8_941,
    "BR": 7_271,
    "MX": 5_256,
    "GB": 4_788,
    "TR": 4_528,
    "IN": 4_426,
    "AU": 3_707,
    "UA": 3_421,
    "AR": 2_795,
}
TOP10_ISO2: Tuple[str, ...] = tuple(_TOP10_COUNTS)

# The paper's active campaign: ~96k domains with a non-empty response.
PAPER_RESPONSIVE_TOTAL = 96_000

# ccTLD differs from ISO2 for the United Kingdom.
_CCTLD_OVERRIDES = {"GB": "uk"}

# Government-suffix idiom: second label under the ccTLD.
_GOB = {"MX", "ES", "SV", "HN", "NI", "PA", "PE", "VE", "BO", "EC", "CL", "AR"}
_GO = {"TH", "JP", "KE", "TZ", "ID", "KR", "UG"}

# Table I per-country diversity: (P[|IP|>1], P[|/24|>1], P[|ASN|>1]).
_DIVERSITY_OVERRIDES: Dict[str, Tuple[float, float, float]] = {
    "CN": (0.973, 0.957, 0.524),
    "TH": (0.361, 0.317, 0.136),
    "BR": (0.957, 0.544, 0.137),
    "MX": (0.900, 0.674, 0.257),
    "GB": (0.997, 0.961, 0.255),
    "TR": (0.911, 0.726, 0.421),
    "IN": (0.934, 0.841, 0.106),
    "AU": (0.992, 0.917, 0.090),
    "UA": (0.990, 0.623, 0.451),
    "AR": (0.976, 0.718, 0.305),
}

# Figure 8/9 hot spots: countries with ≥10% single-NS domains, and the
# three where over half the d_1NS never answered (stale).  Rates are
# PDNS-wide shares; the responsive-only share is lower because many
# single-NS domains are stale.
_HIGH_SINGLE_NS = {
    "ID": 0.14, "KG": 0.16, "MX": 0.11, "BO": 0.25, "BG": 0.20,
    "BF": 0.25, "AE": 0.20, "VE": 0.12, "DZ": 0.12, "SY": 0.13,
    "NP": 0.11, "KH": 0.12, "SN": 0.11, "AM": 0.10, "MD": 0.10,
}
# Top-10 overrides (defaults would underweight the global average).
_SINGLE_NS_TOP10 = {
    "CN": 0.020, "TH": 0.050, "BR": 0.030, "GB": 0.005, "TR": 0.030,
    "IN": 0.030, "AU": 0.005, "UA": 0.040, "AR": 0.030,
}
_HIGH_STALE_SINGLE_NS = {"ID": 0.80, "KG": 0.75, "MX": 0.70}

# Figure 10/11: countries whose suffixes carry large numbers of stale,
# partially defective delegations (many sharing dead nameservers).
_HIGH_DEFECTIVE = {
    "TR": 0.33, "BR": 0.30, "MX": 0.31, "TH": 0.27, "VE": 0.28,
    "ID": 0.26, "UA": 0.24, "AR": 0.24, "IN": 0.22, "EC": 0.24,
}

# §IV-A provider concentration within gov.cn and fragmentation in gov.br.
_PROVIDER_PREFS: Dict[str, Dict[str, float]] = {
    "CN": {"hichina": 3.8, "xincache": 1.9, "dns-diy": 1.08, "dnspod": 0.7},
    "BR": {"hostgator": 0.6},
    "TH": {},  # Thailand is dominated by private single-host deployments
}

# Share of domains at DNS-hierarchy levels (3, 4, 5) — remainder at 2.
# Brazil's state suffixes put over half its domains at level 4.
_DEPTH_OVERRIDES: Dict[str, Tuple[float, float, float]] = {
    "BR": (0.40, 0.55, 0.04),
    "CN": (0.92, 0.07, 0.01),
    "GB": (0.93, 0.06, 0.01),
    "AU": (0.90, 0.09, 0.01),
}

# Countries whose government estate hangs off a registered domain rather
# than a reserved suffix (paper §III-A).
_REGISTERED_DOMAIN_SEEDS = {
    "NO": "regjeringen.no",
    "LA": "laogov.gov.la",
    "TL": "timor-leste.gov.tl",
    "JM": "jis.gov.jm",
}
# Of those, these three are under gov-style suffixes whose reservation
# could not be verified in registry documentation.
_UNDOCUMENTED_SUFFIXES = {"LA", "TL", "JM"}

# §III-A link pathologies in the UN Knowledge Base: unresolvable portal
# links (11 countries), MSQ/link mismatches (2), and one link pointing
# at a third-party ad domain.
# Together with the two MSQ-mismatch countries these make the paper's
# eleven unresolvable portal links.
UNRESOLVABLE_PORTAL_ISO2: Tuple[str, ...] = (
    "KP", "ER", "TD", "CF", "GQ", "SO", "YE", "NR", "SS",
)
MSQ_MISMATCH_ISO2: Tuple[str, ...] = ("TM", "GW")
AD_PARKED_PORTAL_ISO2: str = "HT"

__all__ += [
    "UNRESOLVABLE_PORTAL_ISO2",
    "MSQ_MISMATCH_ISO2",
    "AD_PARKED_PORTAL_ISO2",
]


@dataclass(frozen=True)
class CountryProfile:
    """Everything worldgen knows about one country's e-government DNS."""

    country: Country
    cctld: str
    gov_suffix: str  # presentation form without trailing dot, e.g. "gov.au"
    suffix_is_reserved: bool
    suffix_documented: bool
    seed_is_registered_domain: bool
    portal_host: str
    weight: float  # share of the global responsive-domain population
    depth_split: Tuple[float, float, float]  # level 3, 4, 5 fractions
    diversity: Tuple[float, float, float]
    single_ns_rate: float
    single_ns_stale_rate: float
    defective_rate: float
    inconsistency_rate: float
    private_rate: float
    provider_prefs: Dict[str, float] = field(default_factory=dict)

    @property
    def iso2(self) -> str:
        return self.country.iso2


def _hash_unit(token: str) -> float:
    """Deterministic uniform draw in [0, 1) from a string."""
    digest = hashlib.sha256(token.encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


def _suffix_for(iso2: str, cctld: str) -> str:
    if iso2 in _REGISTERED_DOMAIN_SEEDS:
        return _REGISTERED_DOMAIN_SEEDS[iso2]
    if iso2 in _GOB:
        return f"gob.{cctld}"
    if iso2 in _GO:
        return f"go.{cctld}"
    return f"gov.{cctld}"


def _tail_weights(tail_iso2: list[str], total_share: float) -> Dict[str, float]:
    """Zipf-flavoured weights for the long tail of countries.

    Rank order is a deterministic hash of the ISO code, exponent 0.9 —
    reproducing Figure 4's four-orders-of-magnitude spread.
    """
    ranked = sorted(tail_iso2, key=lambda code: _hash_unit("rank:" + code))
    raw = {code: 1.0 / (rank + 1) ** 0.9 for rank, code in enumerate(ranked)}
    norm = sum(raw.values())
    return {code: total_share * value / norm for code, value in raw.items()}


def build_profiles() -> Tuple[CountryProfile, ...]:
    """Profiles for all 193 UN member states."""
    top10_total = sum(_TOP10_COUNTS.values())
    top10_share = top10_total / PAPER_RESPONSIVE_TOTAL  # ≈ 0.61
    tail_iso2 = [c.iso2 for c in UN_MEMBERS if c.iso2 not in _TOP10_COUNTS]
    tail = _tail_weights(tail_iso2, 1.0 - top10_share)

    profiles = []
    for country in UN_MEMBERS:
        iso2 = country.iso2
        cctld = _CCTLD_OVERRIDES.get(iso2, iso2.lower())
        suffix = _suffix_for(iso2, cctld)
        registered_seed = iso2 in _REGISTERED_DOMAIN_SEEDS

        if iso2 in _TOP10_COUNTS:
            weight = _TOP10_COUNTS[iso2] / PAPER_RESPONSIVE_TOTAL
        else:
            weight = tail[iso2]

        diversity = _DIVERSITY_OVERRIDES.get(
            iso2,
            # Global residual after the top 10: totals in Table I are
            # 89.8/71.5/32.9 with the top-10 mix; the tail default sits
            # near those aggregates.
            (0.93, 0.75, 0.38),
        )

        single_ns_rate = _HIGH_SINGLE_NS.get(
            iso2, _SINGLE_NS_TOP10.get(iso2, 0.030)
        )
        single_ns_stale = _HIGH_STALE_SINGLE_NS.get(iso2, 0.55)
        defective = _HIGH_DEFECTIVE.get(iso2, 0.22)
        inconsistency = 0.27 if iso2 not in ("GB", "AU") else 0.13
        private = {
            "TH": 0.70, "CN": 0.18, "BR": 0.45, "GB": 0.25, "IN": 0.55,
            "TR": 0.40, "UA": 0.35,
        }.get(iso2, 0.30)

        depth = _DEPTH_OVERRIDES.get(iso2, (0.854, 0.109, 0.012))

        portal = {
            "AU": "www.australia.gov.au",
            "NO": "www.regjeringen.no",
            "GB": "www.gov.uk",
        }.get(iso2, f"www.{suffix}")

        profiles.append(
            CountryProfile(
                country=country,
                cctld=cctld,
                gov_suffix=suffix,
                suffix_is_reserved=not registered_seed or iso2 in _UNDOCUMENTED_SUFFIXES,
                suffix_documented=iso2 not in _UNDOCUMENTED_SUFFIXES,
                seed_is_registered_domain=registered_seed,
                portal_host=portal,
                weight=weight,
                depth_split=depth,
                diversity=diversity,
                single_ns_rate=single_ns_rate,
                single_ns_stale_rate=single_ns_stale,
                defective_rate=defective,
                inconsistency_rate=inconsistency,
                private_rate=private,
                provider_prefs=_PROVIDER_PREFS.get(iso2, {}),
            )
        )
    return tuple(profiles)
