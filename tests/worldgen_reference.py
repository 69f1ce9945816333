"""Direct formulations of the worldgen kernels that were replaced.

``WorldGenerator._registry_zone_for`` walks a name's ancestors and
returns the first registry zone it meets; ``HistoryBuilder`` draws
providers from a ``(keys, cum_weights)`` table it builds once per
(country, year).  These helpers are the forms both replaced: a linear
longest-match scan over every registry zone, and the provider weights
recomputed from scratch on every draw.  The tests use them as the
oracle the faster kernels must match exactly.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dns.name import DnsName
from repro.dns.zone import Zone
from repro.worldgen.config import WorldConfig
from repro.worldgen.countries import CountryProfile
from repro.worldgen.providers import ProviderSpec


def linear_registry_zone_for(
    registry_zones: Mapping[DnsName, Zone], name: DnsName
) -> Optional[Zone]:
    """Longest-match registry zone covering a name, by a full scan."""
    best: Optional[Zone] = None
    for origin, zone in registry_zones.items():
        if name.is_subdomain_of(origin):
            if best is None or len(origin) > len(best.origin):
                best = zone
    return best


def provider_weights(
    config: WorldConfig,
    providers: Sequence[ProviderSpec],
    adoption: Dict[Tuple[str, str], int],
    profile: CountryProfile,
    year: int,
) -> List[Tuple[Optional[str], float]]:
    """Candidate (provider_key|None, weight) pairs for one country-year,
    computed from scratch (``None`` is local hosting)."""
    year = min(max(year, 2011), 2020)
    total_year = config.domains_per_year[year - 2011]
    if year > 2011:
        total_prev = config.domains_per_year[year - 2012]
    else:
        total_prev = total_year * 0.94
    replacement = config.multi_ns_death_rate + 0.05
    total_inflow = max(
        total_year - total_prev * (1 - replacement), total_year * 0.05
    )
    weights: List[Tuple[Optional[str], float]] = []
    for spec in providers:
        adopted = adoption.get((spec.key, profile.iso2))
        if adopted is None or adopted > year:
            continue
        boost = profile.provider_prefs.get(spec.key)
        if boost is not None:
            weights.append((spec.key, boost / 10.0))
            continue
        if year <= 2011:
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
    local_weight = max(0.05, 1.0 - profile.private_rate - catalog_weight)
    weights.append((None, local_weight))
    return weights
