"""The worldgen kernels against their direct formulations.

``tests/worldgen_reference.py`` keeps the forms the kernels replaced: a
linear longest-match registry-zone scan and provider weights recomputed
on every draw.  The faster kernels must agree with them exactly, and a
draw from a cumulative-weight table must pick what a draw from the
plain weights picks, from the same random state.
"""

from __future__ import annotations

import random
from itertools import accumulate

from hypothesis import given, settings, strategies as st

from repro.dns.name import DnsName
from repro.worldgen.config import WorldConfig
from repro.worldgen.countries import build_profiles
from repro.worldgen.faults import FaultSampler
from repro.worldgen.generator import WorldGenerator
from repro.worldgen.history import HistoryBuilder
from repro.worldgen.providers import PROVIDERS

from .worldgen_reference import linear_registry_zone_for, provider_weights


def _world_names(world):
    names = {DnsName.parse("unbuilt.invalid.")}
    for zones in (world.registry_zones, world.child_zones):
        for zone in zones.values():
            for rrset in zone.rrsets():
                names.add(rrset.name)
                for rdata in rrset.rdatas:
                    names.update(
                        value
                        for value in vars(rdata).values()
                        if isinstance(value, DnsName)
                    )
    names.update(world.truths)
    names.update(domain.name for domain in world.history.domains)
    names.update(record.rrname for record in world.pdns)
    return sorted(names)


class TestRegistryZoneLookup:
    def test_ancestor_walk_matches_the_linear_scan(self):
        generator = WorldGenerator(WorldConfig(seed=7, scale=0.004))
        world = generator.generate()
        names = _world_names(world)
        zones = dict(generator._registry_zones)
        # With the root every name is covered; without it, names under
        # no built TLD are covered by nothing and both must say None.
        for registry in (zones, {k: v for k, v in zones.items() if not k.is_root}, {}):
            generator._registry_zones = registry
            uncovered = 0
            for name in names:
                expected = linear_registry_zone_for(registry, name)
                assert generator._registry_zone_for(name) is expected, name
                uncovered += expected is None
            assert (uncovered == 0) == bool(registry and DnsName(()) in registry)


class TestProviderTable:
    def test_cached_table_matches_fresh_weights(self):
        config = WorldConfig(seed=7, scale=0.02)
        profiles = build_profiles()
        builder = HistoryBuilder(config, profiles)
        adoption = builder.build().adoption_year
        for profile in profiles:
            # Years outside 2011-2020 clamp onto the end tables.
            for year in range(2009, 2023):
                weights = provider_weights(
                    config, PROVIDERS, adoption, profile, year
                )
                keys, cum_weights = builder._provider_table(profile, year)
                assert keys == [key for key, _ in weights]
                assert cum_weights == list(accumulate(w for _, w in weights))


class TestCumulativeDraws:
    @settings(max_examples=300, deadline=None)
    @given(
        weights=st.lists(
            st.floats(min_value=1e-9, max_value=1e9), min_size=1, max_size=12
        ),
        seed=st.integers(min_value=0, max_value=2**64),
        k=st.integers(min_value=0, max_value=4),
    )
    def test_cum_weights_pick_what_weights_pick(self, weights, seed, k):
        population = list(range(len(weights)))
        plain, cumulative = random.Random(seed), random.Random(seed)
        assert plain.choices(population, weights=weights, k=k) == (
            cumulative.choices(
                population, cum_weights=list(accumulate(weights)), k=k
            )
        )
        # Both consumed the same draws.
        assert plain.random() == cumulative.random()

    def test_fault_modes_match_the_plain_weights(self):
        config = WorldConfig(seed=7)
        sampler = FaultSampler(config, random.Random(5))
        plain = random.Random(5)
        weights = config.defect_mode_weights
        for count in [0, 1, 2, 3, 1, 0, 2] * 30:
            expected = plain.choices(
                list(weights), weights=[weights[m] for m in weights], k=count
            )
            assert sampler._sample_modes(count) == tuple(expected)
