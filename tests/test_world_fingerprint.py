"""A pinned fingerprint of everything ``WorldGenerator.generate()`` builds.

The dataset and chain digests see only what the probes touch.  This
fingerprint covers the generated world itself: every domain history
with its eras, every PDNS row, every RRset of every registry and child
zone, every ground-truth record and the provider adoption table.  A
worldgen change that claims to keep the world byte-identical must keep
these pins.  CI runs this file under two ``PYTHONHASHSEED`` values, so
the pins also show that worldgen does not depend on string hashing.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.worldgen import WorldConfig, WorldGenerator
from repro.worldgen.generator import World

PINNED = {
    7: "a93f50e0b8a826e866fefb13e97188008e32f21b624177c88949bdb52b060064",
    11: "68cd91c4e2bdc49ceca3546418e4f93f2ab6bd7b3c790b2ca2d1a01051550b48",
}


def world_fingerprint(world: World) -> str:
    """sha256 over the ``repr`` of each object, one per line, in order."""
    digest = hashlib.sha256()

    def put(obj: object) -> None:
        digest.update(repr(obj).encode())
        digest.update(b"\n")

    for domain in world.history.domains:
        put(domain)  # its eras are part of its repr
    for record in world.pdns:
        put(record)
    for zones in (world.registry_zones, world.child_zones):
        for zone in zones.values():
            for rrset in zone.rrsets():
                put(rrset)
    for truth in world.truths.values():
        put(truth)
    put(sorted(world.history.adoption_year.items()))
    return digest.hexdigest()


@pytest.mark.parametrize("seed", sorted(PINNED))
def test_world_fingerprint_is_pinned(seed):
    world = WorldGenerator(WorldConfig(seed=seed, scale=0.02)).generate()
    assert world_fingerprint(world) == PINNED[seed]
