"""Shared fixtures.

The expensive fixtures (generated world, probed dataset) are
session-scoped: the world generator is deterministic, so every test
sees identical state, and building it once keeps the suite fast.
"""

from __future__ import annotations

import gc

import pytest

from repro.core.study import GovernmentDnsStudy
from repro.dns import (
    A,
    AuthoritativeServer,
    DnsName,
    NS,
    Resolver,
    ResolverCache,
    SOA,
    Zone,
)
from repro.net import IPv4Address, Network
from repro.worldgen import WorldConfig, WorldGenerator

TEST_SCALE = 0.004
TEST_SEED = 7


@pytest.fixture(autouse=True)
def heap_not_left_frozen():
    """Fail any test that leaves objects in the collector's permanent
    generation: a frozen heap leaks into every later test, whose
    garbage then outlives it.  The heap is unfrozen before failing, so
    one leak fails one test."""
    yield
    frozen = gc.get_freeze_count()
    if frozen:
        gc.unfreeze()
        pytest.fail(f"test left {frozen} objects frozen by gc.freeze()")


@pytest.fixture(scope="session")
def world():
    """A small but fully-featured generated world."""
    return WorldGenerator(WorldConfig(seed=TEST_SEED, scale=TEST_SCALE)).generate()


@pytest.fixture(scope="session")
def study(world):
    """A study over the shared world, with the campaign already run."""
    instance = GovernmentDnsStudy(world)
    instance.dataset()  # force the probe campaign once
    return instance


@pytest.fixture(scope="session")
def dataset(study):
    return study.dataset()


def build_mini_dns():
    """A hand-built three-level DNS tree on a fresh network.

    root → ``au`` → ``gov.au`` (with one child ``www.gov.au`` A record
    and a delegated ``health.gov.au`` zone).  Returns a dict of the
    pieces so tests can poke at any layer.
    """
    network = Network()
    ip = IPv4Address.parse

    root_address = ip("198.41.0.4")
    au_address = ip("1.0.0.1")
    gov_address = ip("2.0.0.1")
    health_address = ip("3.0.0.1")

    root_zone = Zone(DnsName.parse("."))
    root_zone.add_records(
        DnsName.parse("."), NS(DnsName.parse("a.root-servers.net."))
    )
    root_zone.add_records(DnsName.parse("au."), NS(DnsName.parse("ns.au.")))
    root_zone.add_records(DnsName.parse("ns.au."), A(au_address))
    root_server = AuthoritativeServer(DnsName.parse("a.root-servers.net."))
    root_server.load_zone(root_zone)
    network.attach(root_address, root_server)

    au_zone = Zone(DnsName.parse("au."))
    au_zone.add_records(DnsName.parse("au."), NS(DnsName.parse("ns.au.")))
    au_zone.add_records(
        DnsName.parse("au."),
        SOA(DnsName.parse("ns.au."), DnsName.parse("hostmaster.au.")),
    )
    au_zone.add_records(DnsName.parse("ns.au."), A(au_address))
    au_zone.add_records(
        DnsName.parse("gov.au."), NS(DnsName.parse("ns1.gov.au."))
    )
    au_zone.add_records(DnsName.parse("ns1.gov.au."), A(gov_address))
    au_server = AuthoritativeServer(DnsName.parse("ns.au."))
    au_server.load_zone(au_zone)
    network.attach(au_address, au_server)

    gov_zone = Zone(DnsName.parse("gov.au."))
    gov_zone.add_records(
        DnsName.parse("gov.au."), NS(DnsName.parse("ns1.gov.au."))
    )
    gov_zone.add_records(
        DnsName.parse("gov.au."),
        SOA(DnsName.parse("ns1.gov.au."), DnsName.parse("hostmaster.gov.au.")),
    )
    gov_zone.add_records(DnsName.parse("ns1.gov.au."), A(gov_address))
    gov_zone.add_records(DnsName.parse("www.gov.au."), A(ip("9.9.9.9")))
    gov_zone.add_records(
        DnsName.parse("health.gov.au."), NS(DnsName.parse("ns1.health.gov.au."))
    )
    gov_zone.add_records(DnsName.parse("ns1.health.gov.au."), A(health_address))
    gov_server = AuthoritativeServer(DnsName.parse("ns1.gov.au."))
    gov_server.load_zone(gov_zone)
    network.attach(gov_address, gov_server)

    health_zone = Zone(DnsName.parse("health.gov.au."))
    health_zone.add_records(
        DnsName.parse("health.gov.au."),
        NS(DnsName.parse("ns1.health.gov.au.")),
    )
    health_zone.add_records(
        DnsName.parse("health.gov.au."),
        SOA(
            DnsName.parse("ns1.health.gov.au."),
            DnsName.parse("hostmaster.health.gov.au."),
        ),
    )
    health_zone.add_records(
        DnsName.parse("ns1.health.gov.au."), A(health_address)
    )
    health_zone.add_records(
        DnsName.parse("www.health.gov.au."), A(ip("9.9.9.10"))
    )
    health_server = AuthoritativeServer(DnsName.parse("ns1.health.gov.au."))
    health_server.load_zone(health_zone)
    network.attach(health_address, health_server)

    resolver = Resolver(
        network, [root_address], cache=ResolverCache(network.clock)
    )
    return {
        "network": network,
        "resolver": resolver,
        "root_address": root_address,
        "au_address": au_address,
        "gov_address": gov_address,
        "health_address": health_address,
        "root_zone": root_zone,
        "au_zone": au_zone,
        "gov_zone": gov_zone,
        "health_zone": health_zone,
        "gov_server": gov_server,
    }


@pytest.fixture()
def mini_dns():
    return build_mini_dns()
