"""Canonical chaos-profile installation and serve run, shared by every
consumer.

``repro campaign``, ``repro serve``, and ``repro servelint --verify``
all arm the same named fault profiles the same way: windows anchored at
the network clock's current instant, targets drawn over the sorted
address population, REFUSED responses synthesized through the DNS
layer's ``make_response``.  ``repro serve`` and ``servelint --verify``
also share one serve run (:func:`run_serve`): warm, age past the TTL
clamp, arm chaos, serve.  Duplicating either block per command is how
the conventions drift apart — this module is the single copy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..dns.message import Rcode, make_response
from ..net.chaos import FaultSchedule, build_profile
from .service import RecursiveService, ServeAnswer, ServeConfig
from .workload import (
    ClientQuery,
    ClientWorkload,
    WorkloadConfig,
    targets_from_world,
)

__all__ = ["ServeRun", "install_chaos_profile", "run_serve"]


def install_chaos_profile(network, name: str, seed: int) -> FaultSchedule:
    """Build the named profile over ``network`` and install it.

    Windows are anchored at ``network.clock.now`` — callers decide the
    anchor by choosing *when* to install (the serve pipeline installs
    after warm + TTL aging, the campaign after seed selection).
    Returns the installed schedule.
    """
    schedule = build_profile(
        name,
        sorted(network.addresses()),
        seed=seed,
        start=network.clock.now,
        refusal_factory=lambda query: make_response(
            query, rcode=Rcode.REFUSED
        ),
    )
    network.chaos = schedule
    return schedule


@dataclass(frozen=True)
class ServeRun:
    """What one :func:`run_serve` produced."""

    service: RecursiveService
    queries: Tuple[ClientQuery, ...]
    answers: List[ServeAnswer]
    warmed: int
    serve_seconds: float  # simulated clock consumed by the run itself


def run_serve(
    world,
    seed: int,
    profile: Optional[str],
    duration: float,
    qps: float,
    config: ServeConfig = ServeConfig(),
    warm: bool = True,
) -> ServeRun:
    """Serve a seeded workload over ``world`` under chaos ``profile``
    (``None``: none); a bad ``duration``/``qps`` raises ``ValueError``
    before any simulated work.  ``warm`` resolves every popular name
    once and then ages the cache past the TTL clamp, so the run
    exercises expiry, prefetch, and (under chaos) serve-stale rather
    than riding a permanently-fresh cache."""
    workload = ClientWorkload(
        targets_from_world(world),
        config=WorkloadConfig(duration=duration, mean_qps=qps),
        seed=seed,
    )
    service = RecursiveService(
        world.network,
        world.root_addresses,
        source=world.probe_source,
        config=config,
        seed=seed,
    )
    queries = workload.generate()
    warmed = 0
    if warm:
        warmed = service.warm(queries)
        world.clock.advance(config.max_ttl + 1.0)
    if profile is not None:
        install_chaos_profile(world.network, profile, seed=seed)
    serve_base = world.clock.now
    answers = service.run(queries)
    return ServeRun(
        service, queries, answers, warmed, world.clock.now - serve_base
    )
