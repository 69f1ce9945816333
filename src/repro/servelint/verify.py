"""The serve-vs-static differential oracle.

Runs the real serving pipeline (:mod:`repro.serve`) per chaos profile
and holds every observed per-domain degradation outcome to the static
survivability model's prediction.  Every disagreement must land in one
of three explained buckets; anything left is ``unexplained`` and fails
the build — the same zero-slack discipline the campaign oracle
(:mod:`repro.core.oracle`) applies to zonelint.

Disagreement taxonomy
---------------------
``workload-never-queried``
    The sampled workload never sent this (domain, kind); there is no
    observation to disagree with.  Counted as a coverage note.
``breaker-shadowed``
    The profile has probabilistic loss bursts, a *live* address on the
    domain's serve path tripped the circuit breaker, and every
    unexpected state is a degradation: the breaker's memory of a prior
    drop shadowed this resolution.
``chaos-masked``
    The domain's serve path crosses a probabilistic fault (loss burst,
    rate limit, or a window that does not span the whole run) and every
    unexpected state is a degradation.
``unexplained``
    Everything else — including any *upgrade* (an observed state less
    degraded than every predicted state): chaos only ever subtracts
    service, so an upgrade always means the model is wrong.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Set, Tuple

from ..dns.name import DnsName
from ..serve.profiles import run_serve
from ..serve.service import ServeConfig
from ..serve.workload import targets_from_world
from ..worldgen.churn import world_at_epoch
from .analyzer import ServeLinter
from .model import IDLE_PROFILE, KINDS

__all__ = [
    "Disagreement",
    "ProfileOracle",
    "oracle_json",
    "render_oracle",
    "verify_profile",
]

_RANK = {"fresh": 0, "stale_served": 1, "failed": 2}


@dataclass(frozen=True)
class Disagreement:
    """One (domain, kind) whose observed states escape the prediction."""

    domain: str
    kind: str
    expected: Tuple[str, ...]
    observed: Tuple[str, ...]
    classification: str


@dataclass
class ProfileOracle:
    """Verdict for one profile's serve run vs the static model."""

    profile: str
    seed: int
    scale: float
    queries: int
    serve_seconds: float
    pairs: int = 0
    agreements: int = 0
    never_queried: int = 0
    disagreements: List[Disagreement] = field(default_factory=list)

    def count(self, classification: str) -> int:
        return sum(
            1
            for d in self.disagreements
            if d.classification == classification
        )

    @property
    def unexplained(self) -> List[Disagreement]:
        return [
            d
            for d in self.disagreements
            if d.classification == "unexplained"
        ]


def verify_profile(
    seed: int,
    scale: float,
    profile: str,
    duration: float = 600.0,
    qps: float = 20.0,
    config: ServeConfig = ServeConfig(),
) -> ProfileOracle:
    """Serve one profile's run and classify every disagreement.

    Runs the ``repro serve`` pipeline (:func:`~repro.serve.profiles.run_serve`),
    then builds the static model with the *observed* serve span so
    fault windows the run outlived downgrade from deterministic to
    merely maskable.
    """
    world = world_at_epoch(seed, scale)
    run = run_serve(
        world,
        seed,
        None if profile == IDLE_PROFILE else profile,
        duration,
        qps,
        config=config,
    )
    queries, service = run.queries, run.service
    model = ServeLinter.for_world(
        world, seed, config=config, duration=run.serve_seconds
    ).model
    targets = targets_from_world(world)
    # Static twin of the warm phase: build the delegation-cut cache
    # the live resolver holds at serve start.
    model.warm([domain for domain, _iso2 in targets])
    outlook = model.outlook(profile)

    # Fold the per-qname outcome ledger onto (domain, kind): the whole
    # missing-<k> typo pool shares one nxdomain prediction.
    provenance: Dict[Tuple[DnsName, str], Tuple[DnsName, str]] = {}
    for query in queries:
        domain = (
            query.qname if query.kind == "nodata" else query.qname.parent()
        )
        provenance[(query.qname, query.qtype)] = (domain, query.kind)
    observed: Dict[Tuple[DnsName, str], Set[str]] = {}
    for key, tally in service.outcome_ledger().items():
        spot = provenance.get(key)
        if spot is None:
            continue  # a qname the workload never labels (none today)
        observed.setdefault(spot, set()).update(tally)

    tripped = frozenset(service.health.breaker.tripped_addresses())
    oracle = ProfileOracle(
        profile=profile,
        seed=seed,
        scale=scale,
        queries=len(queries),
        serve_seconds=run.serve_seconds,
    )
    for domain, _iso2 in targets:
        for kind in KINDS:
            oracle.pairs += 1
            states = observed.get((domain, kind))
            if states is None:
                oracle.never_queried += 1
                continue
            prediction = model.predict(profile, domain, kind)
            expected = set(prediction.expected)
            if states <= expected:
                oracle.agreements += 1
                continue
            classification = _classify(
                states, expected, prediction.attempted, outlook, tripped
            )
            oracle.disagreements.append(
                Disagreement(
                    domain=str(domain),
                    kind=kind,
                    expected=tuple(sorted(prediction.expected, key=_RANK.get)),
                    observed=tuple(sorted(states, key=_RANK.get)),
                    classification=classification,
                )
            )
    return oracle


def _classify(
    states: Set[str],
    expected: Set[str],
    attempted,
    outlook,
    tripped: FrozenSet,
) -> str:
    floor = min(_RANK[state] for state in expected)
    unexpected = states - expected
    if any(_RANK[state] < floor for state in unexpected):
        # Chaos only subtracts service: an upgrade means the static
        # model is wrong, and no fault can explain it away.
        return "unexplained"
    live_path = tuple(a for a in attempted if not outlook.is_dead(a))
    if outlook.has_bursts and any(a in tripped for a in live_path):
        return "breaker-shadowed"
    if outlook.can_mask(attempted):
        return "chaos-masked"
    return "unexplained"


# ----------------------------------------------------------------------
# Rendering
# ----------------------------------------------------------------------
def render_oracle(oracle: ProfileOracle) -> str:
    lines = [
        f"servelint oracle [{oracle.profile}] seed={oracle.seed} "
        f"scale={oracle.scale}",
        f"  queries served     {oracle.queries}",
        f"  serve span         {oracle.serve_seconds:.1f}s",
        f"  (domain,kind) pairs {oracle.pairs}",
        f"  agreements         {oracle.agreements}",
        f"  never queried      {oracle.never_queried}",
        f"  chaos-masked       {oracle.count('chaos-masked')}",
        f"  breaker-shadowed   {oracle.count('breaker-shadowed')}",
        f"  unexplained        {len(oracle.unexplained)}",
    ]
    for item in oracle.unexplained:
        lines.append(
            f"    UNEXPLAINED {item.domain} [{item.kind}]: expected "
            f"{list(item.expected)}, observed {list(item.observed)}"
        )
    verdict = "FAIL" if oracle.unexplained else "PASS"
    lines.append(f"  verdict            {verdict}")
    return "\n".join(lines)


def oracle_json(oracles: List[ProfileOracle]) -> str:
    """Byte-stable JSON for CI artifacts (sorted keys, sorted rows)."""
    payload = {
        "oracles": [
            {
                "profile": oracle.profile,
                "seed": oracle.seed,
                "scale": oracle.scale,
                "queries": oracle.queries,
                "serve_seconds": oracle.serve_seconds,
                "pairs": oracle.pairs,
                "agreements": oracle.agreements,
                "never_queried": oracle.never_queried,
                "disagreements": [
                    {
                        "domain": d.domain,
                        "kind": d.kind,
                        "expected": list(d.expected),
                        "observed": list(d.observed),
                        "classification": d.classification,
                    }
                    for d in sorted(
                        oracle.disagreements,
                        key=lambda d: (d.domain, d.kind),
                    )
                ],
                "unexplained": len(oracle.unexplained),
            }
            for oracle in oracles
        ]
    }
    return json.dumps(payload, indent=2, sort_keys=True)
