"""The FLW rule pack: descriptors plus the source/sink tables.

Dataflow family (findings anchored at the sink, with a full
source→sink trace):

``FLW001``  wall-clock taint reaches a determinism sink
``FLW002``  unseeded/global RNG or entropy taint reaches a sink
``FLW003``  environment-variable taint reaches a sink
``FLW004``  ``id()``/``hash()`` object-identity taint reaches a sink
``FLW005``  set-iteration order taint reaches a sink

Task-concurrency family (static race detection for the cooperative
generator-task scheduler and the sharded campaign):

``FLW101``  shared mutable state written after a yield point in a
            generator task, without scheduler mediation
``FLW102``  constant-seeded RNG constructed inside the shard-worker
            call graph (streams must derive from per-shard material)
``FLW103``  write to a ZoneCut-style cache after ``freeze()`` on the
            same receiver

The tables below drive :mod:`repro.lint.flow.harvest`; everything is
resolved through each module's (absolutized) import map, so aliasing
(``import time as t``) cannot hide a source.
"""

from __future__ import annotations

from typing import Dict, Tuple

from ..findings import RuleDescriptor, Severity
from .model import TAINT_CLOCK, TAINT_ENV, TAINT_OBJECT, TAINT_RNG

__all__ = [
    "FLOW_RULES",
    "RULE_FOR_TAINT",
    "CLOCK_SOURCES",
    "RNG_SOURCES",
    "RNG_PREFIXES",
    "ENV_SOURCES",
    "OBJECT_SOURCES",
    "SOURCE_KINDS",
    "SINK_CALLS",
    "SINK_TYPE_METHODS",
    "ORDER_KILLERS",
    "WORKER_ROOTS",
    "FREEZABLE_METHODS",
]

FLOW_RULES: Tuple[RuleDescriptor, ...] = (
    RuleDescriptor(
        "FLW001",
        "wall-clock value flows into a determinism sink "
        "(digest/serialization/perf record/dataset merge)",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "FLW002",
        "global/unseeded RNG or entropy value flows into a "
        "determinism sink",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "FLW003",
        "environment-variable value flows into a determinism sink",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "FLW004",
        "id()/hash() object-identity value flows into a determinism "
        "sink (varies with PYTHONHASHSEED / allocation order)",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "FLW005",
        "set-iteration order flows into a determinism sink; sort "
        "before materializing",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "FLW101",
        "generator task writes shared mutable state after a yield "
        "point without scheduler mediation (cooperative race)",
        Severity.ERROR,
    ),
    RuleDescriptor(
        "FLW102",
        "constant-seeded random.Random() inside the shard-worker call "
        "graph; derive the stream from per-shard material",
        Severity.WARNING,
    ),
    RuleDescriptor(
        "FLW103",
        "write to a frozen cache (put/invalidate/flush after freeze() "
        "on the same receiver is a silent no-op)",
        Severity.ERROR,
    ),
)

# Concrete taint kind -> dataflow rule id.
RULE_FOR_TAINT: Dict[str, str] = {
    TAINT_CLOCK: "FLW001",
    TAINT_RNG: "FLW002",
    TAINT_ENV: "FLW003",
    TAINT_OBJECT: "FLW004",
    "iteration-order": "FLW005",
}

# --- Sources -----------------------------------------------------------
# Wall-clock reads.  ctime/asctime-style formatters read the clock just
# as surely as time.time().  DET001 bans every call here too (plus
# time.sleep), so this is the one list of clock sources.
CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "time.process_time_ns",
        "time.localtime",
        "time.gmtime",
        "time.ctime",
        "time.asctime",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
        "os.times",
    }
)

# Entropy / global-RNG reads (exact names); DET002 reads these tables too.
RNG_SOURCES = frozenset(
    {
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "random.SystemRandom",
    }
)

# Any call under these prefixes is a global-RNG draw.
RNG_PREFIXES = ("random.", "secrets.")
# ...except constructing an explicitly seeded stream, which is the
# sanctioned idiom (handled specially in harvest: random.Random with
# arguments is clean, without arguments it is entropy).
RNG_SEEDED_CONSTRUCTOR = "random.Random"

# Environment reads: resolved call names plus the mapping object whose
# subscripts/gets are environment reads.
ENV_SOURCES = frozenset({"os.getenv", "os.environ.get"})
ENV_MAPPING = "os.environ"

# Object-identity reads (builtin calls; PYTHONHASHSEED/allocation
# dependent).
OBJECT_SOURCES = frozenset({"id", "hash"})

SOURCE_KINDS = {
    **{name: TAINT_CLOCK for name in CLOCK_SOURCES},
    **{name: TAINT_RNG for name in RNG_SOURCES},
    **{name: TAINT_ENV for name in ENV_SOURCES},
    **{name: TAINT_OBJECT for name in OBJECT_SOURCES},
}

# --- Sinks -------------------------------------------------------------
# Resolved call name (matched on dotted suffix) -> sink label.  These
# are only the *primitive* endpoints: any package function whose
# parameter flows into one of them becomes a derived sink through the
# interprocedural param-to-sink summaries, so e.g. campaign_digest()
# and dataset_digest() need no entry here.
SINK_CALLS: Dict[str, str] = {
    "hashlib.sha256": "digest input",
    "hashlib.sha1": "digest input",
    "hashlib.sha224": "digest input",
    "hashlib.sha384": "digest input",
    "hashlib.sha512": "digest input",
    "hashlib.md5": "digest input",
    "hashlib.blake2b": "digest input",
    "hashlib.blake2s": "digest input",
    "hashlib.new": "digest input",
    "json.dumps": "serialized output",
    "json.dump": "serialized output",
    "PerfRecord": "committed perf record",
    "MeasurementDataset.merge": "dataset merge admission order",
    "ServingReport": "committed serving digest",
}

# Inferred receiver type prefix -> method names that are sinks on it.
# hashlib objects accumulate digest input via .update().
SINK_TYPE_METHODS: Dict[str, Dict[str, str]] = {
    "hashlib.": {"update": "digest input"},
}

# Calls that launder order taint: the result of sorted() is
# deterministic however unordered its input was.
ORDER_KILLERS = frozenset({"sorted", "min", "max", "sum", "len"})

# --- Concurrency family ------------------------------------------------
# Shard-worker entry points: functions (by bare name) whose reachable
# call graph must draw RNG streams only from per-shard material.
WORKER_ROOTS = ("_shard_worker",)

# Mutating methods that count as writes for FLW103's
# freeze-then-write check.
FREEZABLE_METHODS = frozenset({"put", "invalidate", "flush"})

RULES_BY_ID: Dict[str, RuleDescriptor] = {rule.rule_id: rule for rule in FLOW_RULES}
__all__.append("RULES_BY_ID")
__all__.append("RNG_SEEDED_CONSTRUCTOR")
__all__.append("ENV_MAPPING")
