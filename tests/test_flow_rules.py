"""Per-rule fixtures for the flowlint (FLW) analyzer family.

Each dataflow rule gets a minimal source→sink fixture proving it fires
(anchored at the sink, trace attached) and a counterpart clean idiom
proving it stays quiet; the concurrency rules get the same treatment
against synthetic generator tasks, shard workers, and caches.
"""

from __future__ import annotations

import textwrap

from repro.lint import LintEngine
from repro.lint.flow import analyze_sources


def analyze(*files):
    return analyze_sources(
        [(path, textwrap.dedent(source)) for path, source in files]
    )


def rule_ids(findings):
    return sorted(finding.rule_id for finding in findings)


# ----------------------------------------------------------------------
# FLW001 — wall clock into a sink, interprocedurally
# ----------------------------------------------------------------------
CROSS_FUNCTION_CLOCK = [
    (
        "pkg/collect.py",
        """
        import time

        from .digest import stamp_digest

        def make_stamp():
            return time.ctime()

        def build_report():
            stamp = make_stamp()
            return stamp_digest(stamp)
        """,
    ),
    (
        "pkg/digest.py",
        """
        import hashlib

        def stamp_digest(stamp):
            h = hashlib.sha256(stamp.encode("utf-8"))
            return h.hexdigest()
        """,
    ),
]


def test_flw001_cross_function_clock_to_digest():
    findings = analyze(*CROSS_FUNCTION_CLOCK)
    assert rule_ids(findings) == ["FLW001"]
    (finding,) = findings
    # Anchored at the sink, not the source.
    assert finding.path == "pkg/digest.py"
    assert "time.ctime" in finding.message
    assert "digest input" in finding.message


def test_flw001_trace_spans_source_to_sink():
    (finding,) = analyze(*CROSS_FUNCTION_CLOCK)
    assert len(finding.trace) >= 3
    first, last = finding.trace[0], finding.trace[-1]
    assert first.path == "pkg/collect.py"
    assert "time.ctime" in first.note
    assert last.path == "pkg/digest.py"
    assert "digest input" in last.note
    # The call boundary appears as an intermediate hop.
    assert any("stamp_digest" in hop.note for hop in finding.trace)


def test_flw001_flow_is_invisible_to_det001():
    """The acceptance fixture: a clock read DET001 was told to accept.

    The ``time.ctime`` read carries an inline DET001 suppression (say,
    for a log line), and the digest is two calls away in another
    module — per-line syntactic analysis has no line left to flag.
    Only the interprocedural flow connects them, and the DET001
    suppression does not silence it.
    """
    accepted_read = [
        (
            path,
            source.replace(
                "return time.ctime()",
                "return time.ctime()  # reprolint: disable=DET001",
            ),
        )
        for path, source in CROSS_FUNCTION_CLOCK
    ]
    engine = LintEngine()
    for path, source in accepted_read:
        ast_findings = engine.lint_source(textwrap.dedent(source), path)
        assert not [f for f in ast_findings if f.rule_id == "DET001"]
    assert rule_ids(analyze(*accepted_read)) == ["FLW001"]


def test_flw001_derived_sink_via_parameter_chain():
    # campaign_digest-style: the primitive sink is two frames down, so
    # intermediate helpers become derived sinks via SINKPAR summaries.
    findings = analyze(
        (
            "pkg/deep.py",
            """
            import hashlib
            import time

            def inner(payload):
                return hashlib.sha256(payload).hexdigest()

            def middle(payload):
                return inner(payload)

            def outer():
                raw = str(time.time_ns()).encode("utf-8")
                return middle(raw)
            """,
        )
    )
    assert rule_ids(findings) == ["FLW001"]
    (finding,) = findings
    assert "hashlib.sha256" in finding.snippet  # anchored at the sink
    assert any("middle" in hop.note for hop in finding.trace)
    assert any("inner" in hop.note for hop in finding.trace)


# ----------------------------------------------------------------------
# FLW002/FLW003/FLW004 — entropy, environment, object identity
# ----------------------------------------------------------------------
def test_flw002_entropy_into_digest():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import hashlib
            import os

            def token_digest():
                token = os.urandom(8)
                return hashlib.sha256(token).hexdigest()
            """,
        )
    )
    assert rule_ids(findings) == ["FLW002"]


def test_flw002_global_rng_through_helper():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json
            import random

            def draw():
                return random.random()

            def emit():
                return json.dumps({"sample": draw()})
            """,
        )
    )
    assert rule_ids(findings) == ["FLW002"]
    (finding,) = findings
    assert "serialized output" in finding.message


def test_flw002_seeded_stream_is_clean():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json
            import random

            def emit(seed):
                rng = random.Random(seed)
                return json.dumps({"sample": rng.random()})
            """,
        )
    )
    assert findings == []


def test_flw002_unseeded_random_constructor_is_entropy():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json
            import random

            def emit():
                rng = random.Random()
                return json.dumps({"sample": rng.random()})
            """,
        )
    )
    assert rule_ids(findings) == ["FLW002"]


def test_flw003_environment_into_serialization():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json
            import os

            def emit():
                return json.dumps({"mode": os.environ.get("MODE", "x")})
            """,
        )
    )
    assert rule_ids(findings) == ["FLW003"]


def test_flw004_object_identity_into_serialization():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json

            def emit(record):
                return json.dumps({"key": id(record)})
            """,
        )
    )
    assert rule_ids(findings) == ["FLW004"]


# ----------------------------------------------------------------------
# FLW005 — set iteration order
# ----------------------------------------------------------------------
def test_flw005_materialized_set_order_into_serialization():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json

            def emit(names):
                bag = set(names)
                return json.dumps(list(bag))
            """,
        )
    )
    assert rule_ids(findings) == ["FLW005"]


def test_flw005_sorted_launders_order():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json

            def emit(names):
                bag = set(names)
                return json.dumps(sorted(bag))
            """,
        )
    )
    assert findings == []


def test_flw005_set_comprehension_via_join():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json

            def emit(names):
                unique = {name.lower() for name in names}
                return json.dumps(",".join(unique))
            """,
        )
    )
    assert rule_ids(findings) == ["FLW005"]


# ----------------------------------------------------------------------
# Sink coverage: PerfRecord, MeasurementDataset.merge, ServingReport
# ----------------------------------------------------------------------
def test_perf_record_is_a_sink():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import time

            from repro.report.bench import PerfRecord

            def commit(name):
                return PerfRecord(name, time.perf_counter())
            """,
        )
    )
    assert rule_ids(findings) == ["FLW001"]
    (finding,) = findings
    assert "perf record" in finding.message


def test_dataset_merge_admission_order_is_a_sink():
    findings = analyze(
        (
            "pkg/m.py",
            """
            from repro.core.journal import MeasurementDataset

            def combine(parts):
                chunks = set(parts)
                return MeasurementDataset.merge(chunks)
            """,
        )
    )
    assert rule_ids(findings) == ["FLW005"]
    (finding,) = findings
    assert "admission order" in finding.message


def test_serving_report_is_a_sink():
    # ServingReport feeds the committed serving digests, so anything
    # nondeterministic flowing into its fields corrupts byte-stable
    # artifacts two hops later — same contract as PerfRecord.
    findings = analyze(
        (
            "pkg/m.py",
            """
            import time

            from repro.report.serving import ServingReport

            def commit(stats):
                stamp = time.time()
                return ServingReport(stats, stamp)
            """,
        )
    )
    assert rule_ids(findings) == ["FLW001"]
    (finding,) = findings
    assert "serving digest" in finding.message


def test_serving_report_clean_inputs_stay_quiet():
    findings = analyze(
        (
            "pkg/m.py",
            """
            from repro.report.serving import ServingReport

            def commit(stats, clock_now):
                return ServingReport(stats, clock_now)
            """,
        )
    )
    assert not findings


# ----------------------------------------------------------------------
# FLW101 — shared writes across yield points
# ----------------------------------------------------------------------
def test_flw101_write_after_yield_fires():
    findings = analyze(
        (
            "pkg/m.py",
            """
            class Task:
                def __init__(self):
                    self.seen = 0

                def run(self):
                    reply = yield ("query", 1)
                    self.seen = self.seen + 1
            """,
        )
    )
    assert rule_ids(findings) == ["FLW101"]
    (finding,) = findings
    assert "self.seen" in finding.message


def test_flw101_write_before_first_yield_is_clean():
    findings = analyze(
        (
            "pkg/m.py",
            """
            class Task:
                def run(self):
                    self.started = True
                    reply = yield ("query", 1)
                    return reply
            """,
        )
    )
    assert findings == []


def test_flw101_write_in_yielding_loop_fires():
    # Second iteration writes after the first iteration's yield.
    findings = analyze(
        (
            "pkg/m.py",
            """
            class Task:
                def run(self, jobs):
                    for job in jobs:
                        self.current = job
                        yield ("query", job)
            """,
        )
    )
    assert rule_ids(findings) == ["FLW101"]


def test_flw101_non_generator_method_is_clean():
    findings = analyze(
        (
            "pkg/m.py",
            """
            class Counter:
                def bump(self):
                    self.count = self.count + 1
            """,
        )
    )
    assert findings == []


# ----------------------------------------------------------------------
# FLW102 — constant-seeded RNG inside the shard-worker call graph
# ----------------------------------------------------------------------
WORKER_FIXTURE = (
    "pkg/worker.py",
    """
    import random

    from .helper import build_stream

    def _shard_worker(task):
        return build_stream()
    """,
)


def test_flw102_constant_seed_reachable_from_worker():
    findings = analyze(
        WORKER_FIXTURE,
        (
            "pkg/helper.py",
            """
            import random

            def build_stream():
                return random.Random(0)
            """,
        ),
    )
    assert rule_ids(findings) == ["FLW102"]
    (finding,) = findings
    assert finding.path == "pkg/helper.py"


def test_flw102_quiet_outside_worker_graph():
    findings = analyze(
        (
            "pkg/helper.py",
            """
            import random

            def build_stream():
                return random.Random(0)
            """,
        )
    )
    assert findings == []


def test_flw102_derived_seed_is_clean():
    findings = analyze(
        WORKER_FIXTURE,
        (
            "pkg/helper.py",
            """
            import random

            def build_stream(material="seed"):
                return random.Random(material)
            """,
        ),
    )
    assert findings == []


# ----------------------------------------------------------------------
# FLW103 — writes to a frozen cache
# ----------------------------------------------------------------------
def test_flw103_put_after_freeze_fires():
    findings = analyze(
        (
            "pkg/m.py",
            """
            def warm(cache, entries):
                cache.freeze()
                cache.put("zone.", entries)
            """,
        )
    )
    assert rule_ids(findings) == ["FLW103"]
    (finding,) = findings
    assert "silent no-op" in finding.message
    # The freeze point is on the trace.
    assert any("frozen here" in hop.note for hop in finding.trace)


def test_flw103_freeze_last_is_clean():
    findings = analyze(
        (
            "pkg/m.py",
            """
            def warm(cache, entries):
                cache.put("zone.", entries)
                cache.freeze()
            """,
        )
    )
    assert findings == []


# ----------------------------------------------------------------------
# Suppression parity with the AST engine
# ----------------------------------------------------------------------
def test_inline_suppression_silences_at_the_sink():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json
            import os

            def emit():
                mode = os.environ.get("MODE", "x")
                return json.dumps({"mode": mode})  # reprolint: disable=FLW003
            """,
        )
    )
    assert findings == []


def test_suppression_of_other_rule_does_not_silence():
    findings = analyze(
        (
            "pkg/m.py",
            """
            import json
            import os

            def emit():
                mode = os.environ.get("MODE", "x")
                return json.dumps({"mode": mode})  # reprolint: disable=FLW001
            """,
        )
    )
    assert rule_ids(findings) == ["FLW003"]
