"""Per-rule fixture tests for the reprolint rule pack.

Each positive fixture triggers its rule exactly once; the negatives
exercise the sanctioned idioms the rule must leave alone.
"""

from __future__ import annotations

import textwrap

import pytest

from repro.lint import LintEngine


def lint(snippet: str, path: str = "src/repro/fake/mod.py"):
    return LintEngine().lint_source(textwrap.dedent(snippet), path)


def rule_ids(snippet: str, path: str = "src/repro/fake/mod.py"):
    return [finding.rule_id for finding in lint(snippet, path)]


class TestDET001WallClock:
    def test_time_time_fires_once(self):
        ids = rule_ids(
            """
            import time

            def stamp():
                return time.time()
            """
        )
        assert ids == ["DET001"]

    def test_aliased_datetime_now_fires(self):
        ids = rule_ids(
            """
            from datetime import datetime as dt

            def stamp():
                return dt.now()
            """
        )
        assert ids == ["DET001"]

    def test_time_sleep_fires(self):
        assert rule_ids("import time\ntime.sleep(1)\n") == ["DET001"]

    @pytest.mark.parametrize(
        "call",
        [
            "time.process_time",
            "time.process_time_ns",
            "time.ctime",
            "time.asctime",
            "os.times",
        ],
    )
    def test_every_flowlint_clock_source_fires(self, call):
        # DET001 and FLW001 share one clock-source table.
        module = call.partition(".")[0]
        ids = rule_ids(f"import {module}\n\ndef f():\n    return {call}()\n")
        assert ids == ["DET001"]

    def test_clock_module_is_exempt(self):
        ids = rule_ids(
            "import time\nnow = time.time()\n",
            path="src/repro/inet/clock.py",
        )
        assert ids == []

    def test_former_net_clock_path_is_not_exempt(self):
        ids = rule_ids(
            "import time\nnow = time.time()\n",
            path="src/repro/net/clock.py",
        )
        assert ids == ["DET001"]

    def test_simulated_clock_usage_is_clean(self):
        assert rule_ids("def f(clock):\n    return clock.now\n") == []


class TestDET002GlobalRandom:
    def test_module_level_random_fires_once(self):
        ids = rule_ids("import random\nx = random.random()\n")
        assert ids == ["DET002"]

    def test_aliased_module_fires(self):
        ids = rule_ids("import random as rnd\nx = rnd.choice([1, 2])\n")
        assert ids == ["DET002"]

    def test_from_import_fires(self):
        ids = rule_ids("from random import choice\nx = choice([1, 2])\n")
        assert ids == ["DET002"]

    def test_uuid4_and_urandom_fire(self):
        ids = rule_ids(
            "import os\nimport uuid\na = uuid.uuid4()\nb = os.urandom(8)\n"
        )
        assert ids == ["DET002", "DET002"]

    def test_seeded_random_instance_is_clean(self):
        # A literal seed is FLW102's finding, so the stream is seeded
        # from a parameter here.
        ids = rule_ids(
            """
            import random

            def draw(seed):
                rng = random.Random(seed)
                return rng.random()
            """
        )
        assert ids == []

    def test_unseeded_random_instance_fires(self):
        assert rule_ids("import random\nrng = random.Random()\n") == ["DET002"]

    def test_injected_rng_method_is_clean(self):
        assert rule_ids("def f(rng):\n    return rng.lognormvariate(0, 1)\n") == []


class TestDET003UnsortedSetIteration:
    def test_list_over_set_call_fires_once(self):
        assert rule_ids("out = list(set(items))\n") == ["DET003"]

    def test_tuple_over_keys_fires(self):
        assert rule_ids("out = tuple(mapping.keys())\n") == ["DET003"]

    def test_join_over_set_comprehension_fires(self):
        ids = rule_ids('text = ",".join({str(x) for x in items})\n')
        assert ids == ["DET003"]

    def test_list_comprehension_over_set_literal_fires(self):
        assert rule_ids("out = [x for x in {1, 2, 3}]\n") == ["DET003"]

    def test_sorted_wrapping_is_clean(self):
        snippet = (
            "a = sorted(set(items))\n"
            "b = list(sorted(mapping.keys()))\n"
            "c = [x for x in sorted({1, 2})]\n"
        )
        assert rule_ids(snippet) == []


class TestDET004EpochFullWorldIteration:
    EPOCH_PATH = "src/repro/core/epoch_runner.py"

    def test_truths_for_loop_fires_in_epoch_module(self):
        snippet = """
            def scan(world):
                out = []
                for name in world.truths:
                    out.append(name)
                return out
        """
        assert rule_ids(snippet, path=self.EPOCH_PATH) == ["DET004"]

    def test_targets_call_comprehension_fires(self):
        snippet = "rows = [probe(d) for d in study.targets()]\n"
        assert rule_ids(snippet, path=self.EPOCH_PATH) == ["DET004"]

    def test_truths_dict_view_fires(self):
        snippet = """
            def scan(world):
                for name, truth in world.truths.items():
                    yield truth
        """
        assert rule_ids(snippet, path=self.EPOCH_PATH) == ["DET004"]

    def test_same_code_outside_epoch_paths_is_clean(self):
        snippet = "rows = [probe(d) for d in study.targets()]\n"
        assert rule_ids(snippet, path="src/repro/core/study.py") == []
        assert rule_ids(snippet) == []

    def test_subset_iteration_in_epoch_module_is_clean(self):
        snippet = """
            def reprobe(flagged, targets):
                return {d: targets[d] for d in sorted(flagged)}
        """
        assert rule_ids(snippet, path=self.EPOCH_PATH) == []

    def test_universe_snapshot_attribute_is_clean(self):
        # A plain dict snapshot taken at construction is the sanctioned
        # full-probe path (bootstrap); only .truths/.targets() fire.
        snippet = """
            def bootstrap(self):
                return {d: probe(d) for d in self._targets}
        """
        assert rule_ids(snippet, path=self.EPOCH_PATH) == []


class TestERR001SilentExcept:
    def test_broad_except_pass_fires_once(self):
        ids = rule_ids(
            """
            try:
                risky()
            except Exception:
                pass
            """
        )
        assert ids == ["ERR001"]

    def test_bare_except_continue_fires(self):
        ids = rule_ids(
            """
            for item in items:
                try:
                    risky(item)
                except:
                    continue
            """
        )
        assert ids == ["ERR001"]

    def test_narrow_except_is_clean(self):
        ids = rule_ids(
            """
            try:
                risky()
            except ValueError:
                pass
            """
        )
        assert ids == []

    def test_broad_except_with_handling_is_clean(self):
        ids = rule_ids(
            """
            try:
                risky()
            except Exception:
                skipped += 1
            """
        )
        assert ids == []


class TestDNS001StringComparison:
    def test_domain_variable_vs_literal_fires_once(self):
        assert rule_ids('found = domain == "ns1.example.com"\n') == ["DNS001"]

    def test_str_cast_vs_literal_fires(self):
        assert rule_ids('found = str(value) == "gov.au"\n') == ["DNS001"]

    def test_membership_fires(self):
        ids = rule_ids('bad = "a.gov.au" in hostnames\n')
        assert ids == ["DNS001"]

    def test_non_dns_identifier_is_clean(self):
        assert rule_ids('ok = filename == "table2.csv"\n') == []

    def test_non_domain_literal_is_clean(self):
        assert rule_ids('ok = domain == "LOCAL"\n') == []


class TestRES001MissingTimeoutRetry:
    def test_resolver_without_policy_fires_once(self):
        ids = rule_ids("r = Resolver(network, roots)\n")
        assert ids == ["RES001"]

    def test_resolver_with_policy_is_clean(self):
        ids = rule_ids(
            "r = Resolver(network, roots, timeout=3.0, retries=1)\n"
        )
        assert ids == []

    def test_network_query_without_timeout_fires(self):
        ids = rule_ids("reply = self._network.query(addr, payload)\n")
        assert ids == ["RES001"]

    def test_network_query_with_timeout_is_clean(self):
        ids = rule_ids(
            "reply = network.query(addr, payload, timeout=3.0)\n"
        )
        assert ids == []

    def test_double_star_kwargs_are_trusted(self):
        assert rule_ids("r = Resolver(network, roots, **policy)\n") == []


class TestRES002RetryBackoff:
    def test_unbounded_while_true_retry_fires_once(self):
        ids = rule_ids(
            """
            def fetch(clock):
                while True:
                    try:
                        return probe()
                    except QueryTimeout:
                        continue
            """
        )
        assert ids == ["RES002"]

    def test_fixed_sleep_between_attempts_fires_once(self):
        ids = rule_ids(
            """
            def fetch(clock):
                for attempt in range(3):
                    try:
                        return probe()
                    except QueryTimeout:
                        clock.advance(2.0)
                        continue
            """
        )
        assert ids == ["RES002"]

    def test_bounded_retry_with_computed_backoff_is_clean(self):
        ids = rule_ids(
            """
            def fetch(clock, backoff, rng):
                for attempt in range(1, 4):
                    try:
                        return probe()
                    except QueryTimeout:
                        clock.advance(backoff.delay(attempt, rng))
                        continue
            """
        )
        assert ids == []

    def test_non_retry_while_true_is_clean(self):
        # An event pump that never catches-and-continues is not a
        # retry loop, however unbounded it looks.
        ids = rule_ids(
            """
            def pump(events):
                while True:
                    if not events.run_next():
                        break
            """
        )
        assert ids == []

    def test_fixed_wait_outside_retry_loop_is_clean(self):
        ids = rule_ids(
            """
            def settle(clock):
                for _ in range(3):
                    clock.advance(2.0)
            """
        )
        assert ids == []

    def test_nested_function_retry_not_charged_to_outer_loop(self):
        # The outer loop only defines workers; the retry shape lives in
        # the nested def, which gets its own (clean) visit.
        ids = rule_ids(
            """
            def build(clock):
                workers = []
                for _ in range(3):
                    def work(backoff, rng, attempt=0):
                        try:
                            return probe()
                        except QueryTimeout:
                            clock.advance(backoff.delay(attempt, rng))
                    workers.append(work)
                return workers
            """
        )
        assert ids == []

    def test_one_finding_per_loop_even_with_both_defects(self):
        ids = rule_ids(
            """
            def fetch(clock):
                while True:
                    try:
                        return probe()
                    except QueryTimeout:
                        clock.advance(5.0)
                        continue
            """
        )
        assert ids == ["RES002"]


class TestSuppressions:
    def test_inline_disable_silences_one_rule(self):
        ids = rule_ids(
            "import time\n"
            "now = time.time()  # reprolint: disable=DET001\n"
        )
        assert ids == []

    def test_disable_all_silences_everything(self):
        ids = rule_ids(
            "import time\n"
            "now = time.time()  # reprolint: disable=all\n"
        )
        assert ids == []

    def test_disable_of_other_rule_does_not_silence(self):
        ids = rule_ids(
            "import time\n"
            "now = time.time()  # reprolint: disable=DET002\n"
        )
        assert ids == ["DET001"]


class TestEngineBasics:
    def test_syntax_error_becomes_parse_finding(self):
        findings = lint("def broken(:\n")
        assert [f.rule_id for f in findings] == ["PARSE"]

    def test_findings_carry_location_and_snippet(self):
        (finding,) = lint("import time\nnow = time.time()\n")
        assert finding.line == 2
        assert finding.snippet == "now = time.time()"
        assert finding.path == "src/repro/fake/mod.py"


# ----------------------------------------------------------------------
# The former flowlint fixtures, one LintEngine run per file.  Each entry
# maps a fixture (path -> source) to the sorted rule ids it must raise.
# Every fixture that fired an FLW rule through the old interprocedural
# analyzer fires its replacement here, on the source line itself:
# FLW001 -> DET001, FLW002 -> DET002, FLW003/FLW004 -> DET005,
# FLW005 -> DET003; FLW101-FLW103 keep their ids (DESIGN.md §12).
# ----------------------------------------------------------------------
CROSS_FUNCTION_CLOCK = {
    "pkg/collect.py": """
        import time

        from .digest import stamp_digest

        def make_stamp():
            return time.ctime()

        def build_report():
            stamp = make_stamp()
            return stamp_digest(stamp)
        """,
    "pkg/digest.py": """
        import hashlib

        def stamp_digest(stamp):
            h = hashlib.sha256(stamp.encode("utf-8"))
            return h.hexdigest()
        """,
}

WORKER = """
    import random

    from .helper import build_stream

    def _shard_worker(task):
        return build_stream()
    """

FLOW_FIXTURES = {
    "flw001_cross_function_clock_to_digest": (CROSS_FUNCTION_CLOCK, ["DET001"]),
    # Dropped on purpose: an inline DET001 suppression accepts the
    # clock read, and nothing traces it onward to the digest.
    "flw001_suppressed_clock_read_stays_accepted": (
        {
            path: source.replace(
                "return time.ctime()",
                "return time.ctime()  # reprolint: disable=DET001",
            )
            for path, source in CROSS_FUNCTION_CLOCK.items()
        },
        [],
    ),
    "flw001_derived_sink_via_parameter_chain": (
        {
            "pkg/deep.py": """
            import hashlib
            import time

            def inner(payload):
                return hashlib.sha256(payload).hexdigest()

            def middle(payload):
                return inner(payload)

            def outer():
                raw = str(time.time_ns()).encode("utf-8")
                return middle(raw)
            """
        },
        ["DET001"],
    ),
    "flw002_entropy_into_digest": (
        {
            "pkg/m.py": """
            import hashlib
            import os

            def token_digest():
                token = os.urandom(8)
                return hashlib.sha256(token).hexdigest()
            """
        },
        ["DET002"],
    ),
    "flw002_global_rng_through_helper": (
        {
            "pkg/m.py": """
            import json
            import random

            def draw():
                return random.random()

            def emit():
                return json.dumps({"sample": draw()})
            """
        },
        ["DET002"],
    ),
    "flw002_seeded_stream_is_clean": (
        {
            "pkg/m.py": """
            import json
            import random

            def emit(seed):
                rng = random.Random(seed)
                return json.dumps({"sample": rng.random()})
            """
        },
        [],
    ),
    "flw002_unseeded_random_constructor_is_entropy": (
        {
            "pkg/m.py": """
            import json
            import random

            def emit():
                rng = random.Random()
                return json.dumps({"sample": rng.random()})
            """
        },
        ["DET002"],
    ),
    "flw003_environment_into_serialization": (
        {
            "pkg/m.py": """
            import json
            import os

            def emit():
                return json.dumps({"mode": os.environ.get("MODE", "x")})
            """
        },
        ["DET005"],
    ),
    "flw004_object_identity_into_serialization": (
        {
            "pkg/m.py": """
            import json

            def emit(record):
                return json.dumps({"key": id(record)})
            """
        },
        ["DET005"],
    ),
    "flw005_materialized_set_order_into_serialization": (
        {
            "pkg/m.py": """
            import json

            def emit(names):
                bag = set(names)
                return json.dumps(list(bag))
            """
        },
        ["DET003"],
    ),
    "flw005_sorted_launders_order": (
        {
            "pkg/m.py": """
            import json

            def emit(names):
                bag = set(names)
                return json.dumps(sorted(bag))
            """
        },
        [],
    ),
    "flw005_set_comprehension_via_join": (
        {
            "pkg/m.py": """
            import json

            def emit(names):
                unique = {name.lower() for name in names}
                return json.dumps(",".join(unique))
            """
        },
        ["DET003"],
    ),
    "perf_record_is_a_sink": (
        {
            "pkg/m.py": """
            import time

            from repro.report.bench import PerfRecord

            def commit(name):
                return PerfRecord(name, time.perf_counter())
            """
        },
        ["DET001"],
    ),
    "dataset_merge_admission_order_is_a_sink": (
        {
            "pkg/m.py": """
            from repro.core.journal import MeasurementDataset

            def combine(parts):
                chunks = set(parts)
                return MeasurementDataset.merge(chunks)
            """
        },
        ["DET003"],
    ),
    "serving_report_is_a_sink": (
        {
            "pkg/m.py": """
            import time

            from repro.report.serving import ServingReport

            def commit(stats):
                stamp = time.time()
                return ServingReport(stats, stamp)
            """
        },
        ["DET001"],
    ),
    "serving_report_clean_inputs_stay_quiet": (
        {
            "pkg/m.py": """
            from repro.report.serving import ServingReport

            def commit(stats, clock_now):
                return ServingReport(stats, clock_now)
            """
        },
        [],
    ),
    "flw101_write_after_yield_fires": (
        {
            "pkg/m.py": """
            class Task:
                def __init__(self):
                    self.seen = 0

                def run(self):
                    reply = yield ("query", 1)
                    self.seen = self.seen + 1
            """
        },
        ["FLW101"],
    ),
    "flw101_write_before_first_yield_is_clean": (
        {
            "pkg/m.py": """
            class Task:
                def run(self):
                    self.started = True
                    reply = yield ("query", 1)
                    return reply
            """
        },
        [],
    ),
    "flw101_write_in_yielding_loop_fires": (
        {
            "pkg/m.py": """
            class Task:
                def run(self, jobs):
                    for job in jobs:
                        self.current = job
                        yield ("query", job)
            """
        },
        ["FLW101"],
    ),
    "flw101_non_generator_method_is_clean": (
        {
            "pkg/m.py": """
            class Counter:
                def bump(self):
                    self.count = self.count + 1
            """
        },
        [],
    ),
    "flw102_constant_seed_reachable_from_worker": (
        {
            "pkg/worker.py": WORKER,
            "pkg/helper.py": """
            import random

            def build_stream():
                return random.Random(0)
            """,
        },
        ["FLW102"],
    ),
    # Stricter than before: a literal seed fires wherever it is built,
    # not only inside the shard worker's call graph.
    "flw102_quiet_outside_worker_graph": (
        {
            "pkg/helper.py": """
            import random

            def build_stream():
                return random.Random(0)
            """
        },
        ["FLW102"],
    ),
    "flw102_derived_seed_is_clean": (
        {
            "pkg/worker.py": WORKER,
            "pkg/helper.py": """
            import random

            def build_stream(material="seed"):
                return random.Random(material)
            """,
        },
        [],
    ),
    "flw103_put_after_freeze_fires": (
        {
            "pkg/m.py": """
            def warm(cache, entries):
                cache.freeze()
                cache.put("zone.", entries)
            """
        },
        ["FLW103"],
    ),
    "flw103_freeze_last_is_clean": (
        {
            "pkg/m.py": """
            def warm(cache, entries):
                cache.put("zone.", entries)
                cache.freeze()
            """
        },
        [],
    ),
    # Suppression parity: the finding now sits on the source line, so
    # that is where the comment goes.
    "det005_inline_suppression_silences_the_source": (
        {
            "pkg/m.py": """
            import json
            import os

            def emit():
                mode = os.environ.get("MODE", "x")  # reprolint: disable=DET005
                return json.dumps({"mode": mode})
            """
        },
        [],
    ),
    "det005_suppression_of_other_rule_does_not_silence": (
        {
            "pkg/m.py": """
            import json
            import os

            def emit():
                mode = os.environ.get("MODE", "x")  # reprolint: disable=DET001
                return json.dumps({"mode": mode})
            """
        },
        ["DET005"],
    ),
    # Shapes the stricter rules found in src/ (both fixed there).
    "det005_id_keyed_retry_set": (
        {
            "pkg/m.py": """
            def journal_final(results, needs_retry, journal):
                retry_set = {id(r) for r in needs_retry}
                for result in results:
                    if id(result) not in retry_set:
                        journal.record(result)
            """
        },
        ["DET005", "DET005"],
    ),
    "det003_set_through_tuple_into_helper": (
        {
            "pkg/m.py": """
            def classify(result, lookup):
                parent = set(result.parent_ns)
                return lookup(result, tuple(parent))
            """
        },
        ["DET003"],
    ),
}


class TestFormerFlowFixtures:
    @pytest.mark.parametrize("name", sorted(FLOW_FIXTURES))
    def test_lints_as(self, name):
        files, expected = FLOW_FIXTURES[name]
        engine = LintEngine()
        fired = sorted(
            finding.rule_id
            for path, source in files.items()
            for finding in engine.lint_source(textwrap.dedent(source), path)
        )
        assert fired == expected


class TestDET005EnvironmentIdentity:
    def test_getenv_and_aliased_environ_fire(self):
        ids = rule_ids(
            "from os import environ as env, getenv\n"
            "a = getenv('HOME')\n"
            "b = env['HOME']\n"
        )
        assert ids == ["DET005", "DET005"]

    def test_hash_inside_dunder_hash_is_clean(self):
        snippet = """
            class Key:
                def __hash__(self):
                    return hash(self.packed)
        """
        assert rule_ids(snippet) == []

    def test_hash_elsewhere_fires(self):
        snippet = """
            class Key:
                def bucket(self):
                    return hash(self.packed) % 8
        """
        assert rule_ids(snippet) == ["DET005"]

    def test_shadowed_id_attribute_is_clean(self):
        assert rule_ids("key = record.id(3)\n") == []


class TestDET003WithinOneFunction:
    def test_rebinding_clears_the_set(self):
        snippet = """
            def emit(names):
                bag = set(names)
                bag = sorted(bag)
                return list(bag)
        """
        assert rule_ids(snippet) == []

    def test_list_comprehension_over_named_set_fires(self):
        snippet = """
            def emit(names):
                bag: set = {n.lower() for n in names}
                bag |= {"extra"}
                return [name for name in bag]
        """
        assert rule_ids(snippet) == ["DET003"]

    def test_parameter_is_not_followed(self):
        assert rule_ids("def emit(bag):\n    return list(bag)\n") == []
