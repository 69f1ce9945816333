"""Per-rule fixture tests for the reprolint rule pack.

Each positive fixture triggers its rule exactly once; the negatives
exercise the sanctioned idioms the rule must leave alone.
"""

from __future__ import annotations

import textwrap

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
        ids = rule_ids(
            """
            import random

            rng = random.Random(42)
            value = rng.random()
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
