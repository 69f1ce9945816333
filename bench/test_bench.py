"""Smoke test of the benchmark itself: ``pytest bench``.

Runs every workload once on a tiny world (scale 0.004, one round plus
the traced trial), then checks the metric surface, the span table, the
output checks and the comparator's verdicts.
"""

from __future__ import annotations

import json
import os

import pytest

import compare
import run
import trace

SCALE = 0.004
SEED = 7

# The workload that must enter each wrapped callable.
SPAN_WORKLOAD = {
    "WorldGenerator.generate": "study",
    "GovernmentDnsStudy.seeds": "study",
    "GovernmentDnsStudy.targets": "study",
    "ActiveProber.probe_all": "study",
    "EventScheduler.run_next": "study",
    "Network.send": "study",
    "AuthoritativeServer.handle_datagram": "study",
    "Resolver.resolve": "study",
    "ResolverCache.lookup": "serve-mixed",
    "ZoneCutCache.deepest_enclosing": "study",
    "ProcessCampaignRunner.collect": "sharded",
    "ProcessCampaignRunner.merge": "sharded",
    "MeasurementDataset.merge": "sharded",
    "DatasetColumns.build": "study",
    "repro.core.journal.dataset_digest": "study",
    "repro.report.paperkit.render_all": "study",
    "EpochRunner.bootstrap": "epochs",
    "EpochRunner.run_epoch": "epochs",
    "repro.core.epoch.advance_world": "epochs",
    "ChangeSensor.feeds_for": "epochs",
    "LongitudinalDataset.append_epoch": "epochs",
    "LongitudinalDataset.columns_at": "epochs",
    "ClientWorkload.generate": "serve-mixed",
    "RecursiveService.warm": "serve-mixed",
    "RecursiveService.run": "serve-mixed",
    "HealthAwareResolver.resolve": "serve-mixed",
    "ServingReport.collect": "serve-mixed",
}


@pytest.fixture(scope="module")
def declared():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out_dir = str(tmp_path_factory.mktemp("bench-out"))
    with open(os.devnull, "w") as quiet:
        results = run.run_benchmark(
            list(run.SCALES), SEED, seconds=0, trace=True, min_rounds=1,
            scale=SCALE, out_dir=out_dir, log=quiet,
        )
    return results, out_dir


def test_smoke_run_is_correct(smoke):
    results, _ = smoke
    assert results["correct"], {
        name: report["problems"] for name, report in results["workloads"].items()
    }
    assert results["failed"] == 0
    for report in results["workloads"].values():
        # One timed and one traced trial plus the reference run.
        assert report["attempted"] == 3
        assert set(report["counters"]) <= set(compare.DETERMINISTIC)
        assert report["counters"]["net.datagrams_per_op"] > 0


def test_declared_workloads_and_metrics_are_emitted(smoke, declared):
    results, _ = smoke
    assert [w["name"] for w in declared["workloads"]] == list(run.SCALES)
    end_to_end = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in declared["per_layer"]}
    assert end_to_end == run.END_TO_END
    assert per_layer == trace.LAYER_METRICS
    for name, report in results["workloads"].items():
        emitted = {metric: v["unit"] for metric, v in report["metrics"].items()}
        assert emitted == end_to_end, name
        assert all(v["value"] > 0 for v in report["metrics"].values()), name
        layers = {metric: v["unit"] for metric, v in report["layers"].items()}
        assert layers == per_layer, name


def test_result_line_carries_every_metric(smoke, declared):
    results, _ = smoke
    single = {
        **results,
        "workloads": {"study": results["workloads"]["study"]},
    }
    for traced, key in ((False, "end_to_end"), (True, "per_layer")):
        line = json.loads(run.result_line(single, traced))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["attempted"] >= 1
        assert {
            name: metric["unit"] for name, metric in line["metrics"].items()
        } == {metric["name"]: metric["unit"] for metric in declared[key]}


def test_every_wrapped_span_fires(smoke):
    _, out_dir = smoke
    fired = {}
    for workload in run.SCALES:
        path = os.path.join(out_dir, f"{workload}.trace.json")
        with open(path, encoding="utf-8") as handle:
            spans = json.load(handle)
        kinds = [kind["name"] for kind in spans["kinds"]]
        fired[workload] = {kinds[span[0]] for span in spans["spans"]}
    wrapped = {kind for kind in kinds if not kind.split(".")[0].endswith("Analysis")}
    assert wrapped == set(SPAN_WORKLOAD)
    for kind, workload in SPAN_WORKLOAD.items():
        assert kind in fired[workload], (kind, workload)
    analyses = {kind.split(".")[0] for kind in fired["study"] if "Analysis." in kind}
    assert analyses == {owner for _, owner, _ in trace.ANALYSES}


def test_unattributed_time_is_small(smoke):
    results, _ = smoke
    for name, report in results["workloads"].items():
        assert report["layers"]["trace.unattributed_share"]["value"] <= 0.1, name


def test_forced_digest_mismatch_fails_the_run(tmp_path):
    wrong = {("study", SEED, SCALE): {"dataset": "0" * 64, "render": "0" * 64}}
    with open(os.devnull, "w") as quiet:
        results = run.run_benchmark(
            ["study"], SEED, seconds=0, trace=False, min_rounds=1,
            scale=SCALE, expected=wrong, out_dir=str(tmp_path), log=quiet,
        )
    assert not results["correct"]
    assert results["failed"] >= 1
    assert "committed digests" in " ".join(
        results["workloads"]["study"]["problems"]
    )
    assert json.loads(run.result_line(results, False))["correct"] is False


class TestComparatorVerdicts:
    def test_clear_win_is_improved(self):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        change = [value * 0.8 for value in parent]
        assert compare.verdict(parent, change, 0.1, "lower")[0] == "improved"

    def test_win_inside_parent_spread_is_not_a_gain(self):
        parent = [1.0, 1.2, 0.8, 1.1, 0.9, 1.0, 1.2, 0.8, 1.1, 0.9]
        change = [value - 0.01 for value in parent]
        assert compare.verdict(parent, change, 0.3, "lower")[0] == "unchanged"

    def test_clear_loss_inside_the_bound_is_slower(self):
        parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
        change = [value * 1.12 for value in parent]
        assert compare.verdict(parent, change, 0.25, "lower")[0] == "slower"
        assert compare.verdict(parent, change, 0.10, "lower")[0] == "regressed"

    def test_too_few_pairs_is_not_a_gain(self):
        parent = [1.0, 1.01, 0.99]
        change = [0.5, 0.51, 0.49]
        assert compare.verdict(parent, change, 0.1, "lower")[0] == "unchanged"

    def test_spread_wider_than_bound_is_unresolved(self):
        parent = [1.0, 1.5, 0.7, 1.3, 0.8, 1.0, 1.4, 0.7, 1.2, 0.9]
        change = [1.1, 0.8, 1.4, 0.9, 1.3, 1.0, 0.8, 1.5, 1.0, 1.2]
        assert compare.verdict(parent, change, 0.1, "lower")[0] == "unresolved"

    def test_worse_beyond_bound_is_regressed(self):
        parent = [1.0, 1.01, 0.99, 1.0]
        change = [1.2, 1.21, 1.19, 1.2]
        assert compare.verdict(parent, change, 0.1, "lower")[0] == "regressed"
        assert compare.verdict(change, parent, 0.1, "higher")[0] == "regressed"

    @staticmethod
    def result(seed, value=1.0, wall=1.0, digest="a", failed=0, counters=None):
        return {
            "header": {"seed": seed},
            "workloads": {"study": {
                "metrics": {name: {"value": value} for name in run.END_TO_END},
                "walls": {name: {"value": wall} for name in compare.WALLS.values()},
                "counters": counters or {},
                "outputs": {"dataset": digest},
                "attempted": 7, "failed": failed,
            }},
        }

    def test_reports_flag_failures_and_digest_changes(self, declared):
        rows, flags = compare.compare(
            [self.result(7)], [self.result(7, digest="b", failed=1)], declared
        )
        assert {row["verdict"] for row in rows} == {"unchanged"}
        assert any("failed_share" in flag for flag in flags)
        assert any("digest changed at seed 7" in flag for flag in flags)

    def test_cache_heavy_slowdown_is_not_unchanged(self, declared):
        # The change evicts the speed probe's table as well: the probe
        # slows with the workload, so the normalized times stay put
        # while the wall times grow by 30%.
        noise = [1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.01, 0.99, 1.00, 1.01]
        parents = [self.result(seed, value=n, wall=n) for seed, n in enumerate(noise)]
        changes = [
            self.result(seed, value=n, wall=1.3 * n) for seed, n in enumerate(noise)
        ]
        rows, flags = compare.compare(parents, changes, declared)
        verdicts = {row["metric"]: row["verdict"] for row in rows}
        assert verdicts["run_s"] == "unchanged"
        assert verdicts["wall_run_s"] == "regressed"
        assert verdicts["wall_setup_s"] == "regressed"
        assert any("wall_run_s regressed while run_s" in flag for flag in flags)

    def test_wall_drift_between_single_runs_is_unresolved(self, declared):
        rows, flags = compare.compare(
            [self.result(7)], [self.result(7, wall=1.3)], declared
        )
        verdicts = {row["metric"]: row["verdict"] for row in rows}
        assert verdicts["run_s"] == "unchanged"
        assert verdicts["wall_run_s"] == "unresolved"
        assert flags == []

    def test_deterministic_count_may_not_get_worse(self, declared):
        parent = self.result(7, counters={"net.datagrams_per_op": 4.0})
        worse = self.result(7, counters={"net.datagrams_per_op": 4.5})
        better = self.result(7, counters={"net.datagrams_per_op": 3.5})
        elsewhere = self.result(11, counters={"net.datagrams_per_op": 4.5})
        _, flags = compare.compare([parent], [worse], declared)
        assert any("net.datagrams_per_op got worse at seed 7" in f for f in flags)
        for change in (better, elsewhere):
            _, flags = compare.compare([parent], [change], declared)
            assert not any("datagrams_per_op" in flag for flag in flags)
