"""Longitudinal epochs: churn, sensing, delta chain, and invariance.

The load-bearing promise (DESIGN.md §16): after any number of churn
epochs, the incrementally folded dataset — probing only what the
passive sensor flagged plus the audit sample — is byte-identical,
digest and columns, to a from-scratch full campaign over that epoch's
world, for any shard count, even when the sensor lies or dies.  The
invariance test at the bottom exercises the promise across seeds ×
epochs × shard counts; the unit tests above pin each mechanism it
rests on.
"""

from __future__ import annotations

import dataclasses
import io
import os

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.core import journal, longitudinal
from repro.core.dataset import DatasetColumns, MeasurementDataset
from repro.core.epoch import EpochRunner
from repro.core.journal import dataset_digest, result_to_dict
from repro.core.longitudinal import LongitudinalDataset
from repro.core.probe import ActiveProber
from repro.core.study import GovernmentDnsStudy
from repro.dns.name import DnsName
from repro.pdns.change import ChangeSensor, CountryFeed, QUIET_NOISE, SensorNoise
from repro.report.trend import TrendReport, linear_slope
from repro.worldgen import WorldConfig, WorldGenerator
from repro.worldgen.churn import build_churn_plan, world_at_epoch

from tests.conftest import TEST_SCALE, TEST_SEED
from tests.digest_reference import (
    base_chain_digest,
    next_chain_digest,
    one_blob_digest,
)


def fresh_world(seed=TEST_SEED, scale=TEST_SCALE):
    return WorldGenerator(WorldConfig(seed=seed, scale=scale)).generate()


def full_campaign_digest(seed, scale, epoch):
    """Digest of a from-scratch full campaign on epoch ``epoch``'s world."""
    world = world_at_epoch(seed, scale, epoch)
    targets = GovernmentDnsStudy(world).targets()
    prober = ActiveProber(
        world.network, world.root_addresses, world.probe_source
    )
    return dataset_digest(prober.probe_all(targets))


EPOCHS = 3


@pytest.fixture(scope="module")
def runner():
    """A bootstrapped incremental run, three churn epochs deep."""
    instance = EpochRunner(fresh_world())
    instance.run(EPOCHS)
    return instance


@pytest.fixture(scope="module")
def full_runner():
    """The naive baseline over the same world: re-probe everything."""
    instance = EpochRunner(fresh_world(), incremental=False)
    instance.run(EPOCHS)
    return instance


# ----------------------------------------------------------------------
# Churn plans
# ----------------------------------------------------------------------
class TestChurnDeterminism:
    def test_plan_is_pure_function_of_world_and_epoch(self):
        first = build_churn_plan(fresh_world(), 1)
        second = build_churn_plan(fresh_world(), 1)
        assert first.to_dict() == second.to_dict()

    def test_plan_sequence_replays_identically(self, runner):
        replay = EpochRunner(fresh_world())
        replay.run(EPOCHS)
        assert [plan.to_dict() for plan in replay.plans] == [
            plan.to_dict() for plan in runner.plans
        ]

    def test_changed_domains_sorted_and_cover_every_op(self):
        plan = build_churn_plan(fresh_world(), 1)
        assert plan.ops, "smoke-scale world must produce churn"
        assert list(plan.changed_domains) == sorted(
            {op.domain for op in plan.ops}
        )

    def test_ops_touch_leaves_only(self):
        world = fresh_world()
        parents = {
            truth.parent
            for truth in world.truths.values()
            if truth.parent is not None
        }
        plan = build_churn_plan(world, 1)
        for op in plan.ops:
            assert op.domain not in parents, (
                f"{op.kind} op on {op.domain} would cascade beyond the "
                f"changed set"
            )

    def test_target_universe_is_fixed_across_epochs(self):
        base = GovernmentDnsStudy(fresh_world()).targets()
        evolved = GovernmentDnsStudy(
            world_at_epoch(TEST_SEED, TEST_SCALE, 2)
        ).targets()
        assert evolved == base


# ----------------------------------------------------------------------
# The passive sensor
# ----------------------------------------------------------------------
class TestChangeSensor:
    def test_feeds_partition_the_universe(self):
        targets = GovernmentDnsStudy(fresh_world()).targets()
        sensor = ChangeSensor(TEST_SEED, TEST_SCALE, QUIET_NOISE)
        feeds = sensor.feeds_for(1, targets, ())
        seen = [d for feed in feeds for d in feed.cohort]
        assert sorted(seen) == sorted(targets)
        assert len(seen) == len(set(seen))
        for feed in feeds:
            assert all(targets[d] == feed.iso2 for d in feed.cohort)
            assert list(feed.cohort) == sorted(feed.cohort)

    def test_quiet_sensor_flags_exactly_the_changed_set(self):
        world = fresh_world()
        targets = GovernmentDnsStudy(world).targets()
        plan = build_churn_plan(world, 1)
        sensor = ChangeSensor(TEST_SEED, TEST_SCALE, QUIET_NOISE)
        feeds = sensor.feeds_for(1, targets, plan.changed_domains)
        assert not any(feed.dead for feed in feeds)
        flagged = {d for feed in feeds for d in feed.flagged}
        # Ops on names outside the probe universe (e.g. re-adds of
        # REMOVED domains) have no feed to appear in.
        assert flagged == set(plan.changed_domains) & set(targets)

    def test_feeds_are_reproducible(self):
        targets = GovernmentDnsStudy(fresh_world()).targets()
        noise = SensorNoise(false_positive_rate=0.2, feed_outage_rate=0.3)
        first = ChangeSensor(TEST_SEED, TEST_SCALE, noise).feeds_for(
            2, targets, ()
        )
        second = ChangeSensor(TEST_SEED, TEST_SCALE, noise).feeds_for(
            2, targets, ()
        )
        assert first == second

    def test_noise_rates_are_validated(self):
        with pytest.raises(ValueError):
            SensorNoise(false_positive_rate=1.5)
        with pytest.raises(ValueError):
            SensorNoise(feed_outage_rate=-0.1)

    def test_dead_feed_flags_nothing_and_reports_zero_volume(self):
        targets = GovernmentDnsStudy(fresh_world()).targets()
        noise = SensorNoise(false_positive_rate=0.0, feed_outage_rate=1.0)
        feeds = ChangeSensor(TEST_SEED, TEST_SCALE, noise).feeds_for(
            1, targets, ()
        )
        assert feeds and all(feed.dead for feed in feeds)
        assert all(feed.flagged == () for feed in feeds)


# ----------------------------------------------------------------------
# Carry-forward attribution (the delta records only genuine changes)
# ----------------------------------------------------------------------
class TestCarryForward:
    def test_unprobed_domains_keep_epoch_zero_attribution(self, runner):
        dataset = runner.dataset
        probed_ever = {
            d for delta in dataset.deltas for d in delta.probed
        }
        untouched = sorted(set(runner.targets) - probed_ever)
        assert untouched, "some domains must escape every epoch's probe"
        base = dataset.results_at(0)
        for domain in untouched:
            assert dataset.origin_epoch(domain) == 0
            assert result_to_dict(dataset.latest(domain)) == result_to_dict(
                base[domain]
            )

    def test_unprobed_domains_never_enter_later_deltas(self, runner):
        dataset = runner.dataset
        probed_ever = {
            d for delta in dataset.deltas for d in delta.probed
        }
        untouched = set(runner.targets) - probed_ever
        for delta in dataset.deltas:
            assert untouched.isdisjoint(delta.changed)
            assert untouched.isdisjoint(delta.responsive_changed)

    def test_probed_but_unchanged_rows_are_not_new_versions(self, runner):
        dataset = runner.dataset
        found = False
        for delta in dataset.deltas:
            for domain in delta.probed:
                if domain not in delta.changed:
                    found = True
                    assert dataset.origin_epoch(domain) != delta.epoch
        assert found, "audit sampling must re-probe unchanged domains"

    def test_responsive_deltas_are_a_subset_of_changed(self, runner):
        for delta in runner.dataset.deltas:
            assert set(delta.responsive_changed) <= set(delta.changed)

    def test_append_epoch_rejects_domains_outside_the_universe(self, runner):
        dataset = runner.dataset
        alien = DnsName.parse("not-a-target.example.")
        sample = next(iter(dataset.results_at(0).values()))
        with pytest.raises(ValueError, match="not in the base universe"):
            dataset.append_epoch(MeasurementDataset({alien: sample}))

    def test_rejected_batch_leaves_the_chain_untouched(self, dataset):
        # One genuinely changed real domain, plus an alien that sorts
        # after it: the real row must not be folded in before the
        # alien is refused.
        chain = LongitudinalDataset(dataset)
        real = min(dataset.results)
        alien = DnsName.parse("zz-not-a-target.example.")
        assert real < alien
        original = chain.latest(real)
        changed = dataclasses.replace(
            original, queries_sent=original.queries_sent + 1
        )
        with pytest.raises(ValueError, match="not in the base universe"):
            chain.append_epoch(
                MeasurementDataset({real: changed, alien: changed})
            )
        assert chain.epochs == 1
        assert chain.latest(real) is original
        assert chain.origin_epoch(real) == 0
        delta = chain.append_epoch(MeasurementDataset({real: original}))
        assert not delta.changed
        assert delta.epoch_digest == chain.epoch_digest(0)
        assert delta.epoch_digest == dataset_digest(dataset)


# ----------------------------------------------------------------------
# Copy-on-write columns
# ----------------------------------------------------------------------
COLUMN_FIELDS = (
    "domains",
    "iso2",
    "level",
    "parent_status",
    "responsive",
    "retried",
    "persistence",
    "defect_verdict",
    "defect_provisional",
    "defective_ns",
    "defective_in_parent",
    "consistency_verdict",
    "single_label_ns",
    "parent_only",
    "child_only",
)


class TestCopyOnWriteColumns:
    @pytest.mark.parametrize("epoch", range(EPOCHS + 1))
    def test_spliced_columns_match_full_rebuild(self, runner, epoch):
        spliced = runner.dataset.columns_at(epoch)
        rebuilt = DatasetColumns.build(runner.dataset.results_at(epoch))
        for name in COLUMN_FIELDS:
            assert getattr(spliced, name) == getattr(rebuilt, name), name
        assert spliced.ns_count == rebuilt.ns_count

    def test_as_of_carries_the_spliced_columns(self, runner):
        materialized = runner.dataset.as_of(EPOCHS)
        assert materialized.columns is runner.dataset.columns_at(EPOCHS)


# ----------------------------------------------------------------------
# Digest chain
# ----------------------------------------------------------------------
class TestDigestChain:
    def test_epoch_digest_is_the_materialized_dataset_digest(self, runner):
        for epoch in range(EPOCHS + 1):
            assert runner.dataset.epoch_digest(epoch) == dataset_digest(
                runner.dataset.as_of(epoch)
            )

    def test_chain_digests_are_distinct_per_epoch(self, runner):
        chain = [runner.dataset.chain_digest(k) for k in range(EPOCHS + 1)]
        assert len(set(chain)) == len(chain)

    def test_chain_replays_identically(self, runner):
        replay = EpochRunner(fresh_world())
        replay.run(EPOCHS)
        for epoch in range(EPOCHS + 1):
            assert replay.dataset.chain_digest(
                epoch
            ) == runner.dataset.chain_digest(epoch)

    def test_rows_are_captured_at_append(self, dataset):
        # Mutating a result after it was appended does not reach later
        # digests: the chain hashes the row it stored.
        base = MeasurementDataset(
            {d: dataclasses.replace(r) for d, r in dataset.results.items()}
        )
        chain = LongitudinalDataset(base)
        victim = base.results[min(base.results)]
        victim.queries_sent += 1
        delta = chain.append_epoch(MeasurementDataset({}))
        assert delta.epoch_digest == dataset_digest(dataset)

    def test_out_of_range_epochs_raise(self, runner):
        with pytest.raises(IndexError):
            runner.dataset.epoch_digest(EPOCHS + 1)
        with pytest.raises(IndexError):
            runner.dataset.delta(0)


class TestDigestChainReference:
    """Every epoch's digests against the one-blob reference formulas."""

    @pytest.mark.parametrize("seed", (TEST_SEED, 11))
    def test_epoch_and_chain_digests_match_reference(self, seed):
        runner = EpochRunner(fresh_world(seed))
        runner.run(EPOCHS)
        dataset = runner.dataset
        chain = base_chain_digest(one_blob_digest(dataset.results_at(0)))
        assert dataset.chain_digest(0) == chain
        for epoch in range(EPOCHS + 1):
            reference = one_blob_digest(dataset.as_of(epoch).results)
            assert dataset.epoch_digest(epoch) == reference, epoch
            if epoch:
                chain = next_chain_digest(
                    chain, epoch, reference, dataset.delta(epoch).changed
                )
                assert dataset.chain_digest(epoch) == chain, epoch


# ----------------------------------------------------------------------
# Sensor failure recovery
# ----------------------------------------------------------------------
class TestSensorFailureRecovery:
    def test_dead_feeds_trigger_cohort_reprobe_and_digests_survive(self):
        noise = SensorNoise(false_positive_rate=0.0, feed_outage_rate=1.0)
        runner = EpochRunner(fresh_world(), noise=noise)
        runner.bootstrap()
        stats = runner.run_epoch()
        cohorts = sorted(set(runner.targets.values()))
        assert list(stats.dead_feeds) == cohorts
        assert stats.probed == len(runner.targets)
        assert runner.dataset.epoch_digest(1) == full_campaign_digest(
            TEST_SEED, TEST_SCALE, 1
        )

    def test_false_positives_cost_probes_but_not_correctness(self):
        noise = SensorNoise(false_positive_rate=0.5, feed_outage_rate=0.0)
        noisy = EpochRunner(fresh_world(), noise=noise)
        noisy.bootstrap()
        stats = noisy.run_epoch()
        changed = len(noisy.plans[0].changed_domains)
        assert stats.flagged > changed
        assert noisy.dataset.epoch_digest(1) == full_campaign_digest(
            TEST_SEED, TEST_SCALE, 1
        )

    def test_lying_feed_is_caught_by_audit_escalation(self):
        # labor791.gov.by. is dropped by the epoch-1 churn plan at the
        # smoke seed/scale, and the 5% audit sample contains it: a BY
        # feed that reports healthy volume while omitting the change
        # must be escalated to a full cohort re-probe.
        liar = "BY"

        def lying_feeds(epoch, targets, changed):
            honest = ChangeSensor(
                TEST_SEED, TEST_SCALE, QUIET_NOISE
            ).feeds_for(epoch, targets, changed)
            return tuple(
                CountryFeed(f.iso2, f.cohort, (), f.observation_count)
                if f.iso2 == liar
                else f
                for f in honest
            )

        runner = EpochRunner(
            fresh_world(), audit_rate=0.05, feeds_factory=lying_feeds
        )
        runner.bootstrap()
        # Precondition: the audit sample really does include a domain
        # the BY feed is lying about (otherwise this test checks
        # nothing).
        audit = runner._audit_sample(1)
        plan = build_churn_plan(fresh_world(), 1)
        lied_about = [
            d
            for d in plan.changed_domains
            if runner.targets.get(d) == liar and d in set(audit)
        ]
        assert lied_about, "audit sample must overlap the lie"

        stats = runner.run_epoch()
        assert stats.escalated == (liar,)
        assert not stats.dead_feeds
        assert runner.dataset.epoch_digest(1) == full_campaign_digest(
            TEST_SEED, TEST_SCALE, 1
        )


# ----------------------------------------------------------------------
# Cross-epoch merge labels (satellite: collision errors carry the epoch)
# ----------------------------------------------------------------------
class TestMergeEpochLabels:
    def test_collision_error_names_epoch_and_shard(self, dataset):
        items = list(dataset.results.items())
        first = MeasurementDataset(dict(items[:2]))
        second = MeasurementDataset(dict(items[1:3]))
        with pytest.raises(ValueError) as error:
            MeasurementDataset.merge([first, second], epoch=3)
        message = str(error.value)
        assert "more than one shard" in message
        assert "epoch 3 shard 0" in message
        assert "epoch 3 shard 1" in message

    def test_unlabelled_merge_keeps_plain_shard_names(self, dataset):
        items = list(dataset.results.items())
        first = MeasurementDataset(dict(items[:2]))
        second = MeasurementDataset(dict(items[1:3]))
        with pytest.raises(ValueError) as error:
            MeasurementDataset.merge([first, second])
        assert "shard 0" in str(error.value)
        assert "epoch" not in str(error.value)


# ----------------------------------------------------------------------
# Trend report
# ----------------------------------------------------------------------
class TestTrendReport:
    def test_linear_slope_on_a_known_line(self):
        assert linear_slope([1.0, 3.0, 5.0]) == pytest.approx(2.0)
        assert linear_slope([4.0]) == 0.0

    def test_report_rows_track_runner_stats(self, runner):
        report = TrendReport.from_runner(runner)
        assert report.epochs == EPOCHS + 1
        assert [row["epoch"] for row in report.rows] == list(
            range(EPOCHS + 1)
        )
        assert report.steady_state_queries() == sum(
            stats.queries_sent for stats in runner.stats[1:]
        )

    def test_payload_is_canonical_and_digest_stable(self, runner):
        report = TrendReport.from_runner(runner)
        assert report.digest() == TrendReport.from_runner(runner).digest()
        payload = report.payload()
        assert payload["kind"] == "longitudinal-trend"
        assert payload["incremental"] is True
        assert set(payload["trends"]) == {
            "responsive_share_slope",
            "defective_share_slope",
            "changed_per_epoch",
        }

    def test_render_mentions_trend_and_every_epoch(self, runner):
        text = TrendReport.from_runner(runner).render()
        assert "trend:" in text
        for epoch in range(EPOCHS + 1):
            assert f"\n{epoch:>5} " in text


# ----------------------------------------------------------------------
# The perf headline: incremental epochs are cheap and identical
# ----------------------------------------------------------------------
class TestIncrementalVsFull:
    def test_digests_identical_at_every_epoch(self, runner, full_runner):
        for epoch in range(EPOCHS + 1):
            assert runner.dataset.epoch_digest(
                epoch
            ) == full_runner.dataset.epoch_digest(epoch)

    def test_steady_state_queries_at_least_5x_cheaper(
        self, runner, full_runner
    ):
        incremental = sum(s.queries_sent for s in runner.stats[1:])
        full = sum(s.queries_sent for s in full_runner.stats[1:])
        assert incremental > 0
        assert full / incremental >= 5.0, (
            f"steady-state reduction {full / incremental:.2f}x below the "
            f"5x floor"
        )

    def test_bootstrap_epochs_cost_the_same(self, runner, full_runner):
        assert (
            runner.stats[0].queries_sent == full_runner.stats[0].queries_sent
        )


class TestCommittedBenchSuite:
    """The committed BENCH_probe.json must certify the perf headline."""

    @pytest.fixture(scope="class")
    def committed(self):
        import json
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "BENCH_probe.json"
        return json.loads(path.read_text(encoding="utf-8"))

    def test_longitudinal_records_are_committed(self, committed):
        for scale, payload in committed["scales"].items():
            assert "longitudinal_full" in payload["records"], scale
            assert "longitudinal_incremental" in payload["records"], scale

    def test_incremental_is_5x_cheaper_with_identical_digest(
        self, committed
    ):
        for scale, payload in committed["scales"].items():
            full = payload["records"]["longitudinal_full"]
            incremental = payload["records"]["longitudinal_incremental"]
            assert full["dataset_digest"] == incremental["dataset_digest"], (
                f"scale {scale}: incremental epochs diverged from the "
                f"naive full baseline"
            )
            ratio = full["queries_sent"] / incremental["queries_sent"]
            assert ratio >= 5.0, (
                f"scale {scale}: steady-state reduction {ratio:.2f}x "
                f"below the 5x floor"
            )


# ----------------------------------------------------------------------
# CLI
# ----------------------------------------------------------------------
class TestLongitudinalCli:
    def test_compare_full_passes_at_smoke_scale(self, tmp_path):
        out = io.StringIO()
        report_path = tmp_path / "trend.json"
        code = main(
            [
                "--scale",
                str(TEST_SCALE),
                "longitudinal",
                "--epochs",
                "1",
                "--compare-full",
                "--report-out",
                str(report_path),
            ],
            out,
        )
        text = out.getvalue()
        assert code == 0, text
        assert "verification passed" in text
        assert report_path.exists()

    def test_full_and_compare_full_are_mutually_exclusive(self):
        out = io.StringIO()
        code = main(
            ["longitudinal", "--full", "--compare-full"], out
        )
        assert code == 2
        assert "mutually exclusive" in out.getvalue()

    @pytest.mark.parametrize("shards", ["0", "-2"])
    def test_nonpositive_shards_rejected(self, shards, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["longitudinal", "--shards", shards], io.StringIO())
        assert exit_info.value.code == 2
        assert "argument --shards: must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("epochs", ["-1", "-4"])
    def test_negative_epochs_rejected_before_worldgen(
        self, epochs, monkeypatch, capsys
    ):
        # A negative count would make --compare-full verify nothing.
        def refuse(*args):
            raise AssertionError("the world was generated")

        monkeypatch.setattr(cli, "world_at_epoch", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(
                ["longitudinal", "--epochs", epochs, "--compare-full"],
                io.StringIO(),
            )
        assert exit_info.value.code == 2
        assert "argument --epochs: must be >= 0" in capsys.readouterr().err
        # Zero epochs (the bootstrap alone) stays a valid run.
        assert build_parser().parse_args(
            ["longitudinal", "--epochs", "0"]
        ).epochs == 0

    @pytest.mark.parametrize("command", ["campaign", "longitudinal"])
    def test_shards_auto_is_the_cpu_count(self, command):
        # Both subcommands share one --shards parser.
        args = build_parser().parse_args([command, "--shards", "auto"])
        assert args.shards == (os.cpu_count() or 1)


# ----------------------------------------------------------------------
# The headline property: as_of(k) == full campaign at epoch k, any K
# ----------------------------------------------------------------------
class TestShardedEpochDecodes:
    def test_only_base_and_changed_rows_are_decoded(self, runner, monkeypatch):
        # A sharded epoch's dataset is its workers' rows: the audit
        # compares rows, and append_epoch decodes just the changed ones.
        decoded = []
        real = journal.result_from_row

        def counting(row):
            decoded.append(row)
            return real(row)

        monkeypatch.setattr(journal, "result_from_row", counting)
        monkeypatch.setattr(longitudinal, "result_from_row", counting)
        sharded = EpochRunner(fresh_world(), shards=2)
        stats = sharded.run(2)
        base, first, second = stats
        assert len(decoded) == base.probed + first.changed + second.changed
        assert len(decoded) == 716 + 17 + 19
        assert first.probed + second.probed > first.changed + second.changed
        for epoch in range(3):
            assert sharded.dataset.epoch_digest(
                epoch
            ) == runner.dataset.epoch_digest(epoch)
            assert sharded.dataset.chain_digest(
                epoch
            ) == runner.dataset.chain_digest(epoch)


class TestLongitudinalInvariance:
    """Seeds {5, 7, 11} × epochs 0..3 × {inline, K=1, K=4} runners."""

    SCALE = 0.01
    SEEDS = (5, 7, 11)
    # None is the inline incremental runner; integers use the process runner.
    SHARD_COUNTS = (None, 1, 4)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_as_of_digest_matches_full_campaign(self, seed):
        references = {
            epoch: full_campaign_digest(seed, self.SCALE, epoch)
            for epoch in range(EPOCHS + 1)
        }
        for shards in self.SHARD_COUNTS:
            runner = EpochRunner(fresh_world(seed, self.SCALE), shards=shards)
            runner.run(EPOCHS)
            for epoch in range(EPOCHS + 1):
                assert (
                    dataset_digest(runner.dataset.as_of(epoch))
                    == references[epoch]
                ), f"seed {seed} K={shards} epoch {epoch} diverged"
                assert (
                    runner.dataset.epoch_digest(epoch) == references[epoch]
                )
