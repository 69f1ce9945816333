"""Sharded campaign execution: membership, merge, journals, invariance.

The load-bearing promise (see DESIGN.md §11): the merged dataset digest
is identical for every shard count — including K=1 — and identical to
the single-process concurrent engine.  The invariance test at the
bottom exercises that promise end-to-end across seeds and shard counts;
the unit tests above it pin each mechanism the promise rests on.
"""

from __future__ import annotations

import gc
import hashlib
import io
import json
import multiprocessing
import random

import pytest

from repro.cli import main
from repro.core.dataset import MeasurementDataset
from repro.core.epoch import EpochRunner
from repro.core.journal import (
    CampaignJournal,
    campaign_digest,
    dataset_digest,
    read_shard_manifest,
    result_row,
    shard_journal_path,
    write_shard_manifest,
)
from repro.core import journal as journal_module
from repro.core import shard as shard_module
from repro.core.probe import ProbeConfig
from repro.core.shard import (
    CampaignCounters,
    ProcessCampaignRunner,
    government_suffixes,
    partition,
    run_campaign,
    shard_index,
    shard_key,
)
from repro.core.study import GovernmentDnsStudy
from repro.dns.name import DnsName
from repro.net.events import CampaignAborted
from repro.report.resilience import ResilienceReport
from repro.serve.profiles import install_chaos_profile
from repro.worldgen import WorldConfig, WorldGenerator


def fresh_study(seed, scale, shards=None):
    world = WorldGenerator(WorldConfig(seed=seed, scale=scale)).generate()
    return GovernmentDnsStudy(world, shards=shards)


# ----------------------------------------------------------------------
# Shard membership
# ----------------------------------------------------------------------
class TestShardMembership:
    @pytest.fixture(scope="class")
    def suffixes(self, study):
        return government_suffixes(study.seeds().values())

    @pytest.fixture(scope="class")
    def targets(self, study):
        return study.targets()

    def test_index_matches_manual_sha256(self, targets, suffixes):
        for domain in list(sorted(targets))[:50]:
            key = str(shard_key(domain, suffixes)).encode()
            expected = (
                int.from_bytes(hashlib.sha256(key).digest()[:8], "big") % 4
            )
            assert shard_index(domain, 4, suffixes) == expected

    def test_partition_is_disjoint_complete_and_sorted(
        self, targets, suffixes
    ):
        parts = partition(targets, 4, suffixes)
        seen = {}
        for index, part in enumerate(parts):
            assert list(part) == sorted(part)  # admission order per shard
            for domain in part:
                assert domain not in seen
                seen[domain] = index
        assert set(seen) == set(targets)

    def test_membership_independent_of_target_ordering(
        self, targets, suffixes
    ):
        shuffled = list(targets)
        random.Random(99).shuffle(shuffled)
        reordered = {domain: targets[domain] for domain in shuffled}
        assert partition(targets, 8, suffixes) == partition(
            reordered, 8, suffixes
        )

    def test_membership_independent_of_the_rest_of_the_set(
        self, targets, suffixes
    ):
        """A domain's shard is a function of the domain alone, so any
        subset of the target list partitions consistently."""
        subset = dict(list(sorted(targets.items()))[::3])
        full = partition(targets, 4, suffixes)
        for index, part in enumerate(partition(subset, 4, suffixes)):
            for domain in part:
                assert domain in full[index]

    def test_nested_targets_co_shard_with_registered_domain(
        self, targets, suffixes
    ):
        nested = [
            domain
            for domain in targets
            if shard_key(domain, suffixes) != domain
        ]
        assert nested, "world should contain names below a registered domain"
        for domain in nested[:50]:
            registered = shard_key(domain, suffixes)
            for shards in (2, 4, 8):
                assert shard_index(domain, shards, suffixes) == shard_index(
                    registered, shards, suffixes
                )

    def test_membership_stable_when_k_changes(self, targets, suffixes):
        """Changing K re-partitions, but each domain's new home depends
        only on (domain, K) — never on the old layout or on what else
        is in the run.  Concretely: the K=8 assignment of every domain
        is derivable from its stable 64-bit hash, which the K=4
        assignment already pinned modulo 4."""
        for domain in list(sorted(targets))[:200]:
            key = str(shard_key(domain, suffixes)).encode()
            stable = int.from_bytes(hashlib.sha256(key).digest()[:8], "big")
            for shards in (1, 2, 4, 8):
                assert shard_index(domain, shards, suffixes) == stable % shards

    def test_tld_level_target_falls_back_to_itself(self, suffixes):
        orphan = DnsName.parse("gov.example")
        assert shard_key(orphan, frozenset()) == orphan

    def test_partition_rejects_nonpositive_k(self, targets, suffixes):
        with pytest.raises(ValueError):
            partition(targets, 0, suffixes)
        with pytest.raises(ValueError):
            ProcessCampaignRunner(None, {}, ProbeConfig(), 0, frozenset())


# ----------------------------------------------------------------------
# Deterministic merge
# ----------------------------------------------------------------------
class TestDatasetMerge:
    def test_merge_restores_admission_order(self, dataset):
        ordered = sorted(dataset.results)
        even = MeasurementDataset(
            {d: dataset.results[d] for d in ordered[0::2]}
        )
        odd = MeasurementDataset(
            {d: dataset.results[d] for d in ordered[1::2]}
        )
        # Part order must not matter: completion order of workers is
        # nondeterministic in real time.
        for parts in ((even, odd), (odd, even)):
            merged = MeasurementDataset.merge(parts)
            assert list(merged.results) == ordered
            assert dataset_digest(merged) == dataset_digest(dataset)

    def test_merge_rejects_duplicate_domains(self, dataset):
        domain = next(iter(sorted(dataset.results)))
        part = MeasurementDataset({domain: dataset.results[domain]})
        with pytest.raises(ValueError, match="more than one shard"):
            MeasurementDataset.merge([part, part])


# ----------------------------------------------------------------------
# Journal manifest + per-shard resume
# ----------------------------------------------------------------------
class TestShardJournal:
    CAMPAIGN = "deadbeef" * 8

    def test_manifest_roundtrip(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        files = write_shard_manifest(path, 3, self.CAMPAIGN)
        assert files == [shard_journal_path(path, i) for i in range(3)]
        manifest = read_shard_manifest(path)
        assert manifest["shards"] == 3
        assert manifest["campaign"] == self.CAMPAIGN

    def test_manifest_rejects_shard_count_change(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_shard_manifest(path, 3, self.CAMPAIGN)
        with pytest.raises(ValueError, match="--shards 3"):
            write_shard_manifest(path, 4, self.CAMPAIGN)

    def test_manifest_rejects_campaign_change(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_shard_manifest(path, 3, self.CAMPAIGN)
        with pytest.raises(ValueError, match="campaign mismatch"):
            write_shard_manifest(path, 3, "feedface" * 8)

    def test_plain_resume_of_manifest_is_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        write_shard_manifest(path, 3, self.CAMPAIGN)
        with pytest.raises(ValueError, match="sharded-campaign manifest"):
            CampaignJournal.resume(path)

    def test_sharded_resume_of_plain_journal_is_refused(self, tmp_path):
        path = str(tmp_path / "run.jsonl")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(
                json.dumps({"k": "b", "campaign": self.CAMPAIGN}) + "\n"
            )
        with pytest.raises(ValueError, match="single-process campaign"):
            read_shard_manifest(path)


# ----------------------------------------------------------------------
# The runner: fan out, kill, resume
# ----------------------------------------------------------------------
class TestProcessCampaignRunner:
    SEED = 7
    SCALE = 0.004

    def build(self, journal_path=None, kill_at_event=None, shards=2):
        study = fresh_study(self.SEED, self.SCALE)
        return ProcessCampaignRunner(
            study.world,
            study.targets(),
            ProbeConfig(),
            shards=shards,
            suffixes=government_suffixes(study.seeds().values()),
            journal_path=journal_path,
            kill_at_event=kill_at_event,
        )

    def test_merge_detects_lost_domains(self):
        runner = self.build()
        with pytest.raises(RuntimeError, match="lost domains"):
            runner.merge([])

    def test_kill_then_resume_matches_unkilled_digest(self, tmp_path):
        baseline = dataset_digest(self.build().run())

        journal = str(tmp_path / "run.jsonl")
        with pytest.raises(CampaignAborted):
            self.build(journal_path=journal, kill_at_event=300).run()
        manifest = read_shard_manifest(journal)
        assert manifest["shards"] == 2

        resumed = self.build(journal_path=journal).run()
        assert dataset_digest(resumed) == baseline

    def test_journal_binds_campaign_identity(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        self.build(journal_path=journal).run()
        study = fresh_study(11, self.SCALE)  # different seed, same K
        runner = ProcessCampaignRunner(
            study.world,
            study.targets(),
            ProbeConfig(),
            shards=2,
            suffixes=government_suffixes(study.seeds().values()),
            journal_path=journal,
        )
        with pytest.raises(ValueError, match="campaign mismatch"):
            runner.run()

    def test_manifest_file_format(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        runner = self.build(journal_path=journal)
        runner.run()
        with open(journal, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
        assert len(lines) == 1
        entry = json.loads(lines[0])
        assert entry["k"] == "m"
        assert entry["shards"] == 2
        assert entry["campaign"] == campaign_digest(
            dict(runner._targets), ProbeConfig().identity(), None
        )


# ----------------------------------------------------------------------
# Row transport: workers ship canonical rows, the merge stores them
# ----------------------------------------------------------------------
COLUMN_FIELDS = (
    "domains", "iso2", "level", "parent_status", "responsive", "retried",
    "persistence", "defect_verdict", "defect_provisional", "defective_ns",
    "defective_in_parent", "consistency_verdict", "single_label_ns",
    "parent_only", "child_only", "ns_count",
)


def campaign_at(shards, seed=7, scale=0.004):
    study = fresh_study(seed, scale)
    return run_campaign(
        study.world,
        study.targets(),
        ProbeConfig(),
        shards=shards,
        suffixes=government_suffixes(study.seeds().values()),
    )


@pytest.fixture(scope="module")
def inline_campaign():
    return campaign_at(None)


class TestRowTransport:
    @pytest.mark.parametrize("shards", (1, 2, 3))
    def test_kept_rows_are_the_decoded_results_rows(
        self, shards, inline_campaign
    ):
        """A row-backed dataset decodes its results and builds its
        columns on demand, and both equal the inline campaign's, domain
        by domain; the persistence counter agrees too."""
        inline, inline_counters = inline_campaign
        dataset, counters = campaign_at(shards)
        assert dataset.rows is not None
        assert counters.persistence == inline_counters.persistence
        assert list(dataset.rows) == list(inline.results)
        for (domain, row), (_, result) in zip(
            dataset.rows.items(), inline.results.items()
        ):
            assert dataset.results[domain] == result
            assert row == result_row(result)
        for name in COLUMN_FIELDS:
            mine = getattr(dataset.columns, name)
            theirs = getattr(inline.columns, name)
            assert len(mine) == len(theirs)
            for i, value in enumerate(theirs):
                assert mine[i] == value, (name, inline.columns.domains[i])

    def test_digest_and_report_decode_no_row(
        self, inline_campaign, monkeypatch
    ):
        def refuse(row):
            raise AssertionError("a shipped row was decoded")

        monkeypatch.setattr(journal_module, "result_from_row", refuse)
        dataset, counters = campaign_at(2)
        assert len(dataset) == len(inline_campaign[0])
        assert dataset_digest(dataset) == dataset_digest(inline_campaign[0])
        report = ResilienceReport.collect(counters)
        assert report.persistence == inline_campaign[1].persistence

    def test_merge_reorders_kept_rows_with_their_results(self, dataset):
        ordered = sorted(dataset.results)
        parts = [
            MeasurementDataset.from_rows(
                {d: result_row(dataset.results[d]) for d in domains}
            )
            for domains in (ordered[1::2], ordered[0::2])
        ]
        merged = MeasurementDataset.merge(parts)
        assert merged.rows == {
            d: result_row(dataset.results[d]) for d in ordered
        }
        assert list(merged.rows) == ordered
        assert dataset_digest(merged) == dataset_digest(dataset)

    def test_merge_refuses_mixed_forms(self, dataset):
        first, second = sorted(dataset.results)[:2]
        rows = MeasurementDataset.from_rows(
            {first: result_row(dataset.results[first])}
        )
        results = MeasurementDataset({second: dataset.results[second]})
        with pytest.raises(ValueError, match="row-backed and result-backed"):
            MeasurementDataset.merge([rows, results])
        # An empty part fits either form.
        merged = MeasurementDataset.merge([rows, MeasurementDataset({})])
        assert merged.rows is not None and first in merged


class TestPayloadCheck:
    """The parent pairs each worker's rows with its own partition and
    refuses a payload that does not match it, without decoding."""

    @pytest.fixture(scope="class")
    def runner_and_payloads(self):
        runner = TestProcessCampaignRunner().build(shards=2)
        return runner, runner.collect()

    @staticmethod
    def tamper(payloads, edit):
        rows, counters = payloads[1]
        return [payloads[0], (edit(list(rows)), counters)]

    @pytest.mark.parametrize(
        "edit",
        (
            lambda rows: rows[:-1],
            lambda rows: rows + rows[:1],
            lambda rows: [rows[1], rows[0]] + rows[2:],
        ),
        ids=("short", "long", "reordered"),
    )
    def test_mismatched_payload_names_the_shard(
        self, runner_and_payloads, edit
    ):
        runner, payloads = runner_and_payloads
        assert len(payloads[1][0]) >= 2
        with pytest.raises(RuntimeError, match="shard 1 shipped"):
            runner.merge(self.tamper(payloads, edit))


# ----------------------------------------------------------------------
# Heap discipline: no cyclic garbage, and no heap left frozen
# ----------------------------------------------------------------------
class TestHeapDiscipline:
    SEED = 7
    SCALE = 0.004

    def build(self, **kwargs):
        study = fresh_study(self.SEED, self.SCALE)
        return ProcessCampaignRunner(
            study.world,
            study.targets(),
            ProbeConfig(),
            shards=2,
            suffixes=government_suffixes(study.seeds().values()),
            **kwargs,
        )

    def test_inline_campaign_leaves_no_cyclic_garbage(self):
        study = fresh_study(self.SEED, self.SCALE)
        targets = study.targets()
        suffixes = government_suffixes(study.seeds().values())
        gc.collect()
        gc.disable()
        try:
            dataset, _ = run_campaign(
                study.world, targets, ProbeConfig(), suffixes=suffixes
            )
            unreachable = gc.collect()
        finally:
            gc.enable()
        assert len(dataset) == len(targets)
        assert unreachable == 0

    def test_merge_runs_in_a_frozen_heap(self, monkeypatch):
        runner = self.build()
        merge = runner.merge
        frozen = []

        def spy(collected):
            frozen.append(gc.get_freeze_count())
            return merge(collected)

        monkeypatch.setattr(runner, "merge", spy)
        runner.run()
        assert frozen and frozen[0] > 0
        assert gc.get_freeze_count() == 0

    def test_run_unfreezes_after_a_kill(self, tmp_path):
        runner = self.build(
            journal_path=str(tmp_path / "run.jsonl"), kill_at_event=300
        )
        with pytest.raises(CampaignAborted):
            runner.run()
        assert gc.get_freeze_count() == 0

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the failing worker is patched into a forked child",
    )
    def test_run_unfreezes_after_a_worker_error(self, monkeypatch):
        def fail(*args, **kwargs):
            raise RuntimeError("probe failed")

        monkeypatch.setattr(shard_module, "_run_inline", fail)
        with pytest.raises(RuntimeError, match="worker\\(s\\) failed"):
            self.build().run()
        assert gc.get_freeze_count() == 0

    def test_run_keeps_a_callers_freeze(self):
        runner = self.build()
        gc.freeze()
        try:
            runner.run()
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()


# ----------------------------------------------------------------------
# The spawn start method: workers rebuild what fork would inherit
# ----------------------------------------------------------------------
def force_spawn(monkeypatch):
    monkeypatch.setattr(
        ProcessCampaignRunner,
        "_context",
        lambda self: multiprocessing.get_context("spawn"),
    )


class TestSpawnStartMethod:
    """Spawned workers regenerate the world, re-derive the targets,
    re-arm chaos and keep the parent's target subset; every digest must
    match what forked workers produce."""

    SEED = 7
    SCALE = 0.004

    def campaign_digest(self, chaos=None, every=1):
        study = fresh_study(self.SEED, self.SCALE)
        targets = dict(sorted(study.targets().items())[::every])
        if chaos is not None:
            install_chaos_profile(study.world.network, chaos, seed=self.SEED)
        dataset, counters = run_campaign(
            study.world,
            targets,
            ProbeConfig(),
            shards=2,
            suffixes=government_suffixes(study.seeds().values()),
        )
        assert len(dataset) == counters.targets == len(targets)
        return dataset_digest(dataset)

    def test_full_campaign_matches_inline(self, monkeypatch):
        inline = dataset_digest(fresh_study(self.SEED, self.SCALE).dataset())
        force_spawn(monkeypatch)
        assert self.campaign_digest() == inline

    def test_chaos_campaign_matches_fork(self, monkeypatch):
        forked = self.campaign_digest(chaos="mixed")
        force_spawn(monkeypatch)
        assert self.campaign_digest(chaos="mixed") == forked

    def test_target_subset_matches_fork(self, monkeypatch):
        forked = self.campaign_digest(every=3)
        force_spawn(monkeypatch)
        assert self.campaign_digest(every=3) == forked

    def test_epochs_match_fork(self, monkeypatch):
        def epoch_digests():
            world = WorldGenerator(
                WorldConfig(seed=self.SEED, scale=self.SCALE)
            ).generate()
            runner = EpochRunner(world, shards=2)
            return [stats.epoch_digest for stats in runner.run(2)]

        forked = epoch_digests()
        force_spawn(monkeypatch)
        assert epoch_digests() == forked


class TestCampaignCounters:
    def test_sequential_probes_sum(self):
        total = CampaignCounters(targets=2, queries_sent=5, simulated_seconds=1.5)
        total += CampaignCounters(targets=1, timeouts=2, simulated_seconds=2.0)
        assert total == CampaignCounters(
            targets=3, queries_sent=5, timeouts=2, simulated_seconds=3.5
        )

    def test_shard_fold_sums_counts_and_takes_slowest_clock(self):
        parts = [
            CampaignCounters(targets=2, network_queries=7, simulated_seconds=4.0),
            CampaignCounters(targets=3, network_queries=1, simulated_seconds=9.0),
        ]
        folded = CampaignCounters.fold_shards(parts)
        assert folded == CampaignCounters(
            targets=5, network_queries=8, simulated_seconds=9.0
        )
        assert folded.per_shard == tuple(parts)
        assert CampaignCounters.fold_shards([]) == CampaignCounters()

    def test_resilience_counts_sum_and_journal_flags_or(self):
        parts = [
            CampaignCounters(
                retransmits=3,
                chaos={"outage_drops": 2, "burst_losses": 0},
                journaled=True,
                journal_replayed_sends=10,
            ),
            CampaignCounters(
                retransmits=4,
                chaos={"outage_drops": 5, "burst_losses": 1},
                journaled=True,
                resumed=True,
                journal_recovered_results=6,
            ),
        ]
        folded = CampaignCounters.fold_shards(parts)
        assert folded == CampaignCounters(
            retransmits=7,
            chaos={"outage_drops": 7, "burst_losses": 1},
            journaled=True,
            resumed=True,
            journal_replayed_sends=10,
            journal_recovered_results=6,
        )
        # Folding never mutates the per-shard counters it keeps.
        assert parts[0].chaos == {"outage_drops": 2, "burst_losses": 0}

    def test_sum_drops_the_shard_breakdown(self):
        folded = CampaignCounters.fold_shards(
            [CampaignCounters(targets=1), CampaignCounters(targets=2)]
        )
        folded += CampaignCounters(targets=4)
        assert folded.targets == 7
        assert folded.per_shard == ()


# ----------------------------------------------------------------------
# CLI surface
# ----------------------------------------------------------------------
class TestCliShardedCampaign:
    SMALL = ["--scale", "0.002", "--seed", "11"]

    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @staticmethod
    def digest_line(text):
        lines = [
            line
            for line in text.splitlines()
            if line.startswith("dataset-digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_sharded_digest_matches_plain_campaign(self):
        code, plain = self.run_cli(self.SMALL + ["campaign"])
        assert code == 0
        code, sharded = self.run_cli(
            self.SMALL + ["campaign", "--shards", "2"]
        )
        assert code == 0
        assert "shard 0:" in sharded and "shard 1:" in sharded
        assert self.digest_line(sharded) == self.digest_line(plain)

    def test_shards_rejects_nonsense(self):
        for shards in ("0", "many"):
            with pytest.raises(SystemExit) as exit_info:
                self.run_cli(self.SMALL + ["campaign", "--shards", shards])
            assert exit_info.value.code == 2

    def test_shards_refuses_kill_harness(self):
        code, text = self.run_cli(
            self.SMALL
            + ["campaign", "--shards", "2", "--kill-at-event", "100"]
        )
        assert code == 2
        assert "--kill-at-event" in text

    def test_plain_resume_of_manifest_errors_cleanly(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, _ = self.run_cli(
            self.SMALL + ["campaign", "--shards", "2", "--journal", journal]
        )
        assert code == 0
        code, text = self.run_cli(
            self.SMALL + ["campaign", "--resume", journal]
        )
        assert code == 2
        assert "sharded-campaign manifest" in text

    def test_sharded_resume_replays_to_identical_digest(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, first = self.run_cli(
            self.SMALL + ["campaign", "--shards", "2", "--journal", journal]
        )
        assert code == 0
        code, replayed = self.run_cli(
            self.SMALL + ["campaign", "--shards", "2", "--resume", journal]
        )
        assert code == 0
        assert self.digest_line(replayed) == self.digest_line(first)

    def test_resume_with_wrong_k_errors_cleanly(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, _ = self.run_cli(
            self.SMALL + ["campaign", "--shards", "2", "--journal", journal]
        )
        assert code == 0
        code, text = self.run_cli(
            self.SMALL + ["campaign", "--shards", "3", "--resume", journal]
        )
        assert code == 2
        assert "--shards 2" in text

    def test_bench_subcommand_smoke(self, tmp_path):
        out_path = str(tmp_path / "bench.json")
        code, text = self.run_cli(
            ["--scale", "0.002", "--seed", "11", "bench", "--out", out_path,
             "--labels", "serial,concurrent"]
        )
        assert code == 0
        payload = json.loads(open(out_path).read())
        assert payload["format"] == 2
        report = payload["scales"]["0.002"]
        assert set(report["records"]) == {"serial", "concurrent"}
        code, text = self.run_cli(
            ["--scale", "0.002", "--seed", "11", "bench",
             "--out", str(tmp_path / "bench2.json"),
             "--labels", "serial,concurrent", "--check", out_path]
        )
        assert code == 0
        assert "perf gate passed" in text

    def test_bench_gate_fails_on_identity_mismatch(self, tmp_path):
        out_path = str(tmp_path / "bench.json")
        code, _ = self.run_cli(
            ["--scale", "0.002", "--seed", "11", "bench", "--out", out_path,
             "--labels", "serial"]
        )
        assert code == 0
        code, text = self.run_cli(
            ["--scale", "0.002", "--seed", "12", "bench",
             "--out", str(tmp_path / "bench2.json"),
             "--labels", "serial", "--check", out_path]
        )
        assert code == 1
        assert "identity mismatch" in text

    @pytest.mark.parametrize(
        "flag, value, expected",
        [
            ("--labels", "serial,bogus", "unknown bench label(s) bogus"),
            ("--scales", "x", "--scales must be comma-separated numbers"),
            ("--scales", "0.002,0", "--scales must be comma-separated numbers"),
        ],
    )
    def test_bench_rejects_bad_arguments_before_running(
        self, monkeypatch, tmp_path, flag, value, expected
    ):
        import repro.report.bench as bench_module

        def no_run(*args, **kwargs):
            raise AssertionError("a bench label ran before validation")

        monkeypatch.setattr(bench_module, "run_probe_record", no_run)
        monkeypatch.setattr(bench_module, "run_longitudinal_record", no_run)
        code, text = self.run_cli(
            ["--scale", "0.002", "bench",
             "--out", str(tmp_path / "bench.json"), flag, value]
        )
        assert code == 2
        (line,) = text.splitlines()
        assert line.startswith("error: ") and expected in line
        if flag == "--labels":
            for label in (
                "serial",
                "concurrent",
                "sharded",
                "longitudinal_full",
                "longitudinal_incremental",
            ):
                assert label in line


# ----------------------------------------------------------------------
# The tentpole promise, end to end
# ----------------------------------------------------------------------
class TestShardInvariance:
    """Digest identical for K ∈ {1, 2, 4, 8} across seeds, and equal to
    the single-process concurrent engine's digest (ISSUE 5 acceptance).
    """

    SCALE = 0.05
    SEEDS = (5, 7, 11)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_digest_invariant_across_shard_counts(self, seed):
        reference = dataset_digest(fresh_study(seed, self.SCALE).dataset())
        for shards in (1, 2, 4, 8):
            digest = dataset_digest(
                fresh_study(seed, self.SCALE, shards=shards).dataset()
            )
            assert digest == reference, (
                f"seed {seed}: K={shards} digest diverged from the "
                f"single-process concurrent digest"
            )
