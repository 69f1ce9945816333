"""Tests for the CLI and the paperkit bundle exporter."""

import csv
import io

import pytest

from repro import cli
from repro.cli import build_parser, main
from repro.report.paperkit import ARTIFACTS, export_all, render_all
from repro.worldgen.generator import WorldGenerator


class TestPaperkit:
    @pytest.fixture(scope="class")
    def rendered(self, study):
        return render_all(study)

    def test_every_artifact_rendered(self, rendered):
        assert set(rendered) == set(ARTIFACTS)
        for artifact, text in rendered.items():
            assert text.strip(), artifact

    def test_titles_name_the_right_artifact(self, rendered):
        assert "Figure 2" in rendered["fig02"]
        assert "Figure 9" in rendered["fig09"]
        assert "Table I " in rendered["tab1"]
        assert "Table II " in rendered["tab2"]
        assert "Table III" in rendered["tab3"]
        assert "Figure 13" in rendered["fig13"]

    def test_export_writes_txt_and_csv(self, study, tmp_path):
        written = export_all(study, str(tmp_path / "kit"))
        assert set(written) == set(ARTIFACTS)
        for artifact, (txt_path, csv_path) in written.items():
            text = open(txt_path).read()
            assert text.strip()
            with open(csv_path) as handle:
                rows = list(csv.reader(handle))
            assert len(rows) >= 1  # header always present
            header = rows[0]
            assert all(header), artifact

    def test_csv_fig02_matches_analysis(self, study, tmp_path):
        written = export_all(study, str(tmp_path / "kit"))
        with open(written["fig02"][1]) as handle:
            rows = list(csv.reader(handle))[1:]
        fig2 = study.pdns_replication().figure2()
        assert len(rows) == len(fig2)
        for year_text, domains_text, countries_text in rows:
            year = int(year_text)
            assert fig2[year] == (int(domains_text), int(countries_text))


class TestCliParser:
    def test_all_commands_registered(self):
        parser = build_parser()
        for command in ("headline", "paperkit", "audit", "hijackscan", "remediate"):
            args = parser.parse_args(
                [command] + (["XX"] if command == "audit" else [])
                + (["/tmp/x"] if command == "paperkit" else [])
            )
            assert args.command == command

    def test_defaults(self):
        args = build_parser().parse_args(["headline"])
        assert args.seed == 7
        assert args.scale == 0.02

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["--scale", "0", "headline"], "--scale"),
            (["--scale", "-1", "headline"], "--scale"),
            (["--scale", "nan", "headline"], "--scale"),
            (["--scale", "inf", "campaign"], "--scale"),
            (["serve", "--duration", "0"], "--duration"),
            (["serve", "--duration", "abc"], "--duration"),
            (["serve", "--qps", "-1"], "--qps"),
            (["serve", "--qps", "inf"], "--qps"),
            *(
                (["servelint", "--verify", flag, value], flag)
                for flag in ("--duration", "--qps")
                for value in ("0", "-1", "nan", "inf")
            ),
        ],
    )
    def test_unusable_numbers_rejected_before_worldgen(
        self, argv, flag, monkeypatch, capsys
    ):
        # A scale of 0 or below would otherwise run on a world with one
        # of everything, since WorldConfig.scaled keeps populations >= 1.
        def refuse(self):
            raise AssertionError("the world was generated")

        monkeypatch.setattr(WorldGenerator, "generate", refuse)
        with pytest.raises(SystemExit) as exit_info:
            main(argv, io.StringIO())
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {flag}: must be a positive finite number" in err


class TestCliExecution:
    SMALL = ["--scale", "0.002", "--seed", "11"]

    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_headline(self):
        code, text = self.run_cli(self.SMALL + ["headline"])
        assert code == 0
        assert "98.4%" in text  # the paper column
        assert "Measured" in text

    COUNTS = ("targets", "parent_response", "parent_nonempty", "responsive")

    @staticmethod
    def measured(text):
        """Metric -> Measured column of the headline table."""
        return {
            cells[0].strip(): cells[2].strip()
            for cells in (line.split("|") for line in text.splitlines())
            if len(cells) == 3 and cells[0].strip() != "Metric"
        }

    def test_headline_formats_by_metric(self):
        # At this seed and scale two shares are exactly 0; they must
        # still print as percentages, and the counts as integers.
        code, text = self.run_cli(
            ["--seed", "3", "--scale", "0.0005", "headline"]
        )
        assert code == 0
        measured = self.measured(text)
        assert set(self.COUNTS) < set(measured)
        for metric, shown in measured.items():
            if metric in self.COUNTS:
                assert shown.replace(",", "").isdigit(), (metric, shown)
            else:
                assert shown.endswith("%"), (metric, shown)

    def test_headline_count_of_one_is_not_a_percent(self, monkeypatch):
        class OneOfEach:
            def headline(self):
                return {"targets": 1.0, "share_ge2_ns": 1.0}

        monkeypatch.setattr("repro.cli._make_study", lambda args: OneOfEach())
        code, text = self.run_cli(["headline"])
        assert code == 0
        assert self.measured(text) == {"targets": "1", "share_ge2_ns": "100.0%"}

    def test_audit_known_country(self):
        code, text = self.run_cli(self.SMALL + ["audit", "cn"])
        assert code == 0
        assert "d_gov: gov.cn." in text

    def test_audit_unknown_country(self):
        code, text = self.run_cli(self.SMALL + ["audit", "zz"])
        assert code == 1

    def test_hijackscan(self):
        code, text = self.run_cli(self.SMALL + ["hijackscan"])
        assert code == 0
        assert "registrable" in text or "no registrable" in text

    def test_paperkit(self, tmp_path):
        outdir = str(tmp_path / "artifacts")
        code, text = self.run_cli(self.SMALL + ["paperkit", outdir])
        assert code == 0
        assert "15 artifacts" in text

    def test_remediate(self):
        code, text = self.run_cli(self.SMALL + ["remediate"])
        assert code == 0
        assert "any defective" in text


class TestCliCampaign:
    SMALL = ["--scale", "0.002", "--seed", "11"]

    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    @staticmethod
    def digest_line(text):
        lines = [
            line for line in text.splitlines()
            if line.startswith("dataset-digest:")
        ]
        assert len(lines) == 1
        return lines[0]

    def test_campaign_prints_digest_and_counters(self):
        code, text = self.run_cli(self.SMALL + ["campaign"])
        assert code == 0
        assert self.digest_line(text)
        assert "retransmits" in text

    def test_campaign_chaos_is_reproducible(self, tmp_path):
        code, first = self.run_cli(self.SMALL + ["campaign", "--chaos", "flaky"])
        assert code == 0
        code, second = self.run_cli(
            self.SMALL + [
                "campaign", "--chaos", "flaky",
                "--resilience-out", str(tmp_path / "res.json"),
            ]
        )
        assert code == 0
        assert self.digest_line(first) == self.digest_line(second)
        assert (tmp_path / "res.json").exists()

    def test_campaign_kill_then_resume_matches(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, baseline = self.run_cli(self.SMALL + ["campaign"])
        assert code == 0
        code, killed = self.run_cli(
            self.SMALL + [
                "campaign", "--journal", journal, "--kill-at-event", "400",
            ]
        )
        assert code == 0
        assert "campaign killed" in killed
        code, resumed = self.run_cli(
            self.SMALL + ["campaign", "--resume", journal]
        )
        assert code == 0
        assert self.digest_line(resumed) == self.digest_line(baseline)

    def test_campaign_resume_wrong_seed_is_refused(self, tmp_path):
        journal = str(tmp_path / "run.jsonl")
        code, _ = self.run_cli(
            self.SMALL + [
                "campaign", "--journal", journal, "--kill-at-event", "400",
            ]
        )
        assert code == 0
        code, text = self.run_cli(
            ["--scale", "0.002", "--seed", "12", "campaign", "--resume", journal]
        )
        assert code == 2
        assert "campaign mismatch" in text

    @pytest.mark.parametrize("count", ["0", "-5"])
    def test_nonpositive_kill_at_event_rejected_before_worldgen(
        self, tmp_path, count, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("the world was generated")

        monkeypatch.setattr(cli, "world_at_epoch", refuse)
        journal = tmp_path / "run.jsonl"
        with pytest.raises(SystemExit) as exit_info:
            self.run_cli(
                self.SMALL + [
                    "campaign", "--journal", str(journal),
                    "--kill-at-event", count,
                ]
            )
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "argument --kill-at-event: must be >= 1" in err
        assert not journal.exists()

    def test_journal_and_resume_mutually_exclusive(self, tmp_path):
        code, text = self.run_cli(
            self.SMALL + [
                "campaign",
                "--journal", str(tmp_path / "a.jsonl"),
                "--resume", str(tmp_path / "b.jsonl"),
            ]
        )
        assert code == 2
        assert "mutually exclusive" in text

    @pytest.mark.parametrize(
        "shards", [[], ["--shards", "2"]], ids=["inline", "shards2"]
    )
    def test_resume_of_missing_journal_is_refused(self, tmp_path, shards):
        missing = tmp_path / "missing.jsonl"
        code, text = self.run_cli(
            self.SMALL + ["campaign", "--resume", str(missing)] + shards
        )
        assert code == 2
        assert f"--resume {missing}: no such journal" in text
        assert not missing.exists()

    @pytest.mark.parametrize(
        "shards", [[], ["--shards", "2"]], ids=["inline", "shards2"]
    )
    def test_journal_onto_existing_file_is_refused(self, tmp_path, shards):
        journal = tmp_path / "run.jsonl"
        journal.write_text("an earlier run\n")
        code, text = self.run_cli(
            self.SMALL + ["campaign", "--journal", str(journal)] + shards
        )
        assert code == 2
        assert f"use --resume {journal}" in text
        assert journal.read_text() == "an earlier run\n"

    def test_unknown_chaos_profile_rejected(self):
        # Rejection moved from argparse choices= into the command so
        # that `--chaos list` can print the profile catalogue.
        code, text = self.run_cli(["campaign", "--chaos", "meteor"])
        assert code == 2
        assert "meteor" in text
