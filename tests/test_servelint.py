"""servelint: the static cache-survivability analyzer.

Covers the model primitives, the SV finding emission over a generated
world, the baseline ratchet, byte-level determinism of the reports
(including across hash seeds, via subprocess), the CLI wiring, and the
serve-vs-static differential oracle's zero-unexplained contract at
test scale.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main
from repro.dns.name import DnsName
from repro.lint.baseline import Baseline, BaselineMatch
from repro.lint.output import render_json, render_sarif
from repro.serve.service import BackoffPolicy, DegradationState, ServeConfig
from repro.servelint import RULES_BY_ID, SV_RULES, ServeLinter
from repro.servelint.analyzer import ANALYSIS_PROFILE
from repro.servelint.model import kind_qname, refresh_backoff_span
from repro.servelint.verify import oracle_json, verify_profile
from repro.worldgen.config import WorldConfig
from repro.worldgen.generator import WorldGenerator

SEED = 5
SCALE = 0.004

REPO_ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def world():
    return WorldGenerator(WorldConfig(seed=SEED, scale=SCALE)).generate()


@pytest.fixture(scope="module")
def targets(world):
    return {name: truth.iso2 for name, truth in world.truths.items()}


@pytest.fixture(scope="module")
def linter(world):
    return ServeLinter.for_world(world, seed=SEED)


@pytest.fixture(scope="module")
def findings(linter, targets):
    return linter.findings(linter.zones.analyze_all(targets))


# ----------------------------------------------------------------------
# Model primitives
# ----------------------------------------------------------------------
class TestModelPrimitives:
    def test_kind_qnames(self):
        domain = DnsName.parse("example.gov.xx")
        assert kind_qname(domain, "popular") == DnsName.parse(
            "www.example.gov.xx"
        )
        assert kind_qname(domain, "nxdomain") == DnsName.parse(
            "missing-0.example.gov.xx"
        )
        assert kind_qname(domain, "nodata") == domain

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            kind_qname(DnsName.parse("example.gov.xx"), "bulk")

    def test_refresh_backoff_span_default(self):
        # base 5, x2, cap 120, 3 attempts: 5 + 10 + 20.
        assert refresh_backoff_span(ServeConfig()) == 35.0

    def test_refresh_backoff_span_hits_cap(self):
        config = ServeConfig(
            refresh_attempts=5,
            refresh_backoff=BackoffPolicy(base=60, multiplier=3, cap=100),
        )
        # 60 + min(180,100) + 100 + 100 + 100.
        assert refresh_backoff_span(config) == 460.0

    def test_outage_outlook_is_deterministically_dead(self, linter):
        outlook = linter.model.outlook(ANALYSIS_PROFILE)
        assert outlook.fault_span == pytest.approx(7200.0)
        assert outlook.dead  # outage windows cover the whole horizon
        assert not outlook.has_bursts
        dead = next(iter(sorted(outlook.dead)))
        assert outlook.is_dead(dead)


# ----------------------------------------------------------------------
# Findings over a generated world
# ----------------------------------------------------------------------
class TestFindings:
    def test_world_produces_findings(self, findings):
        assert findings
        assert {f.rule_id for f in findings} <= set(RULES_BY_ID)

    def test_paths_are_virtual_world_anchors(self, findings):
        for finding in findings:
            assert finding.path.startswith("world/")
            assert finding.line == 1 and finding.column == 1

    def test_severities_match_the_rule_table(self, findings):
        for finding in findings:
            assert finding.severity is RULES_BY_ID[finding.rule_id].severity

    def test_stale_survivors_also_flag_futile_refresh(self, findings):
        # At defaults the 35s backoff span sits inside the 7200s outage
        # window, so every SV002 domain is also an SV007 domain.
        by_rule = {}
        for finding in findings:
            by_rule.setdefault(finding.rule_id, set()).add(finding.path)
        assert by_rule.get("SV002") == by_rule.get("SV007")

    def test_ttl_cohort_note_fires_at_the_clamp(self, findings):
        cohort = [f for f in findings if f.rule_id == "SV006"]
        assert len(cohort) == 1
        assert cohort[0].path == "world/serving-config"
        assert "300s" in cohort[0].message

    def test_sv005_fires_when_negative_ttl_drops(self, world, targets):
        tight = ServeLinter.for_world(
            world, seed=SEED, config=ServeConfig(negative_ttl=30)
        )
        findings = tight.findings(tight.zones.analyze_all(targets))
        sv005 = [f for f in findings if f.rule_id == "SV005"]
        assert sv005
        assert all("30s" in f.message for f in sv005)

    def test_sv008_fires_when_stale_window_cannot_bridge(
        self, world, targets
    ):
        small = ServeLinter.for_world(
            world,
            seed=SEED,
            config=ServeConfig(max_ttl=60, stale_window=60.0),
        )
        findings = small.findings(small.zones.analyze_all(targets))
        sv008 = [f for f in findings if f.rule_id == "SV008"]
        assert len(sv008) == 1
        assert sv008[0].path == "world/serving-config"

    def test_sv008_silent_at_defaults(self, findings):
        # 300s modal TTL + 14400s stale window bridges the 7200s
        # outage window with room to spare.
        assert not [f for f in findings if f.rule_id == "SV008"]


# ----------------------------------------------------------------------
# Determinism and the baseline ratchet
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_rebuilt_linter_is_byte_identical(self, world, targets, findings):
        rebuilt = ServeLinter.for_world(world, seed=SEED)
        again = rebuilt.findings(rebuilt.zones.analyze_all(targets))
        first = render_json(BaselineMatch(new=findings))
        second = render_json(BaselineMatch(new=again))
        assert first == second
        # Pins the findings bytes across refactors of the model.
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "21b340e8643d3128aca2adf39204798d18149d722f2e79afa8832c1df56f21f9"
        )
        assert render_sarif(
            BaselineMatch(new=findings), SV_RULES, "1.0.0", tool="servelint"
        ) == render_sarif(
            BaselineMatch(new=again), SV_RULES, "1.0.0", tool="servelint"
        )

    def test_sarif_bytes_survive_hash_seed_changes(self, tmp_path):
        outputs = []
        for hash_seed in ("0", "1"):
            env = dict(os.environ)
            env["PYTHONHASHSEED"] = hash_seed
            env["PYTHONPATH"] = str(REPO_ROOT / "src")
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "repro",
                    "--seed",
                    str(SEED),
                    "--scale",
                    str(SCALE),
                    "servelint",
                    "--format",
                    "sarif",
                ],
                capture_output=True,
                text=True,
                env=env,
                cwd=str(tmp_path),
                check=True,
            )
            outputs.append(proc.stdout)
        assert outputs[0] == outputs[1]
        json.loads(outputs[0])  # well-formed SARIF JSON

    def test_baseline_ratchet_round_trip(self, tmp_path, findings):
        path = tmp_path / "servelint-baseline.json"
        Baseline.from_findings(findings).dump(path)
        match = Baseline.load(path).match(findings)
        assert not match.new
        assert not match.stale
        assert len(match.baselined) == len(findings)


# ----------------------------------------------------------------------
# CLI wiring
# ----------------------------------------------------------------------
class TestCli:
    def run_cli(self, argv):
        out = io.StringIO()
        code = main(argv, out=out)
        return code, out.getvalue()

    def test_text_report_exits_zero(self):
        code, text = self.run_cli(
            ["--seed", str(SEED), "--scale", str(SCALE), "servelint"]
        )
        assert code == 0
        assert "domain(s) analyzed" in text

    def test_baseline_write_then_ratchet(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        code, text = self.run_cli(
            [
                "--seed",
                str(SEED),
                "--scale",
                str(SCALE),
                "servelint",
                "--write-baseline",
                str(baseline),
            ]
        )
        assert code == 0 and baseline.exists()
        code, _ = self.run_cli(
            [
                "--seed",
                str(SEED),
                "--scale",
                str(SCALE),
                "servelint",
                "--baseline",
                str(baseline),
            ]
        )
        assert code == 0  # nothing escapes its own baseline

    @pytest.mark.parametrize(
        "flag, content",
        [
            ("--allow", '[{"profile": "mixed"}]'),
            ("--allow", "not json"),
            ("--baseline", "not json"),
        ],
    )
    def test_malformed_input_file_is_a_usage_error(
        self, tmp_path, flag, content
    ):
        bad = tmp_path / "bad.json"
        bad.write_text(content, encoding="utf-8")
        argv = ["--seed", str(SEED), "--scale", str(SCALE), "servelint"]
        if flag == "--allow":
            argv.append("--verify")
        code, text = self.run_cli([*argv, flag, str(bad)])
        assert code == 2
        assert text.startswith("error: ") and str(bad) in text


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------
class TestOracle:
    @pytest.mark.parametrize("profile", ["idle", "outage"])
    def test_zero_unexplained(self, profile):
        oracle = verify_profile(
            SEED, SCALE, profile, duration=300.0, qps=10.0
        )
        assert oracle.pairs > 0
        assert oracle.agreements > 0
        assert not oracle.unexplained, [
            (d.domain, d.kind, d.expected, d.observed)
            for d in oracle.unexplained
        ]

    def test_idle_run_has_no_disagreements_at_all(self):
        oracle = verify_profile(
            SEED, SCALE, "idle", duration=300.0, qps=10.0
        )
        assert not oracle.disagreements
        assert (
            oracle.agreements + oracle.never_queried == oracle.pairs
        )

    def test_oracle_json_is_sorted_and_stable(self):
        first = verify_profile(
            SEED, SCALE, "outage", duration=300.0, qps=10.0
        )
        second = verify_profile(
            SEED, SCALE, "outage", duration=300.0, qps=10.0
        )
        assert oracle_json([first]) == oracle_json([second])
        # Pins the oracle bytes across refactors of the serve pipeline.
        assert hashlib.sha256(oracle_json([first]).encode()).hexdigest() == (
            "76dbc5c5810a24b02fd2497ccb5d3fe847877cd3e610fbcc78074e6cde44036f"
        )
        payload = json.loads(oracle_json([first]))
        (entry,) = payload["oracles"]
        assert entry["profile"] == "outage"
        assert entry["unexplained"] == 0


def test_verdict_vocabulary_matches_serving_layer():
    # The model's verdicts reuse the serving layer's DegradationState
    # strings verbatim; the oracle rank table depends on it.
    assert DegradationState.ALL == (
        DegradationState.FRESH,
        DegradationState.STALE_SERVED,
        DegradationState.FAILED,
    )
