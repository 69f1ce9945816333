"""servelint: the static cache-survivability analyzer.

Covers the model primitives, the SV002/SV004 findings over a generated
world, byte-level determinism of the reports
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
from repro.lint.output import render_json, render_sarif
from repro.serve.service import DegradationState
from repro.servelint import RULES_BY_ID, SV_RULES, SurvivabilityModel
from repro.servelint.rules import ANALYSIS_PROFILE, findings as sv_findings
from repro.servelint.model import kind_qname
from repro.servelint.verify import oracle_json, verify_profile
from repro.worldgen.config import WorldConfig
from repro.worldgen.generator import WorldGenerator
from repro.zonelint.analyzer import ZoneLinter

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
def truths(world, targets):
    return ZoneLinter.for_world(world).analyze_all(targets)


@pytest.fixture(scope="module")
def model(world):
    return SurvivabilityModel.for_world(world, seed=SEED)


@pytest.fixture(scope="module")
def findings(model, truths):
    return sv_findings(model, truths)


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

    def test_outage_outlook_is_deterministically_dead(self, model):
        outlook = model.outlook(ANALYSIS_PROFILE)
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


# ----------------------------------------------------------------------
# Determinism
# ----------------------------------------------------------------------
class TestDeterminism:
    def test_rebuilt_linter_is_byte_identical(self, world, truths, findings):
        rebuilt = SurvivabilityModel.for_world(world, seed=SEED)
        again = sv_findings(rebuilt, truths)
        first = render_json(findings)
        second = render_json(again)
        assert first == second
        # Pins the findings bytes across refactors of the model.
        assert hashlib.sha256(first.encode()).hexdigest() == (
            "bbc0662f9c9e2060948519dcfb7a05b177295545f257a6a76c348f25fbf86eed"
        )
        assert render_sarif(
            findings, SV_RULES, "2.0.0", tool="servelint"
        ) == render_sarif(again, SV_RULES, "2.0.0", tool="servelint")

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

    def test_unknown_profile_is_a_usage_error_before_worldgen(
        self, monkeypatch
    ):
        import repro.servelint.cli as servelint_cli

        def no_worldgen(*args, **kwargs):
            raise AssertionError("worldgen ran before --profiles was checked")

        monkeypatch.setattr(servelint_cli, "world_at_epoch", no_worldgen)
        code, text = self.run_cli(
            [
                "--seed",
                str(SEED),
                "--scale",
                str(SCALE),
                "servelint",
                "--verify",
                "--profiles",
                "idle,bogus",
            ]
        )
        assert code == 2
        assert text.startswith("error: ") and "bogus" in text
        for profile in ("idle", "outage", "flaky", "mixed"):
            assert profile in text

    def test_json_out_without_verify_is_a_usage_error_before_worldgen(
        self, monkeypatch, tmp_path
    ):
        import repro.servelint.cli as servelint_cli

        def no_worldgen(*args, **kwargs):
            raise AssertionError("worldgen ran before --json-out was checked")

        monkeypatch.setattr(servelint_cli, "world_at_epoch", no_worldgen)
        target = tmp_path / "oracle.json"
        code, text = self.run_cli(
            [
                "--seed",
                str(SEED),
                "--scale",
                str(SCALE),
                "servelint",
                "--json-out",
                str(target),
            ]
        )
        assert code == 2
        assert text.startswith("error: ")
        assert "--json-out" in text and "--verify" in text
        assert not target.exists()


# ----------------------------------------------------------------------
# The differential oracle
# ----------------------------------------------------------------------
def _serve_oracle(profile):
    return verify_profile(SEED, SCALE, profile, duration=300.0, qps=10.0)


@pytest.fixture(scope="module")
def serve_oracle():
    """One seed-5 serve run per profile, shared by the module's tests."""
    runs = {}

    def run(profile):
        if profile not in runs:
            runs[profile] = _serve_oracle(profile)
        return runs[profile]

    return run


class TestOracle:
    @pytest.mark.parametrize("profile", ["idle", "outage"])
    def test_zero_unexplained(self, serve_oracle, profile):
        oracle = serve_oracle(profile)
        assert oracle.pairs > 0
        assert oracle.agreements > 0
        assert not oracle.unexplained, [
            (d.domain, d.kind, d.expected, d.observed)
            for d in oracle.unexplained
        ]

    def test_idle_run_has_no_disagreements_at_all(self, serve_oracle):
        oracle = serve_oracle("idle")
        assert not oracle.disagreements
        assert (
            oracle.agreements + oracle.never_queried == oracle.pairs
        )

    def test_oracle_json_is_sorted_and_stable(self, serve_oracle):
        # Two independent outage runs: the shared one and a fresh one.
        first = serve_oracle("outage")
        second = _serve_oracle("outage")
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
