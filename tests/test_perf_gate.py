"""The multi-scale perf gate.

``BENCH_probe.json`` is a format-2 *suite*: one seed, several scales,
each scale a full report.  The gate (`gate_suite`) must check every
committed scale — a scale silently dropped from a run is a regression
— and prefix violations with the scale so CI output is attributable.
Every committed record must carry every gated field.
"""

from __future__ import annotations

import io
import json

import pytest

from repro.cli import main
from repro.report.bench import (
    GATED_FIELDS,
    PerfRecord,
    PerfReport,
    PerfSuite,
    gate_report,
    gate_suite,
    scale_payloads,
)


def record(label="serial", **overrides):
    values = dict(
        label=label,
        max_in_flight=1,
        zone_cut_caching=False,
        targets=100,
        simulated_seconds=50.0,
        active_seconds=50.0,
        queries_sent=1000,
        network_queries=1500,
        timeouts=3,
        responsive_domains=90,
        dataset_digest="ab" * 32,
    )
    values.update(overrides)
    return PerfRecord(**values)


def suite(scales=(0.02, 0.05), seed=7, **overrides):
    built = PerfSuite(seed=seed)
    for scale in scales:
        report = PerfReport(scale=scale, seed=seed)
        report.add(record(**overrides), baseline=True)
        built.add(report)
    return built


class TestScalePayloads:
    def test_suite_format_yields_one_payload_per_scale(self):
        payloads = scale_payloads(suite().payload())
        assert set(payloads) == {0.02, 0.05}
        assert payloads[0.05]["scale"] == 0.05

    def test_single_report_payload_is_rejected(self):
        # Only format-2 suites are gate baselines: a bare report payload
        # would otherwise gate a single scale and pass the rest unseen.
        report = PerfReport(scale=0.05, seed=7)
        report.add(record(), baseline=True)
        with pytest.raises(ValueError, match="format-2"):
            scale_payloads(json.loads(report.to_json()))

    def test_cli_check_refuses_a_non_suite_file(self, tmp_path):
        committed = tmp_path / "old.json"
        committed.write_text(json.dumps({"scale": 0.002, "seed": 11}))
        out = io.StringIO()
        code = main(
            ["--scale", "0.002", "--seed", "11", "bench",
             "--out", str(tmp_path / "fresh.json"),
             "--check", str(committed)],
            out=out,
        )
        assert code == 2
        assert "format-2" in out.getvalue()


class TestGateSuite:
    def committed(self, **kwargs):
        return json.loads(suite(**kwargs).to_json())

    def test_identical_suites_pass(self):
        assert gate_suite(suite(), self.committed()) == []

    def test_missing_scale_is_a_violation(self):
        violations = gate_suite(
            suite(scales=(0.05,)), self.committed(scales=(0.02, 0.05))
        )
        assert violations == [
            "scale 0.02 present in committed baseline but missing from "
            "this run"
        ]

    def test_extra_scale_in_current_run_is_allowed(self):
        violations = gate_suite(
            suite(scales=(0.02, 0.05, 0.15)),
            self.committed(scales=(0.02, 0.05)),
        )
        assert violations == []

    @pytest.mark.parametrize(
        "fieldname,drifted",
        [
            ("queries_sent", 999),
            ("network_queries", 1),
            ("timeouts", 4),
            ("responsive_domains", 89),
            ("targets", 101),
            ("dataset_digest", "cd" * 32),
        ],
    )
    def test_counter_drift_is_flagged_with_scale_prefix(
        self, fieldname, drifted
    ):
        assert fieldname in GATED_FIELDS
        violations = gate_suite(
            suite(**{fieldname: drifted}), self.committed()
        )
        assert len(violations) == 2  # both scales drifted
        for scale, violation in zip((0.02, 0.05), violations):
            assert violation.startswith(f"scale {scale}: ")
            assert f"serial.{fieldname}" in violation

    def test_wall_clock_drift_is_advisory(self):
        # Virtual time is recorded for the reduction ratios, not gated.
        violations = gate_suite(
            suite(simulated_seconds=1.1, active_seconds=0.9),
            self.committed(),
        )
        assert violations == []

    @pytest.mark.parametrize("fieldname", GATED_FIELDS)
    def test_committed_record_missing_a_gated_field_is_a_violation(
        self, fieldname
    ):
        committed = self.committed(scales=(0.05,))
        del committed["scales"]["0.05"]["records"]["serial"][fieldname]
        assert gate_suite(suite(scales=(0.05,)), committed) == [
            f"scale 0.05: serial.{fieldname}: missing from the committed "
            f"record"
        ]

    def test_identity_mismatch_does_not_hide_field_drift(self):
        # A run taken at the wrong seed that ALSO drifted two counters
        # must report all three facts in one pass, not stop at the
        # identity error (first-violation exits hid multi-field
        # regressions).
        current = PerfReport(scale=0.05, seed=7)
        current.add(record(queries_sent=1000, timeouts=3), baseline=True)
        reference = PerfReport(scale=0.05, seed=9)
        reference.add(record(queries_sent=1234, timeouts=8), baseline=True)
        violations = gate_report(current, json.loads(reference.to_json()))
        assert len(violations) == 3
        assert any(
            "identity mismatch: seed" in violation for violation in violations
        )
        assert any(
            "serial.queries_sent" in violation for violation in violations
        )
        assert any("serial.timeouts" in violation for violation in violations)

    def test_every_drifted_field_of_a_record_is_reported(self):
        violations = gate_report(
            suite(scales=(0.05,)).reports[0.05],
            json.loads(
                suite(
                    scales=(0.05,),
                    queries_sent=1,
                    network_queries=2,
                    dataset_digest="cd" * 32,
                ).to_json()
            )["scales"]["0.05"],
        )
        drifted = {v.split(":")[0].split(".")[1] for v in violations}
        assert drifted == {
            "queries_sent",
            "network_queries",
            "dataset_digest",
        }

