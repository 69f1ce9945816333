"""Smoke tests: every example script must run and produce its story."""

import pathlib
import subprocess
import sys


EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


def run_example(name, *args, timeout=240):
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py", "0.005")
        assert "Headline findings" in out
        assert "98.4%" in out  # the paper column is printed

    def test_audit_country(self):
        out = run_example("audit_country.py", "TR", "0.01")
        assert "gov.tr" in out
        assert "Replication posture" in out

    def test_hijack_demo_takes_over_silent_victims(self):
        out = run_example("hijack_demo.py", "0.02")
        assert "HIJACKED" in out
        assert "registered by" in out

    def test_longitudinal_trends(self):
        out = run_example("longitudinal_trends.py", "0.005")
        assert "Growth of the government namespace" in out
        assert "Centralization onto major providers" in out

    def test_remediation_campaign(self):
        out = run_example("remediation_campaign.py", "0.005")
        assert "Measure → fix → re-measure" in out

    def test_zone_doctor(self):
        out = run_example("zone_doctor.py")
        assert "dropped-origin typo" in out
        assert "UNRESOLVABLE" in out
        assert "LAME" in out or "OK (authoritative)" in out
