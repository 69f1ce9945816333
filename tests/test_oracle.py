"""Differential oracle regression: active pipeline vs static truth.

A plain world has no intrinsic loss (the flaky-server share defaults to
zero), so serial and concurrent campaigns must agree with zonelint on
*every* field of *every* domain.  Under a chaos profile, disagreements
are expected — but each one must classify as legitimately unobservable
(chaos-masked or a co-hosted-parent flip), never ``unexplained``.
"""

from __future__ import annotations

import pytest

from repro.core.oracle import DifferentialOracle, run_oracle_mode
from repro.zonelint import ZoneLinter

from tests.conftest import TEST_SCALE, TEST_SEED


def _table_for(world, dataset):
    linter = ZoneLinter.for_world(world)
    targets = {result.domain: result.iso2 for result in dataset}
    return linter.analyze_all(targets)


def test_concurrent_campaign_agrees_everywhere(world, dataset):
    table = _table_for(world, dataset)
    oracle = DifferentialOracle(world, table)
    report = oracle.compare(dataset, "concurrent")
    assert report.total == len(table) > 0
    assert report.disagreements == []
    assert report.agreed == report.total


def test_serial_campaign_agrees_everywhere():
    report = run_oracle_mode(TEST_SEED, TEST_SCALE, "serial")
    assert report.disagreements == []
    assert report.agreed == report.total > 0


def test_chaos_campaign_has_zero_unexplained():
    report = run_oracle_mode(
        TEST_SEED, TEST_SCALE, "chaos", chaos_profile="mixed"
    )
    assert report.total > 0
    assert report.unexplained == [], [
        f"{d.domain}: {d.fields} — {d.detail}" for d in report.unexplained
    ]
    # Chaos actually bit: the run is a real adversarial exercise, not a
    # vacuous pass.
    assert report.agreed < report.total
    assert set(report.counts()) <= {"chaos-masked", "cohosted-parent"}


def test_unknown_mode_rejected():
    with pytest.raises(ValueError):
        run_oracle_mode(TEST_SEED, TEST_SCALE, "warp-speed")
