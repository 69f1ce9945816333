"""The client-workload generator: shape, validation, and the
determinism property — byte-identical streams across PYTHONHASHSEED
values and input-ordering permutations (same subprocess harness as the
reprolint determinism test)."""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.dns import DnsName, RRType
from repro.serve import (
    ClientWorkload,
    WorkloadConfig,
    targets_from_world,
    workload_digest,
)

REPO_ROOT = Path(__file__).resolve().parent.parent

NAME = DnsName.parse

TARGETS = [
    (NAME("gov.au."), "au"),
    (NAME("canada.ca."), "ca"),
    (NAME("gc.ca."), "ca"),
    (NAME("gov.br."), "br"),
    (NAME("gov.uk."), "gb"),
    (NAME("service.gov.uk."), "gb"),
    (NAME("gov.in."), "in"),
    (NAME("india.gov.in."), "in"),
]

SMALL = WorkloadConfig(duration=120.0, mean_qps=5.0)


class TestWorkloadShape:
    def test_sorted_by_arrival_within_duration(self):
        stream = ClientWorkload(TARGETS, SMALL, seed=1).generate()
        assert stream
        offsets = [q.at for q in stream]
        assert offsets == sorted(offsets)
        assert 0.0 <= offsets[0] and offsets[-1] < SMALL.duration

    def test_mix_covers_all_three_kinds(self):
        stream = ClientWorkload(TARGETS, SMALL, seed=1).generate()
        kinds = {q.kind for q in stream}
        assert kinds == {"popular", "nxdomain", "nodata"}
        for query in stream:
            assert query.qtype == RRType.A
            if query.kind == "popular":
                assert str(query.qname).startswith("www.")
            elif query.kind == "nxdomain":
                assert str(query.qname).startswith("missing-")

    def test_zipf_concentrates_on_hot_domains(self):
        # With two domains per country, rank 1 must dominate rank 2.
        counts = {}
        stream = ClientWorkload(TARGETS, SMALL, seed=3).generate()
        for query in stream:
            if query.iso2 == "ca" and query.kind == "popular":
                counts[str(query.qname)] = counts.get(str(query.qname), 0) + 1
        assert counts["www.canada.ca."] > counts.get("www.gc.ca.", 0)

    def test_countries_are_sorted(self):
        workload = ClientWorkload(TARGETS, SMALL, seed=0)
        assert workload.countries == ("au", "br", "ca", "gb", "in")

    def test_targets_from_world_is_sorted(self, world):
        targets = targets_from_world(world)
        assert targets == sorted(targets)
        assert targets  # scaled world still has domains


class TestWorkloadDeterminism:
    def test_same_seed_same_stream(self):
        first = ClientWorkload(TARGETS, SMALL, seed=5).generate()
        second = ClientWorkload(TARGETS, SMALL, seed=5).generate()
        assert workload_digest(first) == workload_digest(second)

    def test_different_seed_different_stream(self):
        first = ClientWorkload(TARGETS, SMALL, seed=5).generate()
        second = ClientWorkload(TARGETS, SMALL, seed=6).generate()
        assert workload_digest(first) != workload_digest(second)

    def test_caller_ordering_and_duplicates_are_canonicalized(self):
        baseline = ClientWorkload(TARGETS, SMALL, seed=5).generate()
        shuffled = ClientWorkload(
            list(reversed(TARGETS)) + TARGETS[:3], SMALL, seed=5
        ).generate()
        assert workload_digest(baseline) == workload_digest(shuffled)


class TestWorkloadValidation:
    def test_empty_targets_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ClientWorkload([], SMALL, seed=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"duration": 0.0},
            {"mean_qps": 0.0},
            {"zipf_exponent": 0.0},
            {"nxdomain_share": -0.1},
            {"nxdomain_share": 0.7, "nodata_share": 0.4},
            {"nxdomain_pool": 0},
            {"diurnal_amplitude": 1.0},
            {"storm_count": -1},
            {"storm_duration": 0.0},
            {"storm_multiplier": 0.5},
        ],
    )
    def test_config_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            WorkloadConfig(**kwargs)


WORKLOAD_SCRIPT = """\
import sys

from repro.dns.name import DnsName
from repro.serve import ClientWorkload, WorkloadConfig, workload_digest

PAIRS = [
    ("gov.au.", "au"),
    ("canada.ca.", "ca"),
    ("gc.ca.", "ca"),
    ("gov.br.", "br"),
    ("gov.uk.", "gb"),
    ("service.gov.uk.", "gb"),
]
targets = [(DnsName.parse(name), iso2) for name, iso2 in PAIRS]
order = sys.argv[1]
if order == "reversed":
    targets = list(reversed(targets))
elif order == "rotated":
    targets = targets[3:] + targets[:3]
elif order == "duplicated":
    targets = targets + targets[:2]
config = WorkloadConfig(duration=60.0, mean_qps=5.0)
stream = ClientWorkload(targets, config, seed=7).generate()
sys.stdout.write(workload_digest(stream))
"""


def _run_workload(tmp_path: Path, hash_seed: str, order: str) -> bytes:
    script = tmp_path / "gen_workload.py"
    if not script.exists():
        script.write_text(textwrap.dedent(WORKLOAD_SCRIPT), encoding="utf-8")
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hash_seed
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    result = subprocess.run(
        [sys.executable, str(script), order],
        env=env,
        cwd=str(tmp_path),
        capture_output=True,
        check=False,
    )
    assert result.returncode == 0, result.stderr.decode()
    return result.stdout


def test_byte_identical_across_hashseed_and_ordering(tmp_path: Path):
    """The satellite property: PYTHONHASHSEED randomizes str hashing
    (and therefore every set/dict iteration the generator does
    internally) and callers may hand over targets in any order — the
    emitted query stream must not care about either."""
    outputs = {
        _run_workload(tmp_path, hash_seed, order)
        for hash_seed in ("0", "1", "4242")
        for order in ("sorted", "reversed", "rotated", "duplicated")
    }
    assert len(outputs) == 1
    digest = next(iter(outputs))
    assert len(digest) == 64  # one sha256, no stray output
