"""The run's one heap policy (:mod:`repro.inet.heap`, DESIGN.md §11.1,
"Heap discipline").

Three parts: the contract of :func:`paused` itself; the fact that makes
pausing safe, that no pipeline leaves cyclic garbage; and the CLI,
which runs every command paused.  The checks at two sites live beside
their own tests: ``test_worldgen_world.py::TestHeapDiscipline`` (the
world generator's garbage and promotion) and
``test_shard.py::TestHeapDiscipline`` (the inline campaign's garbage,
and a sharded run that pauses before the fork and restores the state
after a kill or a worker error).
"""

from __future__ import annotations

import contextlib
import gc
import io

import pytest

from repro.cli import main
from repro.core.epoch import EpochRunner
from repro.core.probe import ProbeConfig
from repro.core.shard import ProcessCampaignRunner, government_suffixes
from repro.core.study import GovernmentDnsStudy
from repro.inet.heap import paused
from repro.report.paperkit import render_all
from repro.serve.profiles import run_serve
from repro.worldgen import WorldConfig, WorldGenerator

SEED = 7
SCALE = 0.004


@contextlib.contextmanager
def collector(enabled):
    """Start the body with the collector ``enabled`` or not; leave it
    enabled, as every other test expects."""
    if not enabled:
        gc.disable()
    try:
        yield
    finally:
        gc.enable()


def in_generation(obj, generation):
    return any(tracked is obj for tracked in gc.get_objects(generation))


def generate():
    return WorldGenerator(WorldConfig(seed=SEED, scale=SCALE)).generate()


def fresh_study():
    return GovernmentDnsStudy(generate())


def sharded_runner(**kwargs):
    study = fresh_study()
    return ProcessCampaignRunner(
        study.world,
        study.targets(),
        ProbeConfig(),
        shards=2,
        suffixes=government_suffixes(study.seeds().values()),
        **kwargs,
    )


class TestPausedContract:
    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored(self, enabled):
        with collector(enabled):
            with paused():
                assert not gc.isenabled()
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("enabled", [True, False])
    def test_state_restored_on_an_exception(self, enabled):
        with collector(enabled):
            with pytest.raises(RuntimeError, match="run failed"):
                with paused():
                    raise RuntimeError("run failed")
            assert gc.isenabled() is enabled

    def test_decorator_pauses_every_call(self):
        @paused()
        def observe():
            return gc.isenabled()

        assert gc.isenabled()
        assert observe() is False
        assert observe() is False
        assert gc.isenabled()

    def test_a_nested_entry_is_a_no_op(self):
        with paused():
            with paused():
                kept = []
            # The inner exit neither re-enabled nor promoted anything.
            assert not gc.isenabled()
            assert in_generation(kept, 0)
        assert gc.isenabled()

    def test_outermost_exit_promotes_the_run_untraversed(self):
        with paused():
            kept = []
            assert in_generation(kept, 0)
        assert gc.get_freeze_count() == 0
        assert gc.get_count()[0] < 100
        assert in_generation(kept, 2)

    def test_a_callers_open_freeze_is_kept(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            with paused():
                kept = []
            assert gc.get_freeze_count() == frozen
            assert in_generation(kept, 0)
        finally:
            gc.unfreeze()


# ----------------------------------------------------------------------
# No pipeline leaves cyclic garbage, so pausing frees nothing late
# ----------------------------------------------------------------------
class TestNoCyclicGarbage:
    """Each pipeline, run with the collector off, leaves nothing that
    only the collector could free; its world stays referenced through
    the pipeline.  Set-up and report serialization stay outside the
    checked span: the stdlib's indented JSON encoder leaves a closure
    cycle per call."""

    def check(self, pipeline):
        gc.collect()
        with collector(False):
            kept = pipeline()
            unreachable = gc.collect()
        assert kept
        assert unreachable == 0

    def test_sharded_runner(self):
        self.check(sharded_runner().run)

    def test_render_all(self):
        study = fresh_study()
        study.dataset()
        self.check(lambda: render_all(study))

    def test_epoch_runner_bootstrap_and_two_epochs(self):
        runner = EpochRunner(generate())

        def epochs():
            return [runner.bootstrap(), runner.run_epoch(), runner.run_epoch()]

        self.check(epochs)

    def test_recursive_service_run(self):
        world = generate()
        self.check(lambda: run_serve(world, SEED, "mixed", 300.0, 10.0).answers)


# ----------------------------------------------------------------------
# The CLI runs every command paused
# ----------------------------------------------------------------------
def test_cli_headline_runs_no_collection():
    collections = []

    def count(phase, info):
        if phase == "start":
            collections.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        code = main(
            ["--seed", str(SEED), "--scale", str(SCALE), "headline"],
            io.StringIO(),
        )
    finally:
        gc.callbacks.remove(count)
    assert code == 0
    assert collections == []
    assert gc.isenabled()
    assert gc.get_freeze_count() == 0


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--modes", "serial,concurrent"],
        ["bench", "--labels", "serial,concurrent", "--out", "{tmp}/bench.json"],
    ],
)
def test_a_command_that_builds_a_world_per_step_frees_each(argv, tmp_path):
    # A dropped world is cyclic: left to the end of a paused run, every
    # step's world would be held at once.
    gc.collect()
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    main(["--seed", str(SEED), "--scale", str(SCALE), *argv], io.StringIO())
    assert gc.collect() < 1000
