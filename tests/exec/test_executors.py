"""Tests for the executor backends: registry, determinism, resume, engine."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

from repro.exec.checkpoint import campaign_results_path
from repro.exec.engine import MANIFEST_NAME, ExperimentRunner, run_experiment
from repro.exec.executors import (
    Executor,
    SerialExecutor,
    TrialSlice,
    _chunk,
    _mp_context,
    available_executors,
    build_executor,
    get_executor,
    register_executor,
)
from repro.exec.results import TrialRecordSet
from repro.exec.spec import ExperimentSpec

#: Every built-in backend; parametrized suites cover the whole registry.
ALL_BACKENDS = ["serial", "process", "async", "distributed"]
PARALLEL_BACKENDS = ["process", "async", "distributed"]


def make_executor(name: str, n_workers: int = 2) -> Executor:
    """A backend instance tuned for tests (fast lease recovery)."""
    if name == "distributed":
        from repro.exec.distributed import DistributedExecutor

        return DistributedExecutor(n_workers=n_workers, lease_timeout=10.0)
    return build_executor(name, n_workers=n_workers)

#: A real (importable) campaign so fork/spawn workers can run it: 4 grid
#: points, enough trials to split into several batches.
SWEEP = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=6,
    seed=7,
    params={"rows": 32, "cols": 32, "depth": 32},
    grid={"scheme": ["tensor", "element"], "bit_error_rate": [1e-8, 1e-7]},
    name="executor-test",
)

CAMPAIGN = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=8,
    seed=3,
    params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 32, "cols": 32},
)


@pytest.fixture(autouse=True)
def _executor_registry_snapshot():
    """Undo test-local register_executor calls so reruns in one process pass."""
    from repro.exec import executors as executors_module

    saved = dict(executors_module._EXECUTORS)
    yield
    executors_module._EXECUTORS.clear()
    executors_module._EXECUTORS.update(saved)


class TestRegistry:
    def test_builtins_registered(self):
        assert set(ALL_BACKENDS) <= set(available_executors())

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValueError, match="unknown executor"):
            get_executor("quantum")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_executor("serial")
            class Clash(Executor):  # pragma: no cover - never instantiated
                def execute(self, slices):
                    return iter(())

    def test_non_executor_rejected(self):
        with pytest.raises(TypeError, match="subclass"):
            register_executor("not_an_executor")(dict)

    def test_custom_backend_plugs_in(self):
        @register_executor("test_reversed")
        class ReversedExecutor(SerialExecutor):
            """Serial, but slices in reverse order (order must not matter)."""

            def execute(self, slices):
                yield from super().execute(list(reversed(slices)))

        result = run_experiment(SWEEP, executor="test_reversed")
        reference = run_experiment(SWEEP, executor="serial")
        for a, b in zip(result.points, reference.points):
            assert a.result.outcomes == b.result.outcomes
        assert result.executor == "test_reversed"

    def test_build_executor_accepts_instance(self):
        instance = SerialExecutor()
        assert build_executor(instance) is instance

    def test_invalid_worker_count_rejected(self):
        with pytest.raises(ValueError):
            SerialExecutor(n_workers=0)

    def test_chunk_splits_contiguously_in_order(self):
        assert _chunk(list(range(10)), 3) == [[0, 1, 2, 3], [4, 5, 6, 7], [8, 9]]
        # More chunks than items: one item per chunk, none empty.
        assert _chunk([4, 9], 5) == [[4], [9]]
        assert _chunk([1, 2, 3], 0) == [[1, 2, 3]]

    def test_mp_context_forks_only_on_linux(self):
        method = _mp_context().get_start_method()
        if sys.platform == "linux":
            assert method == "fork"
        else:
            assert method != "fork"

    def test_batches_rejects_mutated_worker_count(self):
        """A zero-worker instance must fail loudly, not batch silently."""
        executor = SerialExecutor()
        executor.n_workers = 0  # past the constructor check
        with pytest.raises(ValueError, match="n_workers must be >= 1"):
            executor._batches([TrialSlice(0, {}, (0, 1, 2))])


class TestCrossExecutorDeterminism:
    """Regression: trial records are bit-identical across every backend."""

    @pytest.mark.parametrize("executor", PARALLEL_BACKENDS)
    def test_backend_matches_serial_records(self, executor):
        serial = run_experiment(SWEEP, executor="serial")
        other = run_experiment(SWEEP, executor=make_executor(executor, 4))
        for a, b in zip(serial.points, other.points):
            assert a.records.records == b.records.records
            assert a.result.outcomes == b.result.outcomes

    @pytest.mark.parametrize("executor", ALL_BACKENDS)
    def test_checkpoint_bytes_identical_across_backends(self, tmp_path, executor):
        reference = tmp_path / "serial"
        run_experiment(SWEEP, executor="serial", results_path=reference)
        candidate = tmp_path / executor
        run_experiment(
            SWEEP, executor=make_executor(executor, 3), results_path=candidate
        )
        ref_files = sorted(p.name for p in reference.iterdir())
        assert ref_files == sorted(p.name for p in candidate.iterdir())
        for name in ref_files:
            assert (candidate / name).read_bytes() == (reference / name).read_bytes()

    @pytest.mark.parametrize("executor", PARALLEL_BACKENDS)
    def test_single_campaign_matches_serial(self, executor):
        serial = run_experiment(CAMPAIGN, executor="serial")
        other = run_experiment(CAMPAIGN, executor=make_executor(executor, 4))
        assert serial.result.outcomes == other.result.outcomes


class TestResume:
    def test_sweep_resumes_under_shared_pool(self, tmp_path):
        reference = run_experiment(SWEEP, executor="serial")

        # Run only the first grid point to completion, then resume the whole
        # sweep on the shared pool: completed work is loaded, not re-run.
        partial_dir = tmp_path / "resume"
        first = ExperimentSpec.from_campaign(SWEEP.expand()[0])
        from repro.exec.checkpoint import campaign_results_path

        run_experiment(
            first,
            results_path=campaign_results_path(partial_dir, 0, SWEEP.expand()[0]),
        )
        resumed = run_experiment(
            SWEEP, executor="process", n_workers=3, results_path=partial_dir
        )
        for a, b in zip(reference.points, resumed.points):
            assert a.result.outcomes == b.result.outcomes

    def test_torn_trailing_line_recovered(self, tmp_path):
        path = tmp_path / "campaign.jsonl"
        reference = run_experiment(CAMPAIGN, results_path=path)
        torn = "\n".join(path.read_text().splitlines()[:4]) + '\n{"trial": 7, "rec'
        path.write_text(torn)
        resumed = run_experiment(CAMPAIGN, executor="async", n_workers=2, results_path=path)
        assert resumed.result.outcomes == reference.result.outcomes

    def test_manifest_written_and_checked(self, tmp_path):
        from repro.exec.engine import read_manifest

        run_experiment(SWEEP, results_path=tmp_path)
        manifest = tmp_path / MANIFEST_NAME
        assert manifest.exists()
        spec, progress = read_manifest(manifest)
        assert spec == SWEEP
        assert progress["state"] == "complete"
        assert progress["trials_done"] == progress["trials_total"] == 24

        renamed = ExperimentSpec.from_dict({**SWEEP.to_dict(), "name": "other-label"})
        run_experiment(renamed, results_path=tmp_path)  # cosmetic rename is fine

        different = ExperimentSpec.from_dict({**SWEEP.to_dict(), "seed": 99})
        with pytest.raises(ValueError, match="different experiment"):
            run_experiment(different, results_path=tmp_path)


class RecordingExecutor(Executor):
    """Wraps a backend and records the slices the engine asked it to run."""

    def __init__(self, inner: Executor) -> None:
        super().__init__(n_workers=inner.n_workers)
        self.inner = inner
        self.requested: list[TrialSlice] = []

    def execute(self, slices):
        self.requested.extend(slices)
        yield from self.inner.execute(slices)


class TestResumeUnderFailure:
    """Kill the coordinator mid-sweep, restart into the same results dir:
    completed grid points never re-run and the merged result equals an
    uninterrupted run's -- on every backend."""

    class Killed(Exception):
        pass

    def _interrupted_run(self, tmp_path, executor):
        """Run the sweep, aborting after the first grid point completes."""
        results = tmp_path / "out"

        def kill_after_first_point(event):
            if event.kind == "point":
                raise self.Killed

        with pytest.raises(self.Killed):
            run_experiment(
                SWEEP,
                executor=make_executor(executor),
                results_path=results,
                progress=kill_after_first_point,
            )
        return results

    def _completed_points(self, results):
        completed = set()
        for index, campaign_spec in enumerate(SWEEP.expand()):
            path = campaign_results_path(results, index, campaign_spec)
            if path.exists():
                records = TrialRecordSet.load(path, spec=campaign_spec)
                if records.complete:
                    completed.add(index)
        return completed

    @pytest.mark.parametrize("executor", ALL_BACKENDS)
    def test_restart_skips_completed_points_and_matches_reference(
        self, tmp_path, executor
    ):
        reference = run_experiment(SWEEP, executor="serial")
        results = self._interrupted_run(tmp_path, executor)
        completed = self._completed_points(results)
        assert completed, "the simulated kill fired before any point completed"

        recorder = RecordingExecutor(make_executor(executor))
        resumed = run_experiment(SWEEP, executor=recorder, results_path=results)

        # The engine never hands a completed grid point back to the backend.
        requested_points = {piece.point_index for piece in recorder.requested}
        assert requested_points.isdisjoint(completed)
        # And the merged result equals the uninterrupted run's, byte for byte.
        assert resumed.complete
        for a, b in zip(reference.points, resumed.points):
            assert a.records.records == b.records.records
            assert a.result.outcomes == b.result.outcomes

    @pytest.mark.parametrize("executor", ALL_BACKENDS)
    def test_restarted_checkpoints_byte_identical_to_uninterrupted(
        self, tmp_path, executor
    ):
        uninterrupted = tmp_path / "reference"
        run_experiment(SWEEP, executor="serial", results_path=uninterrupted)
        results = self._interrupted_run(tmp_path, executor)
        run_experiment(
            SWEEP, executor=make_executor(executor), results_path=results
        )
        for path in sorted(uninterrupted.iterdir()):
            assert (results / path.name).read_bytes() == path.read_bytes()


class TestAbort:
    def test_async_abort_cancels_queued_batches_and_returns_promptly(self):
        """Closing the async generator mid-run (a raising listener, Ctrl-C)
        must cancel the batches that have not started yet instead of
        blocking in ``shutdown(wait=True)`` until every submitted batch
        finishes."""
        from repro.exec.distributed import import_worker_module

        import_worker_module(str(Path(__file__).with_name("chaos_kernel.py")))
        executor = build_executor("async", n_workers=2)
        # 8 batches of 4 trials x 0.5s each: draining the queue after an
        # abort would take ~8s on 2 workers; a cancelling close returns as
        # soon as nothing new is dispatched.
        spec_dict = {
            "campaign": "chaos_sleep",
            "n_trials": 32,
            "seed": 1,
            "params": {"sleep": 0.5},
        }
        stream = executor.execute([TrialSlice(0, spec_dict, tuple(range(32)))])
        next(stream)  # at least one batch landed; several are still queued
        start = time.monotonic()
        stream.close()  # the abort path: GeneratorExit inside execute()
        assert time.monotonic() - start < 2.0

    def test_async_kernel_error_does_not_drain_queued_batches(self):
        """A failing kernel aborts the run; the queued batches are dropped."""
        from repro.exec.distributed import import_worker_module

        import_worker_module(str(Path(__file__).with_name("chaos_kernel.py")))
        executor = build_executor("async", n_workers=1)
        bad = {"campaign": "chaos_error", "n_trials": 1, "seed": 0, "params": {}}
        slow = {
            "campaign": "chaos_sleep",
            "n_trials": 16,
            "seed": 1,
            "params": {"sleep": 0.5},
        }
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="deliberate chaos_error"):
            list(
                executor.execute(
                    [
                        TrialSlice(0, bad, (0,)),
                        TrialSlice(1, slow, tuple(range(16))),
                    ]
                )
            )
        assert time.monotonic() - start < 6.0  # not the ~8s full drain


class TestSinkLifecycle:
    def test_serial_run_keeps_at_most_one_sink_open(self, tmp_path, monkeypatch):
        """Sinks open lazily and close per completed point: FDs stay bounded."""
        from repro.exec.checkpoint import TrialCheckpoint

        open_now = {"count": 0, "peak": 0}
        real_open, real_close = TrialCheckpoint.open, TrialCheckpoint.close

        def tracking_open(self, header):
            open_now["count"] += 1
            open_now["peak"] = max(open_now["peak"], open_now["count"])
            return real_open(self, header)

        def tracking_close(self):
            if self._sink is not None:
                open_now["count"] -= 1
            return real_close(self)

        monkeypatch.setattr(TrialCheckpoint, "open", tracking_open)
        monkeypatch.setattr(TrialCheckpoint, "close", tracking_close)
        run_experiment(SWEEP, executor="serial", results_path=tmp_path / "out")
        assert open_now["peak"] == 1
        assert open_now["count"] == 0


class TestEngineValidation:
    def test_sweep_results_path_must_not_be_file(self, tmp_path):
        file_path = tmp_path / "x.jsonl"
        file_path.write_text("")
        with pytest.raises(ValueError, match="file"):
            ExperimentRunner(SWEEP, results_path=file_path)

    def test_campaign_results_path_must_not_be_dir(self, tmp_path):
        with pytest.raises(ValueError, match="directory"):
            ExperimentRunner(CAMPAIGN, results_path=tmp_path)

    def test_trial_slice_normalises_indices(self):
        piece = TrialSlice(0, {}, [0, 1, 2])
        assert piece.indices == (0, 1, 2)
