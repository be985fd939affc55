"""Tests for the executor-level progress subsystem (tracker, events, renderer)."""

from __future__ import annotations

import pytest

from repro.exec.engine import run_experiment
from repro.exec.progress import (
    ProgressPrinter,
    ProgressTracker,
    format_duration,
    format_progress_line,
)
from repro.exec.spec import ExperimentSpec

SWEEP = ExperimentSpec(
    campaign="abft_error_coverage",
    n_trials=4,
    seed=7,
    params={"bit_error_rate": 1e-7, "rows": 32, "cols": 32},
    grid={"scheme": ["tensor", "element"]},
    name="progress-test",
)


class FakeClock:
    def __init__(self, start: float = 100.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now


class TestTracker:
    def test_counts_and_kinds(self):
        events = []
        clock = FakeClock()
        tracker = ProgressTracker([2, 2], listeners=[events.append], clock=clock)
        tracker.start()
        clock.now += 1.0
        tracker.trial_done(0)
        tracker.trial_done(0)
        tracker.point_completed(0)
        tracker.trial_done(1)
        tracker.trial_done(1)
        tracker.point_completed(1)
        tracker.finish()
        assert [e.kind for e in events] == [
            "start", "trial", "trial", "point", "trial", "trial", "point", "finish",
        ]
        done = [e.trials_done for e in events]
        assert done == sorted(done)  # monotonic
        assert events[-1].trials_done == events[-1].trials_total == 4
        assert events[-1].points_done == 2
        assert events[-1].eta == 0.0

    def test_eta_and_throughput(self):
        events = []
        clock = FakeClock()
        tracker = ProgressTracker([4], listeners=[events.append], clock=clock)
        tracker.start()
        assert events[-1].throughput is None and events[-1].eta is None
        clock.now += 2.0
        tracker.trial_done(0)  # 1 fresh trial in 2s -> 0.5 trials/s, 3 left
        assert events[-1].throughput == pytest.approx(0.5)
        assert events[-1].eta == pytest.approx(6.0)

    def test_resumed_trials_excluded_from_throughput(self):
        events = []
        clock = FakeClock()
        tracker = ProgressTracker(
            [4, 4], initial_done=[4, 2], listeners=[events.append], clock=clock
        )
        assert tracker.points_done == 1  # the fully-resumed point counts
        tracker.start()
        assert events[-1].trials_done == 6
        clock.now += 1.0
        tracker.trial_done(1)
        assert events[-1].throughput == pytest.approx(1.0)  # 1 fresh, not 7
        assert events[-1].eta == pytest.approx(1.0)

    def test_snapshot_is_timing_free(self):
        tracker = ProgressTracker([2, 2], initial_done=[2, 1])
        snap = tracker.snapshot()
        assert snap == {
            "trials_done": 3,
            "trials_total": 4,
            "points_done": 1,
            "n_points": 2,
            "points": [{"done": 2, "total": 2}, {"done": 1, "total": 2}],
            "state": "partial",
        }

    def test_overcounting_rejected(self):
        tracker = ProgressTracker([1])
        tracker.start()
        tracker.trial_done(0)
        with pytest.raises(ValueError, match="already has all"):
            tracker.trial_done(0)

    def test_point_completed_is_idempotent_and_validated(self):
        events = []
        tracker = ProgressTracker([1], listeners=[events.append])
        tracker.start()
        with pytest.raises(ValueError, match="cannot mark complete"):
            tracker.point_completed(0)
        tracker.trial_done(0)
        tracker.point_completed(0)
        tracker.point_completed(0)  # no second event
        assert [e.kind for e in events].count("point") == 1

    def test_invalid_initial_state_rejected(self):
        with pytest.raises(ValueError, match="starts with"):
            ProgressTracker([2], initial_done=[3])
        with pytest.raises(ValueError, match="entries"):
            ProgressTracker([2, 2], initial_done=[1])

    def test_pool_counts_ride_on_events_but_not_snapshot(self):
        """Executor pool state is observable on every event after an update,
        yet never leaks into the persisted (byte-stable) snapshot."""
        events = []
        tracker = ProgressTracker([2], listeners=[events.append])
        tracker.start()
        assert events[-1].pool is None
        pool = {"size": 2, "spawned": 3, "retired": 0, "died": 1, "respawned": 1}
        tracker.update_pool(pool)
        tracker.trial_done(0)
        assert events[-1].pool == pool
        assert events[-1].pool is not pool  # defensive copy
        tracker.trial_done(0)
        tracker.point_completed(0)
        assert all(e.pool == pool for e in events[2:])  # carried forward
        assert "pool" not in tracker.snapshot()
        tracker.update_pool(None)
        tracker.finish()
        assert events[-1].pool is None


class TestRenderer:
    def test_format_duration(self):
        assert format_duration(8.4) == "8s"
        assert format_duration(100) == "1m40s"
        assert format_duration(7380) == "2h03m"

    def test_printer_throttles_trials_but_not_transitions(self):
        lines = []

        class Sink:
            def write(self, text):
                lines.append(text)

            def flush(self):
                pass

        clock = FakeClock()
        printer = ProgressPrinter(stream=Sink(), interval=10.0, clock=clock)
        tracker = ProgressTracker([2, 2], listeners=[printer], clock=clock)
        tracker.start()
        tracker.trial_done(0)  # within the interval -> suppressed
        tracker.trial_done(0)
        tracker.point_completed(0)  # transition -> always printed
        clock.now += 11.0
        tracker.trial_done(1)  # interval elapsed -> printed
        tracker.trial_done(1)  # suppressed again (total reached prints anyway)
        tracker.point_completed(1)
        tracker.finish()
        text = "".join(lines)
        printed = [line for line in text.splitlines() if line]
        assert all(line.startswith("progress: ") for line in printed)
        # start, point 0, 11s trial, final trial (total reached), point 1, finish
        assert len(printed) == 6
        assert "done in" in printed[-1]

    def test_line_format(self):
        events = []
        clock = FakeClock()
        tracker = ProgressTracker([4], listeners=[events.append], clock=clock)
        tracker.start()
        clock.now += 2.0
        tracker.trial_done(0)
        line = format_progress_line(events[-1])
        assert line == "progress: 1/4 trials (25.0%) | points 0/1 | 0.5 trials/s | ETA 6s"

    def test_line_format_renders_pool_lifecycle(self):
        events = []
        clock = FakeClock()
        tracker = ProgressTracker([4], listeners=[events.append], clock=clock)
        tracker.start()
        clock.now += 2.0
        tracker.update_pool({"size": 3, "spawned": 4, "retired": 0, "died": 0, "respawned": 0})
        tracker.trial_done(0)
        assert " | pool 3 | " in format_progress_line(events[-1])
        # Non-zero lifecycle counts ride along; zero ones stay quiet.
        tracker.update_pool({"size": 2, "spawned": 4, "retired": 1, "died": 1, "respawned": 1})
        tracker.trial_done(0)
        assert " | pool 2 (respawned 1, retired 1, died 1) | " in format_progress_line(
            events[-1]
        )


class TestEngineEmission:
    """The engine emits progress uniformly; backends only supply records."""

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_run_emits_monotonic_events(self, executor):
        events = []
        run_experiment(SWEEP, executor=executor, n_workers=2, progress=events.append)
        assert events[0].kind == "start"
        assert events[-1].kind == "finish"
        done = [e.trials_done for e in events]
        assert done == sorted(done)
        assert events[-1].trials_done == 8 and events[-1].points_done == 2
        assert [e.kind for e in events].count("trial") == 8
        assert [e.kind for e in events].count("point") == 2

    def test_resume_starts_from_checkpointed_counts(self, tmp_path):
        results = tmp_path / "out"

        class Abort(Exception):
            pass

        def bomb(event):
            if event.kind == "point":
                raise Abort

        with pytest.raises(Abort):
            run_experiment(SWEEP, results_path=results, progress=bomb)
        events = []
        run_experiment(SWEEP, results_path=results, progress=events.append)
        assert events[0].kind == "start"
        assert events[0].trials_done == 4  # the completed point was resumed
        assert [e.kind for e in events].count("trial") == 4  # only fresh work

    def test_listener_exception_still_flushes_checkpoints(self, tmp_path):
        results = tmp_path / "out"

        class Abort(Exception):
            pass

        def bomb(event):
            if event.kind == "trial" and event.trials_done == 3:
                raise Abort

        with pytest.raises(Abort):
            run_experiment(SWEEP, results_path=results, progress=bomb)
        checkpointed = sum(
            1
            for path in results.glob("*.jsonl")
            for line in path.read_text().splitlines()
            if '"trial"' in line
        )
        assert checkpointed == 3  # every record that landed was flushed

    def test_manifest_progress_tracks_partial_state(self, tmp_path):
        from repro.store import MANIFEST_NAME, read_manifest

        results = tmp_path / "out"

        class Abort(Exception):
            pass

        def bomb(event):
            if event.kind == "point":
                raise Abort

        with pytest.raises(Abort):
            run_experiment(SWEEP, results_path=results, progress=bomb)
        spec, progress = read_manifest(results / MANIFEST_NAME)
        assert spec == SWEEP
        assert progress["state"] == "partial"
        assert progress["points_done"] == 1
        assert progress["trials_done"] == 4

        run_experiment(SWEEP, results_path=results)
        _, progress = read_manifest(results / MANIFEST_NAME)
        assert progress["state"] == "complete"
        assert progress["trials_done"] == progress["trials_total"] == 8
