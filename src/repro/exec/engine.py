"""The experiment engine: one spec, one results store, any executor.

:class:`ExperimentRunner` executes an :class:`~repro.exec.spec.ExperimentSpec`
(or anything coercible to one -- a per-point campaign spec, a dict, JSON
text) through a pluggable :class:`~repro.exec.executors.Executor` backend and
returns a typed :class:`~repro.exec.results.ExperimentResult`.

The engine owns everything the backends must agree on:

* **expansion** -- grid points in deterministic order, common root seed;
* **persistence** -- delegated to a pluggable
  :class:`~repro.store.ResultsStore` (default: the ``"jsonl"`` layout of one
  checkpoint file per grid point; ``"sqlite"`` keeps one queryable database
  per experiment).  Records are appended durably as they land, resumed on
  restart, and finalized canonically on completion.  Because records are
  keyed by ``(point, trial)`` and per-trial seeds derive from the spec root,
  the finished results are *byte-identical* across backends, worker counts
  and interruption histories;
* **aggregation** -- each grid point's records fold through its campaign's
  registered aggregator into the typed result.

Convenience wrapper::

    result = run_experiment(spec, executor="process", n_workers=8,
                            results_path="out/")
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.exec.executors import Executor, TrialSlice, build_executor
from repro.exec.progress import ProgressEvent, ProgressTracker
from repro.exec.results import ExperimentResult, PointResult, TrialRecordSet
from repro.exec.spec import ExperimentSpec
# Imported from the interface module (not the repro.store package root) to
# keep the engine <-> store import order acyclic.
from repro.store.base import PointStore, ResultsStore, build_store
from repro.store.base import experiment_resume_key as _experiment_resume_key


class ExperimentRunner:
    """Executes an experiment spec on a chosen backend, checkpointed.

    Parameters
    ----------
    spec:
        Anything :meth:`ExperimentSpec.from_any` accepts.
    executor:
        Backend name (``"serial"``, ``"process"``, ``"async"``, or any
        ``@register_executor`` plug-in) or a ready :class:`Executor`.
    n_workers:
        Parallelism budget handed to the backend.
    results_path:
        Optional checkpoint location, owned by the results store: with the
        default ``"jsonl"`` store a JSONL file for a single campaign or a
        directory of per-point JSONL files for a sweep; with ``"sqlite"``
        one database file either way.  Existing results are used to skip
        finished trials (resume); completed points are finalized in
        canonical trial-sorted order.
    store:
        Results-store backend: a registered name (``"jsonl"``, ``"sqlite"``),
        a ready :class:`~repro.store.ResultsStore`, or ``None`` to use the
        spec's ``store`` field (default ``"jsonl"``).  Ignored without a
        ``results_path``.
    progress:
        Optional progress listener(s) -- callables receiving every
        :class:`~repro.exec.progress.ProgressEvent` of the run (trials done,
        per-point state, throughput, ETA).  Emitted uniformly for every
        backend, since all records stream through the engine.
    """

    def __init__(
        self,
        spec: Any,
        executor: str | Executor = "serial",
        n_workers: int = 1,
        results_path: str | Path | None = None,
        store: str | ResultsStore | None = None,
        progress: Callable[[ProgressEvent], None]
        | Sequence[Callable[[ProgressEvent], None]]
        | None = None,
    ) -> None:
        self.spec = ExperimentSpec.from_any(spec)
        self.executor = build_executor(executor, n_workers=n_workers)
        if progress is None:
            self.progress_listeners: list = []
        elif callable(progress):
            self.progress_listeners = [progress]
        else:
            self.progress_listeners = list(progress)
        self.results_path = Path(results_path) if results_path is not None else None
        self.store = build_store(store, self.results_path, self.spec)
        # Fail fast -- before any worker pool spins up -- on a results path
        # whose shape cannot hold this experiment.  The store also drops any
        # stale in-flight marker a *different* experiment's abort left here.
        self.store.validate_layout()
        faultload_path = self.spec.faultload or self.spec.params.get("faultload")
        if faultload_path:
            # Fail fast -- before any worker pool spins up -- on a missing,
            # malformed or too-short artifact; every trial index the run will
            # ask for must already be materialized.
            from repro.fault.dictionary import load_faultload

            faultload = load_faultload(faultload_path)
            if faultload.n_trials < self.spec.n_trials:
                raise ValueError(
                    f"faultload {faultload_path} holds {faultload.n_trials} "
                    f"trials but the experiment runs {self.spec.n_trials}"
                )

    # ------------------------------------------------------------------ #
    def _persist_progress(self, tracker: ProgressTracker) -> None:
        """Refresh the store's persisted completion snapshot (counts only,
        so the persisted state of a finished run is byte-identical across
        backends and interruption histories)."""
        if self.results_path is not None:
            self.store.persist_progress(tracker.snapshot())

    # ------------------------------------------------------------------ #
    def _advance_point(self, index: int) -> None:
        """Decide one adaptive point's fate at a round boundary.

        Called the moment the point's committed records cover its current
        round target ``[0, target)``.  The stop rule reads *that prefix
        only* -- a deterministic function of committed records, so every
        backend, worker count and interruption history makes the same call.
        Either the point stops (CI tight enough, threshold settled, or cap
        reached) or its target grows by one batch, to run next round.
        """
        adaptive = self.spec.adaptive
        target = self._targets[index]
        decision = adaptive.evaluate(self._record_sets[index].aggregate_interim(target))
        if decision.stop or target >= self._caps[index]:
            self._stopped[index] = True
            self._checkpoints[index].close()
            self._tracker.point_completed(index)
            self._persist_progress(self._tracker)
        else:
            new_target = adaptive.next_target(target, self._caps[index])
            self._targets[index] = new_target
            self._tracker.extend_point(index, new_target)

    def run(self) -> ExperimentResult:
        """Run (or resume) every grid point and return the typed result.

        Without an ``adaptive`` policy every point runs its fixed
        ``n_trials`` in one round.  With one, points run in rounds of
        ``adaptive.batch`` trials: at each round boundary the point's
        committed records are aggregated and the point stops early (CI tight
        enough / threshold settled) or tops up by another batch until
        ``adaptive.max_trials`` -- see :meth:`_advance_point`.
        """
        try:
            return self._run()
        finally:
            # Backends holding real resources (a sqlite connection) release
            # them; the store reopens lazily if read again.
            self.store.close()

    def _run(self) -> ExperimentResult:
        expanded = self.spec.expanded()
        self.store.prepare()
        adaptive = self.spec.adaptive

        checkpoints: list[PointStore] = []
        record_sets: list[TrialRecordSet] = []
        needs_header: list[bool] = []
        run_specs = []
        caps: list[int] = []
        targets: list[int] = []
        stopped: list[bool] = []
        for index, (_, campaign_spec) in enumerate(expanded):
            cap = (
                adaptive.resolve_max_trials(campaign_spec.n_trials)
                if adaptive is not None
                else campaign_spec.n_trials
            )
            # The running spec carries the cap (resume guards and headers check
            # it); trial i's seed, SeedSequence(seed, spawn_key=(i,)), ignores
            # the count, so every count is a prefix of the same run.
            run_spec = (
                replace(campaign_spec, n_trials=cap)
                if cap != campaign_spec.n_trials
                else campaign_spec
            )
            checkpoint = self.store.point_store(index, campaign_spec, run_spec)
            loaded = checkpoint.load()
            records = TrialRecordSet(spec=run_spec, records=loaded)
            if adaptive is None:
                target = cap
            else:
                # Resume floor: committed records are never discarded, so the
                # first round boundary must sit at or past the highest loaded
                # index -- a loose target then stops *at* that boundary
                # instead of below it.
                floor = max(loaded) + 1 if loaded else 0
                target = adaptive.first_target(cap)
                while target < floor:
                    target = adaptive.next_target(target, cap)
            checkpoints.append(checkpoint)
            record_sets.append(records)
            needs_header.append(not loaded)
            run_specs.append(run_spec)
            caps.append(cap)
            targets.append(target)
            stopped.append(False)

        tracker = ProgressTracker(
            point_totals=list(targets),
            initial_done=[len(records.records) for records in record_sets],
            listeners=self.progress_listeners,
            label=self.spec.label,
        )
        # Round state the adaptive decision hook reads (self._* so the hook
        # stays testable without threading six parallel lists through it).
        self._checkpoints = checkpoints
        self._record_sets = record_sets
        self._caps = caps
        self._targets = targets
        self._stopped = stopped
        self._tracker = tracker
        tracker.start()
        self._persist_progress(tracker)

        # Sinks open lazily on a point's first record and close as soon as the
        # point completes, so concurrent file descriptors are bounded by the
        # number of in-flight grid points, not the grid size.
        opened: set[int] = set()
        try:
            if adaptive is not None:
                # Points fully resumed to their first round boundary never
                # enter the stream; decide them up front.
                for index in range(len(expanded)):
                    if not stopped[index] and tracker.point_done[index] == targets[index]:
                        self._advance_point(index)
            while True:
                slices = []
                for index, records in enumerate(record_sets):
                    if stopped[index]:
                        continue
                    pending = [
                        i for i in range(targets[index]) if i not in records.records
                    ]
                    if pending:
                        slices.append(
                            TrialSlice(index, run_specs[index].to_dict(), tuple(pending))
                        )
                if not slices:
                    break
                progressed = False
                stream = self.executor.execute(slices)
                try:
                    for point_index, trial, record in stream:
                        # Refresh the worker-pool counts an elastic backend
                        # exposes, so every emitted event carries the current
                        # pool state.
                        tracker.update_pool(self.executor.pool_snapshot())
                        if point_index not in opened:
                            checkpoints[point_index].open(header=needs_header[point_index])
                            opened.add(point_index)
                        # A re-delivered record (e.g. a re-leased batch both
                        # copies of which eventually land) must not inflate
                        # the progress counts.
                        fresh = trial not in record_sets[point_index].records
                        record_sets[point_index].add(trial, record)
                        checkpoints[point_index].append(trial, record)
                        if fresh:
                            progressed = True
                            tracker.trial_done(point_index)
                        if (
                            not stopped[point_index]
                            and tracker.point_done[point_index] == targets[point_index]
                        ):
                            if adaptive is None:
                                stopped[point_index] = True
                                checkpoints[point_index].close()
                                tracker.point_completed(point_index)
                                self._persist_progress(tracker)
                            else:
                                self._advance_point(point_index)
                finally:
                    # Close the executor's generator eagerly so backends
                    # holding real resources (worker subprocesses, server
                    # sockets) release them even when a listener or
                    # checkpoint raised mid-stream.
                    close = getattr(stream, "close", None)
                    if close is not None:
                        close()
                if adaptive is None:
                    break
                if not progressed:
                    # The backend drained without landing a single fresh
                    # trial; rebuilding the identical slices would spin
                    # forever, so surface the stall instead.
                    raise RuntimeError(
                        f"executor {self.executor.name!r} made no progress on "
                        f"{len(slices)} pending slice(s) of an adaptive round"
                    )
        finally:
            # Flush the sinks and persist how far the run actually got, even
            # when a listener or checkpoint raised mid-stream.
            for checkpoint in checkpoints:
                checkpoint.close()
            self._persist_progress(tracker)

        # The run completed: the committed records are the whole truth now,
        # so the store drops its interrupted-run markers (the jsonl layout's
        # progress sidecar, whose presence is what `repro report` uses for
        # "this run never finished").
        self.store.finalize()

        points = []
        for index, (point, campaign_spec) in enumerate(expanded):
            if adaptive is None:
                records = record_sets[index]
                checkpoints[index].write_canonical(records.ordered())
            else:
                # The point's truth is the prefix it stopped at: re-type the
                # records under that count so the canonical file header,
                # completeness and aggregation all agree with what ran.
                final_spec = replace(campaign_spec, n_trials=targets[index])
                records = TrialRecordSet(
                    spec=final_spec,
                    records={
                        i: record_sets[index].records[i]
                        for i in range(targets[index])
                    },
                )
                checkpoints[index].write_canonical(records.ordered())
            points.append(
                PointResult(
                    index=index,
                    point=point,
                    spec=records.spec,
                    records=records,
                    result=records.aggregate(),
                )
            )
        tracker.finish()
        return ExperimentResult(
            spec=self.spec, points=points, executor=self.executor.name
        )


def run_experiment(
    spec: Any,
    executor: str | Executor = "serial",
    n_workers: int = 1,
    results_path: str | Path | None = None,
    store: str | ResultsStore | None = None,
    progress: Callable[[ProgressEvent], None]
    | Sequence[Callable[[ProgressEvent], None]]
    | None = None,
) -> ExperimentResult:
    """Convenience wrapper: build an :class:`ExperimentRunner` and run it."""
    return ExperimentRunner(
        spec,
        executor=executor,
        n_workers=n_workers,
        results_path=results_path,
        store=store,
        progress=progress,
    ).run()
