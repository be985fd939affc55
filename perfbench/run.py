"""The repository benchmark: campaign throughput per backend and store.

Run from the repository root::

    python3 perfbench/run.py --workload efta_vs_decoupled --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload efta_vs_decoupled --seed 1 --seconds 20 --trace 1

One invocation runs one workload (see ``workloads.py``) through the public
``repro.exec`` API, the way ``repro run`` does, checks the records against
the scalar oracle and against each other, and prints human-readable lines
followed by one JSON result line.  ``--trace 0`` gives the end-to-end
metrics, ``--trace 1`` the per-layer metrics of a separate traced run.
README.md documents both.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metrics (``--trace 0``) and their units.
END_TO_END_METRICS = {
    "trials_per_s": "1/s",
    "cpu_ms_per_trial": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Fresh-interpreter set-up samples per invocation; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Leading trials of every point checked against the scalar oracle.
ORACLE_PREFIX = 32
#: Read passes follow every timed run for this share of the run's wall time.
READ_SHARE = 0.15

#: Thread-count variables of the BLAS builds numpy ships with.
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


# --------------------------------------------------------------------------- #
# Host facts and resource accounting
# --------------------------------------------------------------------------- #
def host_facts() -> dict:
    import numpy as np

    from workloads import nproc

    try:
        config = np.show_config(mode="dicts")
        info = config["Build Dependencies"]["blas"]
        blas = {key: info.get(key) for key in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError, AttributeError):
        blas = {"name": "unknown"}
    return {
        "nproc": nproc(),
        "blas": blas,
        "blas_threads_env": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "numpy": np.__version__,
        "python": platform.python_version(),
        "machine": platform.machine(),
    }


def cpu_seconds() -> tuple[float, float]:
    """(this process, reaped children) user+system CPU seconds."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime, children.ru_utime + children.ru_stime


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def tree_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


# --------------------------------------------------------------------------- #
# Runs and their correctness checks
# --------------------------------------------------------------------------- #
class Checker:
    """Counts attempted and failed trials across every run of one invocation.

    A trial fails when its run raised, when it was never committed, or when
    its canonical record bytes differ from the reference: the scalar oracle
    on a prefix of every point, the one-shot run of an adaptive stop, and
    the first run of this invocation for every later run (one seed, one
    spec, so the bytes must repeat).
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []
        self.reference: list[list[bytes]] | None = None
        self.reference_result = None

    def fail(self, count: int, note: str) -> None:
        if count:
            self.failed += count
            self.notes.append(note)

    def check_run(self, result, path: str) -> list[list[bytes]]:
        """Check one finished run's store; returns its per-point record lines."""
        from repro.store import open_store

        store = open_store(path)
        try:
            view = store.load_view()
            lines = []
            for index, point in enumerate(view.points):
                expected = result.points[index].spec.n_trials
                self.attempted += expected
                missing = expected - point.n_done
                self.fail(missing, f"point {index}: {missing} trials not committed")
                lines.append(store.export_canonical(index).splitlines()[1:])
        finally:
            store.close()
        if self.reference is None:
            self.reference = lines
            self.reference_result = result
        else:
            for index, (got, want) in enumerate(zip(lines, self.reference)):
                differ = sum(a != b for a, b in zip(got, want)) + abs(len(got) - len(want))
                self.fail(differ, f"point {index}: {differ} records differ from the first run")
        return lines

    def compare(self, lines: list[list[bytes]], oracle: list[list[bytes]], what: str) -> None:
        for index, (got, want) in enumerate(zip(lines, oracle)):
            differ = sum(a != b for a, b in zip(got[: len(want)], want))
            differ += max(0, len(want) - len(got))
            self.fail(differ, f"point {index}: {differ} records differ from the {what}")


def record_lines(spec_dict: dict, records: dict) -> list[bytes]:
    from repro.store import canonical_record_bytes

    return canonical_record_bytes(spec_dict, records).splitlines()[1:]


def scalar_oracle(spec: dict) -> list[list[bytes]]:
    """Record lines of the first trials of every point on the scalar path.

    ``REPRO_TRIAL_BATCH=1`` forces every trial through the per-trial kernel,
    serially and without a store.  Seeds are prefix-stable, so these are the
    first records of any longer run of the same spec.
    """
    from repro.exec import run_experiment
    from repro.fault.runner import TRIAL_BATCH_ENV

    oracle_spec = dict(spec, n_trials=ORACLE_PREFIX)
    oracle_spec.pop("adaptive", None)
    oracle_spec.pop("store", None)
    previous = os.environ.get(TRIAL_BATCH_ENV)
    os.environ[TRIAL_BATCH_ENV] = "1"
    try:
        result = run_experiment(oracle_spec)
    finally:
        if previous is None:
            del os.environ[TRIAL_BATCH_ENV]
        else:
            os.environ[TRIAL_BATCH_ENV] = previous
    return [record_lines(p.spec.to_dict(), p.records.records) for p in result.points]


def one_shot(spec: dict, result) -> list[list[bytes]]:
    """Record lines of a fixed-count run of each point at its adaptive stop."""
    from repro.exec import run_experiment

    lines = []
    for point in result.points:
        single = {
            "campaign": spec["campaign"],
            "n_trials": point.spec.n_trials,
            "seed": spec["seed"],
            "params": dict(point.spec.params),
        }
        shot = run_experiment(single)
        lines.append(record_lines(point.spec.to_dict(), shot.points[0].records.records))
    return lines


def run_once(workload, spec: dict, directory: Path):
    """One run of the workload into a fresh results path; returns its measures."""
    from repro.exec import run_experiment

    if directory.exists():
        shutil.rmtree(directory)
    directory.mkdir(parents=True)
    path = workload.results_path(str(directory))
    own0, children0 = cpu_seconds()
    start = perf_counter()
    result = run_experiment(
        spec, executor=workload.executor, n_workers=workload.workers, results_path=path
    )
    end = perf_counter()
    own1, children1 = cpu_seconds()
    committed = sum(len(point.records.records) for point in result.points)
    return {
        "result": result,
        "path": path,
        "committed": committed,
        "window": (start, end),
        "wall": end - start,
        "cpu": (own1 - own0) + (children1 - children0),
        "worker_cpu_s": children1 - children0,
    }


def read_pass(path: str) -> tuple[int, float]:
    """The ``repro report`` / ``repro query`` read over a finished store.

    Opens the store, loads its view, streams every record and folds each
    point through its campaign's aggregator.
    """
    from repro.fault.runner import get_campaign
    from repro.store import open_store

    start = perf_counter()
    store = open_store(path)
    try:
        view = store.load_view()
        expanded = view.spec.expanded()
        aggregate = get_campaign(view.spec.campaign).aggregate
        per_point: dict[int, list] = {}
        n = 0
        for point, _trial, record in store.iter_records():
            per_point.setdefault(point, []).append(record)
            n += 1
        for point, records in per_point.items():
            aggregate(records, dict(expanded[point][1].params))
    finally:
        store.close()
    return n, perf_counter() - start


def read_rates(path: str, seconds: float) -> list[float]:
    """Records/s of read passes repeated for ``seconds`` (at least one pass)."""
    rates = []
    deadline = perf_counter() + seconds
    while not rates or perf_counter() < deadline:
        n, elapsed = read_pass(path)
        rates.append(n / elapsed)
    return rates


def setup_samples(workload, seed: int, scratch: Path) -> list[float]:
    samples = []
    for k in range(SETUP_SAMPLES):
        directory = scratch / f"setup{k}"
        directory.mkdir()
        completed = subprocess.run(
            [
                sys.executable,
                str(HERE / "setup_probe.py"),
                "--workload",
                workload.name,
                "--seed",
                str(seed),
                "--dir",
                str(directory),
            ],
            stdout=subprocess.PIPE,
            text=True,
            timeout=120,
        )
        if completed.returncode != 0:
            raise RuntimeError(f"set-up probe exited with {completed.returncode}")
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return samples


# --------------------------------------------------------------------------- #
# Modes
# --------------------------------------------------------------------------- #
def attempt(workload, spec: dict, directory: Path, checker: Checker):
    """:func:`run_once` plus its checks.

    A raising run counts all the reference run's trials as failed; the
    first run has no reference, so its exception ends the invocation.
    """
    try:
        run = run_once(workload, spec, directory)
    except Exception:
        if checker.reference is None:
            raise
        traceback.print_exc()
        attempted = sum(len(lines) for lines in checker.reference)
        checker.attempted += attempted
        checker.fail(attempted, "a run raised")
        return None
    checker.check_run(run["result"], run["path"])
    # Only the first run's result is kept (by the checker): holding every
    # run's records would grow the peak RSS the benchmark reports.
    del run["result"]
    return run


def repeat(seconds: float, once, minimum: int = 1) -> list:
    """Call ``once(index)`` while the next call should end within ``seconds``."""
    deadline = perf_counter() + seconds
    results = []
    while True:
        start = perf_counter()
        results.append(once(len(results)))
        now = perf_counter()
        if len(results) >= minimum and now + (now - start) > deadline:
            return results


def check_reference(spec: dict, checker: Checker) -> None:
    """Check the first run against the scalar oracle (and, when adaptive, the
    one-shot run of its stops), and print its per-point rates."""
    result = checker.reference_result
    checker.compare(checker.reference, scalar_oracle(spec), "scalar oracle")
    if "adaptive" in spec:
        checker.compare(checker.reference, one_shot(spec, result), "one-shot run")
    for point in result.points:
        aggregate = point.result
        print(
            f"point {point.index} {json.dumps(point.point, sort_keys=True)}: "
            f"trials={aggregate.n_trials} detection_rate={aggregate.detection_rate:.4f} "
            f"coverage={aggregate.coverage:.4f}"
        )


def end_to_end(workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, Checker]:
    """Untraced runs for ``seconds``; medians over runs.

    An untimed one-trial-per-point run first loads imports, the campaign
    registry and the transformer fixtures, which ``setup_s`` measures on
    its own.  Read passes follow every run, so they sample the same stretch
    of time as the runs.
    """
    from repro.exec import run_experiment

    spec = workload.spec(seed)
    checker = Checker()
    setup = setup_samples(workload, seed, scratch)
    run_experiment(workload.setup_spec(seed), executor=workload.executor, n_workers=workload.workers)
    reads: list[float] = []

    def once(index):
        run = attempt(workload, spec, scratch / "run", checker)
        if run is not None:
            reads.extend(read_rates(run["path"], READ_SHARE * run["wall"]))
        return run

    runs = [run for run in repeat(seconds, once) if run is not None]
    check_reference(spec, checker)
    metrics = {
        "trials_per_s": median(r["committed"] / r["wall"] for r in runs),
        "cpu_ms_per_trial": median(1000.0 * r["cpu"] / r["committed"] for r in runs),
        "setup_s": median(setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    print(f"timed runs: {len(runs)}; read passes: {len(reads)}; set-up samples (s): {setup}")
    # Printed, not declared: on a shared host it spreads more from run to
    # run than any bound the benchmark may set (see README.md).
    print(f"read_records_per_s: {median(reads)} 1/s")
    return {name: (metrics[name], END_TO_END_METRICS[name]) for name in END_TO_END_METRICS}, checker


def per_layer(workload, seed: int, seconds: float, scratch: Path) -> tuple[dict, Checker]:
    """Untraced and traced runs alternating for ``seconds`` (two pairs at least).

    Alternating makes the two sets share the machine's state, so the
    traced/untraced wall ratio is the tracing overhead.
    """
    import layers
    from repro.exec import run_experiment
    from repro.fault import campaign
    from spans import Tracer

    spec = workload.spec(seed)
    checker = Checker()
    tracer = Tracer()
    layers.install(tracer)
    traced, untraced_walls = [], []
    try:
        # A cold one-trial-per-point run, traced, is the only one that
        # builds transformer fixtures in this process.
        campaign._TRANSFORMER_FIXTURES.clear()
        tracer.start()
        run_experiment(workload.setup_spec(seed), executor=workload.executor, n_workers=workload.workers)
        tracer.stop()
        setup_run = tracer.take()

        def once(index):
            is_traced = index % 2 == 1
            if is_traced:
                tracer.start()
            try:
                run = attempt(workload, spec, scratch / "run", checker)
            finally:
                tracer.stop()
            recorded = tracer.take()
            if run is None:
                return
            if not is_traced:
                untraced_walls.append(run["wall"])
                return
            run.update(recorded)
            run["bytes_per_trial"] = tree_bytes(scratch / "run") / run["committed"]
            run["read_s"] = read_pass(run["path"])[1]
            traced.append(run)

        repeat(seconds, once, minimum=4)
    finally:
        tracer.uninstall()
    check_reference(spec, checker)
    values = layers.per_layer_metrics(
        traced, setup_run, untraced_walls, [run["wall"] for run in traced]
    )
    print(
        f"traced runs: {len(traced)}, wall (s) {[run['wall'] for run in traced]}; "
        f"untraced runs: {len(untraced_walls)}, wall (s) {untraced_walls}"
    )
    return {
        name: (values[name], unit) for name, unit in layers.PER_LAYER_METRICS.items()
    }, checker


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    if args.seed < 0:
        print("--seed must be non-negative", file=sys.stderr)
        return 2

    print(f"host: {json.dumps(host_facts(), sort_keys=True)}")
    work = ROOT / ".perfbench_work"
    work.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload.name}-", dir=work))
    try:
        mode = per_layer if args.trace else end_to_end
        metrics, checker = mode(workload, args.seed, args.seconds, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for note in checker.notes:
        print(f"FAILED: {note}")
    failed_frac = checker.failed / checker.attempted
    print(f"failed_frac: {failed_frac} ({checker.failed} of {checker.attempted} trials)")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value} {unit}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
