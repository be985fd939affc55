"""Tests of the benchmark itself (not collected by the repository's tier-1 run).

Run from the repository root::

    python3 -m pytest perfbench/check_bench.py -q
"""

from __future__ import annotations

import json
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer, layer_totals, root_coverage, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


# --------------------------------------------------------------------------- #
# Self-time arithmetic
# --------------------------------------------------------------------------- #
def test_self_time_on_a_synthetic_nested_trace():
    # engine [0, 10]
    #   wait [1, 7]
    #     kernel [2, 6]
    #       matmul [2.5, 3.5]
    #       matmul [4, 5]
    #   store [8, 9]
    spans = [
        ["engine", 0.0, 10.0, -1],
        ["wait", 1.0, 7.0, 0],
        ["kernel", 2.0, 6.0, 1],
        ["matmul", 2.5, 3.5, 2],
        ["matmul", 4.0, 5.0, 2],
        ["store", 8.0, 9.0, 0],
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 2.0, 1.0, 1.0, 1.0])
    totals = layer_totals(spans)
    assert totals["matmul"] == {"calls": 2, "s": pytest.approx(2.0), "self_s": pytest.approx(2.0)}
    assert totals["engine"]["s"] == pytest.approx(10.0)
    assert totals["engine"]["self_s"] == pytest.approx(3.0)
    # The self times of a complete tree add up to the root's duration.
    assert sum(self_times(spans)) == pytest.approx(10.0)


def test_reentered_layer_counts_its_outermost_span_once():
    spans = [
        ["attention", 0.0, 4.0, -1],
        ["attention", 1.0, 3.0, 0],
        ["matmul", 1.5, 2.0, 1],
    ]
    totals = layer_totals(spans)
    assert totals["attention"]["calls"] == 1
    assert totals["attention"]["s"] == pytest.approx(4.0)
    assert totals["attention"]["self_s"] == pytest.approx(3.5)


def test_overlapping_children_are_covered_once():
    spans = [["root", 0.0, 10.0, -1], ["a", 1.0, 5.0, 0], ["b", 4.0, 6.0, 0]]
    assert self_times(spans)[0] == pytest.approx(5.0)


def test_root_coverage_leaves_gaps_unattributed():
    spans = [["a", 1.0, 3.0, -1], ["b", 2.0, 4.0, -1], ["c", 6.0, 20.0, -1]]
    assert root_coverage(spans, 0.0, 10.0) == pytest.approx(3.0 + 4.0)


# --------------------------------------------------------------------------- #
# Wrapping is transparent
# --------------------------------------------------------------------------- #
def _canonical_bytes(spec, tmp_path, executor="serial", store="jsonl"):
    from repro.exec import run_experiment
    from repro.store import open_store

    path = tmp_path / ("results.db" if store == "sqlite" else "results")
    run_experiment(dict(spec, store=store), executor=executor, n_workers=2, results_path=str(path))
    handle = open_store(path)
    try:
        return [handle.export_canonical(i) for i in range(len(handle.load_view().points))]
    finally:
        handle.close()


SMALL_SPECS = {
    "efta": {
        "campaign": "transformer_inference",
        "n_trials": 20,
        "seed": 3,
        "params": {"hidden_dim": 16, "seq_len": 8, "site": ["linear", "gemm_qk", "gemm_pv"]},
        "grid": {"scheme": ["efta_unified", "decoupled"]},
    },
    "coverage": {
        "campaign": "abft_error_coverage",
        "n_trials": 8,
        "seed": 3,
        "params": {"rows": 32, "cols": 32, "depth": 16},
        "grid": {"scheme": ["tensor", "element"], "bit_error_rate": [1e-7]},
        "adaptive": {"target_ci": 0.05, "batch": 8, "max_trials": 24, "metric": "coverage"},
    },
}


@pytest.mark.parametrize("name,store", [("efta", "jsonl"), ("coverage", "sqlite")])
def test_traced_and_untraced_runs_give_identical_bytes(name, store, tmp_path):
    import repro.fp.float16 as float16

    spec = SMALL_SPECS[name]
    original = float16.fp16_matmul
    untraced = _canonical_bytes(spec, tmp_path / "untraced", store=store)
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.start()
        traced = _canonical_bytes(spec, tmp_path / "traced", store=store)
        tracer.stop()
    finally:
        tracer.uninstall()
    assert traced == untraced
    totals = layer_totals(tracer.spans)
    for layer in (
        "exec.engine",
        "exec.executor.wait",
        "fault.kernel",
        "fp.matmul",
        "gemm.verify",
        "store.append",
    ):
        assert totals[layer]["calls"] > 0, layer
    # Uninstalling restores every binding.
    assert float16.fp16_matmul is original
    import repro.fault.batched as batched

    assert batched.fp16_matmul is original


def test_pool_workers_record_nothing(tmp_path):
    spec = {
        "campaign": "transformer_inference",
        "n_trials": 16,
        "seed": 5,
        "params": {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": "linear"},
    }
    untraced = _canonical_bytes(spec, tmp_path / "untraced", executor="process")
    tracer = Tracer()
    layers.install(tracer)
    try:
        tracer.start()
        traced = _canonical_bytes(spec, tmp_path / "traced", executor="process")
        tracer.stop()
    finally:
        tracer.uninstall()
    assert traced == untraced
    totals = layer_totals(tracer.spans)
    assert "fault.kernel" not in totals  # kernels ran in the forked workers
    assert totals["store.append"]["calls"] == 16


# --------------------------------------------------------------------------- #
# Declared metrics are emitted, with units
# --------------------------------------------------------------------------- #
def test_benchmark_json_matches_the_emitted_metrics():
    declared = _benchmark_json()
    assert {w["name"] for w in declared["workloads"]} == set(WORKLOADS)
    assert {m["name"]: m["unit"] for m in declared["end_to_end"]} == run.END_TO_END_METRICS
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == layers.PER_LAYER_METRICS
    for section in ("workloads", "end_to_end", "per_layer"):
        for entry in declared[section]:
            assert NAME_RE.fullmatch(entry["name"]), entry["name"]
            assert len(entry["name"]) <= 64
    for entry in declared["end_to_end"] + declared["per_layer"]:
        assert re.fullmatch(r"[A-Za-z0-9_/%.-]{1,16}", entry["unit"]), entry["unit"]


def test_per_layer_metrics_emits_every_declared_name():
    tracer_run = {
        "spans": [["exec.engine", 0.0, 1.0, -1], ["fp.matmul", 0.2, 0.4, 0]],
        "counters": {"fp.matmul.flops": 10},
        "samples": {"store.append": [1e-5, 2e-5]},
        "window": (0.0, 1.0),
        "worker_cpu_s": 0.0,
        "bytes_per_trial": 100.0,
        "read_s": 0.01,
    }
    setup_run = {"spans": [], "counters": {}, "samples": {}}
    values = layers.per_layer_metrics([tracer_run], setup_run, [1.0], [1.1])
    assert list(values) == list(layers.PER_LAYER_METRICS)
    assert values["trace.overhead_pct"] == pytest.approx(10.0)
    assert values["fp.matmul.s"] == pytest.approx(0.2)
    assert values["exec.engine.self_s"] == pytest.approx(0.8)


def test_specs_come_from_the_seed():
    for workload in WORKLOADS.values():
        assert workload.spec(7) == workload.spec(7)
        assert workload.spec(7)["seed"] == 7
        assert workload.spec(8)["seed"] == 8
        assert workload.setup_spec(7)["n_trials"] == 1
        assert "adaptive" not in workload.setup_spec(7)
