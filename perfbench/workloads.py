"""The benchmark's workloads: a spec generator, an executor and a store each.

Every spec's root seed is the benchmark's ``--seed``; the program receives
only the generated spec.  Run sizes are fixed here, never derived from the
time budget, so a run's work is the same on every commit.  README.md and
``BENCHMARK.json`` say why each workload was chosen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable


def nproc() -> int:
    """CPUs this process may run on (what ``nproc`` prints)."""
    return len(os.sched_getaffinity(0))


@dataclass(frozen=True)
class Workload:
    name: str
    make_spec: Callable[[int], dict]
    executor: str
    store: str
    #: Whether the executor is a worker pool sized by :func:`nproc`.
    pooled: bool = False

    @property
    def workers(self) -> int:
        return nproc() if self.pooled else 1

    def spec(self, seed: int) -> dict:
        spec = self.make_spec(seed)
        spec["store"] = self.store
        return spec

    def setup_spec(self, seed: int) -> dict:
        """The workload's spec cut to one trial per point, run in one round."""
        spec = self.spec(seed)
        spec["n_trials"] = 1
        spec.pop("adaptive", None)
        return spec

    def results_path(self, directory: str) -> str:
        return os.path.join(directory, "results.db" if self.store == "sqlite" else "results")


def _efta_vs_decoupled(seed: int) -> dict:
    return {
        "campaign": "transformer_inference",
        "name": "efta_vs_decoupled",
        "n_trials": 2048,
        "seed": seed,
        "params": {
            "model": "GPT2",
            "hidden_dim": 32,
            "seq_len": 16,
            "site": ["linear", "gemm_qk", "gemm_pv"],
        },
        "grid": {"scheme": ["efta_unified", "decoupled"]},
    }


def _unprotected(seed: int) -> dict:
    return {
        "campaign": "transformer_inference",
        "name": "unprotected",
        "n_trials": 2000,
        "seed": seed,
        "params": {
            "model": "GPT2",
            "scheme": "none",
            "hidden_dim": 16,
            "seq_len": 8,
            "site": "linear",
        },
    }


def _coverage_adaptive(seed: int) -> dict:
    return {
        "campaign": "abft_error_coverage",
        "name": "coverage_adaptive",
        "n_trials": 64,
        "seed": seed,
        "params": {"rows": 64, "cols": 64, "depth": 32},
        "grid": {
            "scheme": ["tensor", "element"],
            "bit_error_rate": [1e-8, 1e-7, 3e-7, 1e-6],
        },
        # The cap bounds a run at 8 x 1024 trials; most points stop on the
        # CI target well before it, the widest-interval ones at the cap.
        "adaptive": {"target_ci": 0.02, "batch": 64, "max_trials": 1024, "metric": "coverage"},
    }


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "efta_vs_decoupled",
            _efta_vs_decoupled,
            executor="serial",
            store="jsonl",
        ),
        Workload(
            "unprotected_process",
            _unprotected,
            executor="process",
            store="jsonl",
            pooled=True,
        ),
        Workload(
            "unprotected_distributed",
            _unprotected,
            executor="distributed",
            store="jsonl",
            pooled=True,
        ),
        Workload(
            "coverage_adaptive_sqlite",
            _coverage_adaptive,
            executor="serial",
            store="sqlite",
        ),
    )
}
