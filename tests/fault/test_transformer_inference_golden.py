"""Byte goldens for the protected ``transformer_inference`` campaign.

The fixtures under ``goldens/`` are canonical checkpoints of the GPT2
campaign (``hidden_dim`` 32, ``seq_len`` 16, one SEU per trial over the
linear and both attention GEMM sites) under the ``decoupled`` and
``efta_unified`` schemes.  They were captured while
``verify_strided_checksums`` still repaired non-finite values one element
at a time, and they pin the records of the vectorised verify that replaced
that loop.

The spec is sized so that both non-finite branches of the strided verify
run: a ``decoupled`` trial whose activations go non-finite sends whole
non-finite matrices through the later linear layers (stride classes with
two or more non-finite values, all uncorrectable), and ``efta_unified``
trials repair lone non-finite values from the class checksum.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

import repro.core.strided_abft as strided_abft
import repro.gemm.checksum as checksum
import repro.transformer.layers as layers
from repro.exec import ExperimentSpec, run_experiment
from repro.fault.runner import TRIAL_BATCH_ENV

GOLDENS = Path(__file__).parent / "goldens"
SCHEMES = ("decoupled", "efta_unified")


def _spec(scheme: str) -> ExperimentSpec:
    return ExperimentSpec(
        campaign="transformer_inference",
        n_trials=64,
        seed=1,
        params={
            "model": "GPT2",
            "hidden_dim": 32,
            "seq_len": 16,
            "site": ["linear", "gemm_qk", "gemm_pv"],
            "scheme": scheme,
        },
    )


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("batch", ["1", "16"])
@pytest.mark.parametrize("executor,n_workers", [("serial", 1), ("process", 2)])
def test_canonical_records_match_golden(scheme, batch, executor, n_workers, tmp_path, monkeypatch):
    monkeypatch.setenv(TRIAL_BATCH_ENV, batch)
    name = f"transformer_inference_{scheme}.jsonl"
    out = tmp_path / name
    run_experiment(_spec(scheme), executor=executor, n_workers=n_workers, results_path=out)
    assert out.read_bytes() == (GOLDENS / name).read_bytes()


def _class_nonfinite_counts(s: np.ndarray, stride: int) -> np.ndarray:
    """Non-finite elements per (row, stride class) of ``s`` (..., rows, cols)."""
    mask = ~np.isfinite(np.asarray(s))
    pad = -mask.shape[-1] % stride
    mask = np.concatenate([mask, np.zeros(mask.shape[:-1] + (pad,), dtype=bool)], axis=-1)
    return mask.reshape(mask.shape[:-1] + (-1, stride)).sum(axis=-2)


@pytest.mark.parametrize("scheme", SCHEMES)
def test_golden_exercises_both_nonfinite_branches(scheme, tmp_path, monkeypatch):
    """Each fixture's run reaches the non-finite branch its scheme is there for."""
    seen = {"lone": 0, "multi": 0}

    def spy(fn):
        def verify(s, *args, stride=8, **kwargs):
            per_class = _class_nonfinite_counts(s, stride)
            seen["lone"] += int((per_class == 1).sum())
            seen["multi"] += int((per_class >= 2).sum())
            return fn(s, *args, stride=stride, **kwargs)

        return verify

    for module in (checksum, strided_abft, layers):
        for attr in ("verify_strided_checksums", "verify_strided_checksums_stacked"):
            if hasattr(module, attr):
                monkeypatch.setattr(module, attr, spy(getattr(checksum, attr)))
    run_experiment(_spec(scheme), executor="serial", results_path=tmp_path / "out.jsonl")
    assert seen["lone"] > 0
    if scheme == "decoupled":
        assert seen["multi"] > 0
