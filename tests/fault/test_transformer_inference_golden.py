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

The remaining fixtures pin every other route through the kernel.  They were
captured while the scalar kernel, the stacked forward and the unprotected
flash fast path were still separate implementations, all producing these
bytes, and are now the parity oracle of the one stacked forward:

* ``none_linear`` -- scheme ``none`` with linear faults only, the case the
  unprotected attention answers with the vectorised flash recurrence;
* ``none_attention`` -- scheme ``none`` with faults at attention sites, which
  must run the tile loop that offers every intermediate to the injectors;
* ``efta`` -- per-iteration verification, the scheme with no other
  transformer golden;
* ``efta_unified_ber`` -- Poisson multi-fault trials (``bit_error_rate``);
* ``weights_at_rest`` -- stored-weight corruption, the per-trial at-rest path;
* ``none_replay`` -- a faultload replay of a persistent (stuck-at) fault at an
  attention site, which keeps its injector armed for the whole forward.
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
MODEL = {"model": "GPT2", "hidden_dim": 32, "seq_len": 16}
SITES = ["linear", "gemm_qk", "gemm_pv"]


def _spec(scheme: str, n_trials: int = 64, faultload: str = "", **params) -> ExperimentSpec:
    return ExperimentSpec(
        campaign="transformer_inference",
        n_trials=n_trials,
        seed=1,
        params={**MODEL, "scheme": scheme, **params},
        faultload=faultload,
    )


CASES = {
    "decoupled": _spec("decoupled", site=SITES),
    "efta_unified": _spec("efta_unified", site=SITES),
    "efta": _spec("efta", site=SITES),
    "none_linear": _spec("none", site="linear"),
    "none_attention": _spec("none", site=["gemm_qk", "subtract_exp", "gemm_pv"]),
    "efta_unified_ber": _spec("efta_unified", n_trials=32, site=SITES, bit_error_rate=3e-8),
    "weights_at_rest": _spec("efta_unified", n_trials=32, fault_model="weights_at_rest"),
    # The artifact path is relative, so the header bytes do not depend on
    # where the repository is checked out; the test runs from GOLDENS.
    "none_replay": _spec("none", n_trials=8, faultload="efta_site_faultload.jsonl"),
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("batch", ["1", "16"])
@pytest.mark.parametrize("executor,n_workers", [("serial", 1), ("process", 2)])
def test_canonical_records_match_golden(case, batch, executor, n_workers, tmp_path, monkeypatch):
    monkeypatch.setenv(TRIAL_BATCH_ENV, batch)
    monkeypatch.chdir(GOLDENS)
    name = f"transformer_inference_{case}.jsonl"
    out = tmp_path / name
    run_experiment(CASES[case], executor=executor, n_workers=n_workers, results_path=out)
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
    run_experiment(CASES[scheme], executor="serial", results_path=tmp_path / "out.jsonl")
    assert seen["lone"] > 0
    if scheme == "decoupled":
        assert seen["multi"] > 0
