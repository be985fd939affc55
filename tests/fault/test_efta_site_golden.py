"""Byte goldens for the ``efta_site_resilience`` campaign.

The fixtures under ``goldens/`` are canonical checkpoints captured while the
campaign still had a batched kernel next to its scalar one (both produced
these exact bytes).  They pin the scalar kernel's records -- the default SEU
on ``gemm_qk`` and a faultload replay -- so any change to the random stream
or the fused-kernel arithmetic shows up here.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.exec import ExperimentSpec, run_experiment

GOLDENS = Path(__file__).parent / "goldens"
PARAMS = {"seq_len": 32, "head_dim": 16, "block_size": 16}
SPECS = {
    "efta_site_seu.jsonl": ExperimentSpec(
        campaign="efta_site_resilience",
        n_trials=8,
        seed=5,
        params={**PARAMS, "site": "gemm_qk"},
    ),
    # The artifact path is relative, so the header bytes do not depend on
    # where the repository is checked out; the test runs from GOLDENS.
    "efta_site_replay.jsonl": ExperimentSpec(
        campaign="efta_site_resilience",
        n_trials=8,
        seed=5,
        params=PARAMS,
        faultload="efta_site_faultload.jsonl",
    ),
}


@pytest.mark.parametrize("name", sorted(SPECS))
@pytest.mark.parametrize("executor,n_workers", [("serial", 1), ("process", 2)])
def test_canonical_records_match_golden(name, executor, n_workers, tmp_path, monkeypatch):
    monkeypatch.chdir(GOLDENS)
    out = tmp_path / name
    run_experiment(SPECS[name], executor=executor, n_workers=n_workers, results_path=out)
    assert out.read_bytes() == (GOLDENS / name).read_bytes()
