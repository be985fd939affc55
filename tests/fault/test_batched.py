"""Byte-parity and contract tests for the batched trial kernels.

The batched execution path (``REPRO_TRIAL_BATCH > 1``) must produce JSONL
checkpoints byte-identical to the scalar oracle path for every registered
campaign, on every backend, at every batch size -- the batching is purely an
execution-speed optimisation, never a numerics trade-off.  Campaigns without a
batched kernel still run chunked: their batched path is the per-trial scalar
fallback, whose seeds and faultload trial indices must not shift with the
chunking.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.engine import ExperimentRunner
from repro.exec.spec import ExperimentSpec
from repro.fault.runner import (
    DEFAULT_TRIAL_BATCH,
    TRIAL_BATCH_ENV,
    available_campaigns,
    get_campaign,
    register_campaign,
    register_campaign_batch,
    trial_batch_size,
)


@pytest.fixture(autouse=True)
def _registry_snapshot():
    """Undo test-local register_campaign calls so reruns in one process pass."""
    from repro.fault import runner as runner_module

    runner_module.available_campaigns()
    saved = dict(runner_module._REGISTRY)
    yield
    runner_module._REGISTRY.clear()
    runner_module._REGISTRY.update(saved)


#: Small pinned workloads per campaign: (n_trials, params).  The costing
#: campaigns aggregate a single record and therefore pin n_trials=1.
CASES = {
    "abft_error_coverage": (8, {"bit_error_rate": 1e-6, "rows": 48, "cols": 48, "depth": 24}),
    "abft_detection_sweep": (8, {"thresholds": [0.1, 0.3], "rows": 32, "cols": 32, "depth": 32}),
    "snvr_detection_sweep": (8, {"thresholds": [0.1, 0.3], "rows": 32, "cols": 32, "depth": 32}),
    "restriction_error_distribution": (8, {"method": "selective", "seq_len": 32, "head_dim": 16}),
    "transformer_inference": (8, {"scheme": "none", "hidden_dim": 16, "seq_len": 8}),
    "efta_site_resilience": (4, {"site": "gemm_qk", "seq_len": 32, "head_dim": 16}),
    "attention_cost": (1, {"seq_len": 64}),
    "transformer_cost": (1, {}),
}

#: The only built-in campaigns with a batched kernel: the rest measured no
#: speedup over their scalar kernel and run through the scalar fallback.
BATCHED_CAMPAIGNS = {"abft_error_coverage", "transformer_inference"}

#: A larger transformer workload: the wide ``lm_head`` projection only drifts
#: for rare value patterns, so a handful of trials can miss a real parity bug
#: (a fused 2D GEMM over stacked trials diverged on ~2 of 64 trials).
TRANSFORMER_DEEP = (64, {"scheme": "none"})


def _run_bytes(monkeypatch, tmp_path, campaign, batch, n_trials, params, *, seed=11,
               executor="serial", n_workers=1):
    monkeypatch.setenv(TRIAL_BATCH_ENV, str(batch))
    out = tmp_path / f"{campaign.replace('/', '_')}-b{batch}-{executor}.jsonl"
    spec = ExperimentSpec(campaign=campaign, n_trials=n_trials, params=params, seed=seed)
    ExperimentRunner(spec, executor=executor, n_workers=n_workers, results_path=out).run()
    return out.read_bytes()


def _builtin_campaigns():
    return sorted(
        name
        for name in available_campaigns()
        if get_campaign(name).trial.__module__.startswith("repro.")
    )


class TestByteParityAllCampaigns:
    def test_every_registered_campaign_has_a_case(self):
        # A new built-in campaign must be added to CASES so it gets parity
        # coverage.  Test-local campaigns (other modules register throwaway
        # kernels) are exempt: only kernels defined inside repro count.
        assert sorted(CASES) == _builtin_campaigns()

    def test_only_paying_campaigns_register_a_batch_kernel(self):
        batched = {name for name in _builtin_campaigns() if get_campaign(name).batch}
        assert batched == BATCHED_CAMPAIGNS

    @pytest.mark.parametrize("campaign", sorted(CASES))
    @pytest.mark.parametrize("batch", [3, 7, 16])
    def test_batched_matches_scalar(self, campaign, batch, tmp_path, monkeypatch):
        n_trials, params = CASES[campaign]
        scalar = _run_bytes(monkeypatch, tmp_path, campaign, 1, n_trials, params)
        batched = _run_bytes(monkeypatch, tmp_path, campaign, batch, n_trials, params)
        assert batched == scalar

    def test_transformer_many_trials_nondivisor_batch(self, tmp_path, monkeypatch):
        n_trials, params = TRANSFORMER_DEEP
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, n_trials, params)
        for batch in (3, 16):
            batched = _run_bytes(
                monkeypatch, tmp_path, "transformer_inference", batch, n_trials, params
            )
            assert batched == scalar

    def test_transformer_ber_mode_parity(self, tmp_path, monkeypatch):
        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "bit_error_rate": 1e-7}
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 32, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 16, 32, params)
        assert batched == scalar

    @pytest.mark.parametrize(
        "params",
        [
            # Protected default scheme (efta_unified) on the default linear site.
            {"hidden_dim": 16, "seq_len": 8},
            # Attention fault sites ride each scheme's stacked tile recurrence.
            {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": "gemm_qk"},
            {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": ["linear", "gemm_qk"]},
            {"scheme": "efta", "hidden_dim": 16, "seq_len": 8, "site": "subtract_exp"},
            {"scheme": "efta", "hidden_dim": 16, "seq_len": 8, "site": "reduce_sum"},
            {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8, "site": "gemm_pv"},
            {
                "scheme": "efta_unified",
                "hidden_dim": 16,
                "seq_len": 8,
                "site": ["linear", "gemm_qk", "subtract_exp", "gemm_pv", "normalize"],
            },
            {"scheme": "decoupled", "hidden_dim": 16, "seq_len": 8, "site": "softmax"},
            {
                "scheme": "decoupled",
                "hidden_dim": 16,
                "seq_len": 8,
                "site": ["linear", "gemm_qk", "softmax", "gemm_pv"],
            },
        ],
    )
    def test_transformer_scheme_paths_stay_byte_identical(self, params, tmp_path, monkeypatch):
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 5, 6, params)
        assert batched == scalar

    def test_transformer_protected_many_trials_nondivisor_batch(self, tmp_path, monkeypatch):
        # The protected analogue of the deep scheme-"none" sweep: enough
        # trials to surface rare value patterns in the stacked verification.
        params = {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8}
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 64, params)
        for batch in (3, 16):
            batched = _run_bytes(
                monkeypatch, tmp_path, "transformer_inference", batch, 64, params
            )
            assert batched == scalar

    def test_transformer_protected_ber_mode_parity(self, tmp_path, monkeypatch):
        params = {
            "scheme": "efta_unified",
            "hidden_dim": 16,
            "seq_len": 8,
            "bit_error_rate": 1e-7,
            "site": ["linear", "gemm_pv"],
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 32, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 16, 32, params)
        assert batched == scalar

    def test_transformer_site_list_fast_path(self, tmp_path, monkeypatch):
        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": ["linear"]}
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 8, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 8, 8, params)
        assert batched == scalar

    @pytest.mark.parametrize("executor", ["process", "async"])
    @pytest.mark.parametrize(
        "params",
        [
            CASES["transformer_inference"][1],
            {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8, "site": "gemm_pv"},
        ],
        ids=["none", "efta_unified"],
    )
    def test_executor_backends_match_serial_scalar(self, executor, params, tmp_path, monkeypatch):
        n_trials = CASES["transformer_inference"][0]
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, n_trials, params)
        batched = _run_bytes(
            monkeypatch, tmp_path, "transformer_inference", 3, n_trials, params,
            executor=executor, n_workers=2,
        )
        assert batched == scalar


class TestFaultModelParity:
    """Byte parity must hold for every fault-dictionary model, not just SEU."""

    @pytest.mark.parametrize(
        "model, model_params",
        [
            ("stuck_at_0", {}),
            ("stuck_at_1", {}),
            ("multi_bit_burst", {"burst_len": 3}),
            ("intermittent", {"p": 0.5}),
            ("row_line", {}),
            ("col_line", {}),
            ("ber", {"bit_error_rate": 1e-4}),
        ],
    )
    def test_transformer_fault_models(self, model, model_params, tmp_path, monkeypatch):
        params = {
            "scheme": "efta_unified",
            "hidden_dim": 16,
            "seq_len": 8,
            "fault_model": model,
            "model_params": model_params,
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 5, 6, params)
        assert batched == scalar

    def test_transformer_at_rest_model(self, tmp_path, monkeypatch):
        # The batched kernel declines at-rest models; the scalar fallback must
        # still land byte-identically whatever the configured batch size.
        params = {
            "scheme": "efta",
            "hidden_dim": 16,
            "seq_len": 8,
            "fault_model": "weights_at_rest",
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "transformer_inference", 5, 6, params)
        assert batched == scalar

    @pytest.mark.parametrize("model", ["stuck_at_0", "multi_bit_burst"])
    def test_efta_site_fault_models(self, model, tmp_path, monkeypatch):
        params = {
            "site": "gemm_qk",
            "seq_len": 32,
            "head_dim": 16,
            "fault_model": model,
        }
        scalar = _run_bytes(monkeypatch, tmp_path, "efta_site_resilience", 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, "efta_site_resilience", 4, 6, params)
        assert batched == scalar

    @pytest.mark.parametrize(
        "campaign, params",
        [
            ("transformer_inference", {"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8}),
            ("efta_site_resilience", {"seq_len": 32, "head_dim": 16}),
        ],
    )
    def test_faultload_replay_parity(self, campaign, params, tmp_path, monkeypatch):
        from repro.fault.dictionary import FaultloadGenerator

        site = "linear" if campaign == "transformer_inference" else "gemm_qk"
        fl = tmp_path / "fl.jsonl"
        FaultloadGenerator(
            model="stuck_at_0", n_trials=6, seed=11, site=site
        ).generate().write(fl)
        params = {**params, "faultload": str(fl)}
        scalar = _run_bytes(monkeypatch, tmp_path, campaign, 1, 6, params)
        batched = _run_bytes(monkeypatch, tmp_path, campaign, 4, 6, params)
        assert batched == scalar


class TestBatchedKernelContracts:
    def test_scheme_without_batched_forward_declines_before_consuming_rngs(self):
        # A scheme whose attention kernel has no stacked forward must decline
        # the chunk -- leaving every per-trial generator untouched for the
        # scalar fallback -- rather than crash or consume draws.
        from repro.core import schemes as schemes_module
        from repro.fault.batched import _transformer_inference_batch

        @schemes_module.register_scheme("parity_scalar_only")
        class _ScalarOnly(schemes_module.UnprotectedAttention):
            supports_batched = False

        try:
            rngs = [np.random.default_rng(i) for i in range(3)]
            states = [rng.bit_generator.state for rng in rngs]
            params = {"scheme": "parity_scalar_only", "hidden_dim": 16, "seq_len": 8}
            assert _transformer_inference_batch(rngs, params) is None
            assert [rng.bit_generator.state for rng in rngs] == states
        finally:
            schemes_module._SCHEMES.pop("parity_scalar_only", None)

    def test_transformer_batch_rejects_unavailable_site_like_scalar(self):
        from repro.fault.batched import _transformer_inference_batch

        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": "softmax"}
        with pytest.raises(ValueError, match="never execute"):
            get_campaign("transformer_inference").trial(np.random.default_rng(0), dict(params))
        with pytest.raises(ValueError, match="never execute"):
            _transformer_inference_batch([np.random.default_rng(0)], dict(params))

    def test_run_batch_length_mismatch_raises(self):
        @register_campaign("parity_len_mismatch")
        def _trial(rng, params):
            return {"x": float(rng.standard_normal())}

        @register_campaign_batch("parity_len_mismatch")
        def _batch(rngs, params):
            return [{"x": 0.0}]  # always one record, regardless of len(rngs)

        definition = get_campaign("parity_len_mismatch")
        rngs = [np.random.default_rng(i) for i in range(3)]
        with pytest.raises(RuntimeError, match="3 trials"):
            definition.run_batch(rngs, "{}")

    def test_run_batch_none_falls_back_to_scalar_loop(self):
        calls = {"batch": 0}

        @register_campaign("parity_decline")
        def _trial(rng, params):
            return {"x": float(rng.standard_normal())}

        @register_campaign_batch("parity_decline")
        def _batch(rngs, params):
            calls["batch"] += 1
            return None

        definition = get_campaign("parity_decline")
        rngs = [np.random.default_rng(i) for i in range(3)]
        expected = [{"x": float(np.random.default_rng(i).standard_normal())} for i in range(3)]
        assert definition.run_batch(rngs, "{}") == expected
        assert calls["batch"] == 1

    def test_single_trial_skips_batch_kernel(self):
        @register_campaign("parity_single")
        def _trial(rng, params):
            return {"x": float(rng.standard_normal())}

        @register_campaign_batch("parity_single")
        def _batch(rngs, params):  # pragma: no cover - must never run
            raise AssertionError("batch kernel must not be called for one trial")

        definition = get_campaign("parity_single")
        assert definition.run_batch([np.random.default_rng(0)], "{}") == [
            {"x": float(np.random.default_rng(0).standard_normal())}
        ]

    def test_register_batch_requires_scalar_kernel(self):
        with pytest.raises(ValueError, match="not registered"):
            register_campaign_batch("no_such_campaign")(lambda rngs, params: None)

    def test_register_batch_rejects_duplicates(self):
        @register_campaign("parity_dupe")
        def _trial(rng, params):
            return {}

        register_campaign_batch("parity_dupe")(lambda rngs, params: None)
        with pytest.raises(ValueError, match="already has a batched kernel"):
            register_campaign_batch("parity_dupe")(lambda rngs, params: None)


class TestTrialBatchSize:
    def test_default(self, monkeypatch):
        monkeypatch.delenv(TRIAL_BATCH_ENV, raising=False)
        assert trial_batch_size() == DEFAULT_TRIAL_BATCH

    def test_empty_means_default(self, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, "")
        assert trial_batch_size() == DEFAULT_TRIAL_BATCH

    def test_explicit_value(self, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, "5")
        assert trial_batch_size() == 5

    @pytest.mark.parametrize("bad", ["zero", "0", "-3", "2.5"])
    def test_invalid_values_raise(self, bad, monkeypatch):
        monkeypatch.setenv(TRIAL_BATCH_ENV, bad)
        with pytest.raises(ValueError, match=TRIAL_BATCH_ENV):
            trial_batch_size()
