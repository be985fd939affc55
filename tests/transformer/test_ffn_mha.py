"""Tests for the protected feed-forward and multi-head attention modules.

Both layers run over a leading trial axis with one router and one report per
trial; a single forward is the one-trial stack.
"""

import numpy as np
import pytest

from repro.attention.standard import standard_attention
from repro.attention.tiling import merge_heads, split_heads
from repro.core.config import FaultToleranceReport
from repro.fault.injector import FaultInjector, FaultRouter
from repro.fault.models import FaultSite
from repro.transformer.ffn import FeedForward
from repro.transformer.layers import relu
from repro.transformer.mha import MultiHeadAttention


def _run(layer, x, injector=None, **kwargs):
    """One-trial call: ``(out, report)`` of ``layer`` on ``x`` without a trial axis."""
    report = FaultToleranceReport()
    out = layer(x[None], FaultRouter.for_trial(injector), [report], **kwargs)
    return out[0], report


class TestFeedForward:
    def test_output_shape(self, rng):
        ffn = FeedForward(16, 64, rng)
        x = rng.standard_normal((3, 2, 5, 16)).astype(np.float32)
        reports = [FaultToleranceReport() for _ in range(3)]
        assert ffn(x, FaultRouter([]), reports).shape == (3, 2, 5, 16)

    def test_clean_run_reports_nothing(self, rng):
        ffn = FeedForward(16, 64, rng)
        _, report = _run(ffn, rng.standard_normal((2, 4, 16)).astype(np.float32))
        assert report.clean

    def test_custom_activation(self, rng):
        ffn = FeedForward(8, 16, rng, activation=relu)
        out, _ = _run(ffn, rng.standard_normal((1, 3, 8)).astype(np.float32))
        assert np.all(np.isfinite(out))

    def test_linear_fault_detected(self, rng):
        ffn = FeedForward(16, 64, rng)
        x = rng.standard_normal((2, 4, 16)).astype(np.float32)
        clean, _ = _run(ffn, x)
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=1, bit=13, dtype="fp16")
        faulty, report = _run(ffn, x, injector)
        assert report.detected_any
        np.testing.assert_allclose(faulty, clean, rtol=5e-2, atol=5e-2)

    def test_activation_restriction_clamps_extremes(self, rng):
        ffn = FeedForward(8, 16, rng, activation_bound=1.0)
        _, report = _run(ffn, 100.0 * np.ones((1, 2, 8), dtype=np.float32))
        assert report.restorations["ffn_activation"] > 0

    def test_restriction_counts_land_per_trial(self, rng):
        ffn = FeedForward(8, 16, rng, activation_bound=1.0)
        x = np.stack([np.zeros((1, 2, 8)), 100.0 * np.ones((1, 2, 8))]).astype(np.float32)
        reports = [FaultToleranceReport(), FaultToleranceReport()]
        ffn(x, FaultRouter([]), reports)
        assert reports[0].clean
        assert reports[1].restorations["ffn_activation"] > 0

    def test_unprotected_mode_skips_restriction(self, rng):
        ffn = FeedForward(8, 16, rng, activation_bound=1.0)
        _, report = _run(ffn, 100.0 * np.ones((1, 2, 8), dtype=np.float32), protected=False)
        assert report.clean


class TestMultiHeadAttention:
    def test_matches_reference_attention(self, rng):
        mha = MultiHeadAttention(hidden_dim=32, num_heads=4, seq_len=24, rng=rng, attention_block_size=8)
        x = rng.standard_normal((2, 24, 32)).astype(np.float32)
        out, _ = _run(mha, x)
        # Reference: same projections, exact attention, same output projection.
        router = FaultRouter([])
        q = split_heads(mha.q_proj(x[None], router)[0][0], 4)
        k = split_heads(mha.k_proj(x[None], router)[0][0], 4)
        v = split_heads(mha.v_proj(x[None], router)[0][0], 4)
        expected, _ = mha.out_proj(merge_heads(standard_attention(q, k, v))[None], router)
        np.testing.assert_allclose(out, expected[0], rtol=2e-2, atol=2e-2)

    def test_protected_and_unprotected_agree(self, rng):
        def build(scheme):
            return MultiHeadAttention(
                hidden_dim=16,
                num_heads=2,
                seq_len=16,
                rng=np.random.default_rng(0),
                attention_block_size=8,
                scheme=scheme,
            )

        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        protected = build("efta_unified")
        unprotected = build("none")
        np.testing.assert_array_equal(protected.q_proj.weight, unprotected.q_proj.weight)
        np.testing.assert_allclose(_run(protected, x)[0], _run(unprotected, x)[0], rtol=2e-2, atol=2e-2)

    def test_report_aggregates_attention_events(self, rng):
        mha = MultiHeadAttention(hidden_dim=16, num_heads=2, seq_len=16, rng=rng, attention_block_size=8)
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=2, bit=14, dtype="fp16")
        _, report = _run(mha, x, injector)
        assert report.detected_any
        assert len(injector.records) == 1

    def test_projection_fault_detected(self, rng):
        mha = MultiHeadAttention(hidden_dim=16, num_heads=2, seq_len=16, rng=rng, attention_block_size=8)
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        clean, _ = _run(mha, x)
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=3, bit=13, dtype="fp16")
        faulty, report = _run(mha, x, injector)
        assert report.detected_any
        np.testing.assert_allclose(faulty, clean, rtol=5e-2, atol=5e-2)

    def test_invalid_heads_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(hidden_dim=30, num_heads=4, seq_len=8, rng=rng)

    def test_wrong_input_rank_rejected(self, rng):
        mha = MultiHeadAttention(hidden_dim=8, num_heads=2, seq_len=8, rng=rng, attention_block_size=8)
        with pytest.raises(ValueError):
            mha(rng.standard_normal((1, 8, 8)).astype(np.float32), FaultRouter([]), [])
