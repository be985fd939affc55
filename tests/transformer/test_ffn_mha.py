"""Tests for the protected feed-forward and multi-head attention modules."""

import numpy as np
import pytest

from repro.attention.standard import standard_attention
from repro.attention.tiling import merge_heads, split_heads
from repro.core.config import FaultToleranceReport
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite
from repro.transformer.ffn import FeedForward
from repro.transformer.layers import relu
from repro.transformer.mha import MultiHeadAttention


class TestFeedForward:
    def test_output_shape(self, rng):
        ffn = FeedForward(16, 64, rng)
        x = rng.standard_normal((2, 5, 16)).astype(np.float32)
        assert ffn(x).shape == (2, 5, 16)

    def test_clean_run_reports_nothing(self, rng):
        ffn = FeedForward(16, 64, rng)
        report = FaultToleranceReport()
        ffn(rng.standard_normal((2, 4, 16)).astype(np.float32), report=report)
        assert report.clean

    def test_custom_activation(self, rng):
        ffn = FeedForward(8, 16, rng, activation=relu)
        out = ffn(rng.standard_normal((1, 3, 8)).astype(np.float32))
        assert np.all(np.isfinite(out))

    def test_linear_fault_detected(self, rng):
        ffn = FeedForward(16, 64, rng)
        x = rng.standard_normal((2, 4, 16)).astype(np.float32)
        clean = ffn(x)
        report = FaultToleranceReport()
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=1, bit=13, dtype="fp16")
        faulty = ffn(x, injector=injector, report=report)
        assert report.detected_any
        np.testing.assert_allclose(faulty, clean, rtol=5e-2, atol=5e-2)

    def test_activation_restriction_clamps_extremes(self, rng):
        ffn = FeedForward(8, 16, rng, activation_bound=1.0)
        report = FaultToleranceReport()
        x = 100.0 * np.ones((1, 2, 8), dtype=np.float32)
        ffn(x, report=report)
        assert report.restorations["ffn_activation"] > 0

    def test_unprotected_mode_skips_restriction(self, rng):
        ffn = FeedForward(8, 16, rng, activation_bound=1.0)
        report = FaultToleranceReport()
        ffn(100.0 * np.ones((1, 2, 8), dtype=np.float32), report=report, protected=False)
        assert report.clean


class TestMultiHeadAttention:
    def test_matches_reference_attention(self, rng):
        mha = MultiHeadAttention(hidden_dim=32, num_heads=4, seq_len=24, rng=rng, attention_block_size=8)
        x = rng.standard_normal((2, 24, 32)).astype(np.float32)
        out = mha(x)
        # Reference: same projections, exact attention, same output projection.
        q = split_heads(mha.q_proj(x), 4)
        k = split_heads(mha.k_proj(x), 4)
        v = split_heads(mha.v_proj(x), 4)
        expected = mha.out_proj(merge_heads(standard_attention(q, k, v)))
        np.testing.assert_allclose(out, expected, rtol=2e-2, atol=2e-2)

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
        np.testing.assert_allclose(protected(x), unprotected(x), rtol=2e-2, atol=2e-2)

    def test_report_aggregates_attention_events(self, rng):
        mha = MultiHeadAttention(hidden_dim=16, num_heads=2, seq_len=16, rng=rng, attention_block_size=8)
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        report = FaultToleranceReport()
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=2, bit=14, dtype="fp16")
        mha(x, injector=injector, report=report)
        assert report.detected_any
        assert len(injector.records) == 1

    def test_projection_fault_detected(self, rng):
        mha = MultiHeadAttention(hidden_dim=16, num_heads=2, seq_len=16, rng=rng, attention_block_size=8)
        x = rng.standard_normal((1, 16, 16)).astype(np.float32)
        clean = mha(x)
        report = FaultToleranceReport()
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=3, bit=13, dtype="fp16")
        faulty = mha(x, injector=injector, report=report)
        assert report.detected_any
        np.testing.assert_allclose(faulty, clean, rtol=5e-2, atol=5e-2)

    def test_invalid_heads_rejected(self, rng):
        with pytest.raises(ValueError):
            MultiHeadAttention(hidden_dim=30, num_heads=4, seq_len=8, rng=rng)

    def test_wrong_input_rank_rejected(self, rng):
        mha = MultiHeadAttention(hidden_dim=8, num_heads=2, seq_len=8, rng=rng, attention_block_size=8)
        with pytest.raises(ValueError):
            mha(rng.standard_normal((8, 8)).astype(np.float32))
