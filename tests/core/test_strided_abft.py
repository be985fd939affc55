"""Tests for the block-level strided ABFT helper."""

import numpy as np
import pytest

from repro.core.config import AttentionConfig
from repro.core.strided_abft import StridedABFT, stride_class_counts
from repro.fp.float16 import fp16_matmul
from repro.gemm.checksum import strided_sums


@pytest.fixture
def abft():
    return StridedABFT(AttentionConfig(seq_len=64, head_dim=32, block_size=32, checksum_stride=8))


class TestStrideClassCounts:
    def test_divisible(self):
        np.testing.assert_array_equal(stride_class_counts(32, 8), np.full(8, 4.0))

    def test_ragged(self):
        counts = stride_class_counts(11, 8)
        np.testing.assert_array_equal(counts, [2, 2, 2, 1, 1, 1, 1, 1])

    def test_total_equals_columns(self):
        for cols in (1, 7, 8, 9, 31, 64):
            assert stride_class_counts(cols, 8).sum() == cols

    def test_invalid_stride(self):
        with pytest.raises(ValueError):
            stride_class_counts(8, 0)


class TestStridedABFT:
    def test_key_checksum_shape(self, abft, rng):
        k_block = rng.standard_normal((32, 32)).astype(np.float32)
        c1, c2 = abft.encode_key_checksums(k_block)
        assert c1.shape == (32, 8)
        assert c2.shape == (32, 8)

    def test_value_checksum_shape(self, abft, rng):
        v_block = rng.standard_normal((32, 32)).astype(np.float32)
        c1, _ = abft.encode_value_checksums(v_block)
        assert c1.shape == (32, 8)

    def test_score_block_checksums_fold_relationship(self, abft, rng):
        q = rng.standard_normal((32, 32)).astype(np.float32)
        k = rng.standard_normal((32, 32)).astype(np.float32)
        scale = 0.25
        chk = abft.score_block_checksums(q, k, scale)
        scores = fp16_matmul(q, k.T) * np.float32(scale)
        fold, _ = strided_sums(scores, 8)
        np.testing.assert_allclose(chk.check1, fold, rtol=0.02, atol=0.02)
        np.testing.assert_array_equal(chk.class_counts, np.full(8, 4.0))

    def test_clean_scores_verify_clean(self, abft, rng):
        q = rng.standard_normal((32, 32)).astype(np.float32)
        k = rng.standard_normal((32, 32)).astype(np.float32)
        chk = abft.score_block_checksums(q, k, 1.0)
        scores = fp16_matmul(q, k.T)
        assert abft.verify_scores(scores, chk).clean

    def test_corrupted_score_corrected(self, abft, rng):
        q = rng.standard_normal((32, 32)).astype(np.float32)
        k = rng.standard_normal((32, 32)).astype(np.float32)
        chk = abft.score_block_checksums(q, k, 1.0)
        scores = fp16_matmul(q, k.T)
        expected = scores.copy()
        scores[10, 20] += 50.0
        verdict = abft.verify_scores(scores, chk)
        assert verdict.corrected == 1
        np.testing.assert_allclose(scores, expected, atol=0.5)

    def test_output_verification_detects_accumulator_error(self, abft, rng):
        probs = rng.random((32, 32)).astype(np.float32)
        v = rng.standard_normal((32, 32)).astype(np.float32)
        v_c1, v_c2 = abft.encode_value_checksums(v)
        out = fp16_matmul(probs, v)
        out_c1 = fp16_matmul(probs, v_c1)
        out_c2 = fp16_matmul(probs, v_c2)
        expected = out.copy()
        out[4, 9] -= 30.0
        (verdict,) = abft.verify_output_stacked(out[None], out_c1[None], out_c2[None])
        assert verdict.corrected == 1
        np.testing.assert_allclose(out, expected, atol=0.5)

    def test_output_verification_clean(self, abft, rng):
        probs = rng.random((16, 32)).astype(np.float32)
        v = rng.standard_normal((32, 32)).astype(np.float32)
        v_c1, v_c2 = abft.encode_value_checksums(v)
        out = fp16_matmul(probs, v)
        (verdict,) = abft.verify_output_stacked(
            out[None], fp16_matmul(probs, v_c1)[None], fp16_matmul(probs, v_c2)[None]
        )
        assert verdict.clean

    def test_residuals_near_zero_for_clean_block(self, abft, rng):
        q = rng.standard_normal((16, 32)).astype(np.float32)
        k = rng.standard_normal((16, 32)).astype(np.float32)
        chk = abft.score_block_checksums(q, k, 1.0)
        scores = fp16_matmul(q, k.T)
        residuals = abft.residuals(scores, chk)
        assert np.max(np.abs(residuals)) < 0.5

    def test_ragged_block_checksums(self, abft, rng):
        # A tail block whose column count is not a multiple of the stride.
        q = rng.standard_normal((16, 32)).astype(np.float32)
        k = rng.standard_normal((11, 32)).astype(np.float32)
        chk = abft.score_block_checksums(q, k, 1.0)
        scores = fp16_matmul(q, k.T)
        assert abft.verify_scores(scores, chk).clean
        np.testing.assert_array_equal(chk.class_counts, stride_class_counts(11, 8))
