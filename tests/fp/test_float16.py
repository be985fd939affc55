"""Tests for the FP16 mixed-precision helpers."""

import warnings

import numpy as np
import pytest

from repro.fp.float16 import (
    FP16_MAX,
    FP16_MIN_NORMAL,
    fp16_matmul,
    fp16_quantize,
    machine_epsilon,
    to_fp16,
    to_fp32,
)


class TestCasts:
    def test_to_fp16_dtype(self):
        assert to_fp16([1.0, 2.0]).dtype == np.float16

    def test_to_fp32_dtype(self):
        assert to_fp32([1.0, 2.0]).dtype == np.float32

    def test_fp16_max_saturates_to_inf(self):
        assert np.isinf(to_fp16(1e6))

    def test_out_of_range_cast_saturates_without_warning(self):
        # Saturation is the modelled half-precision range, not a numerical
        # bug, so it must not raise the cast-overflow RuntimeWarning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = to_fp16(np.array([7e4, -7e4, 1.0], dtype=np.float32))
        np.testing.assert_array_equal(out, [np.inf, -np.inf, 1.0])

    def test_repro_runtime_warnings_are_errors(self, pytestconfig):
        assert "error::RuntimeWarning:repro" in pytestconfig.getini("filterwarnings")

    def test_fp16_constants(self):
        assert FP16_MAX == pytest.approx(65504.0)
        assert 0.0 < FP16_MIN_NORMAL < 1e-4

    def test_quantize_round_trips_through_half(self):
        x = np.float32(1.0 + 1e-4)
        q = fp16_quantize(x)
        assert q.dtype == np.float32
        assert q == np.float32(np.float16(x))

    def test_quantize_loses_small_differences(self):
        a = fp16_quantize(1.0)
        b = fp16_quantize(1.0 + 1e-5)
        assert a == b

    def test_machine_epsilon_fp16(self):
        assert machine_epsilon(np.float16) == pytest.approx(2**-10)

    def test_machine_epsilon_fp32(self):
        assert machine_epsilon(np.float32) == pytest.approx(2**-23)


class TestFp16Matmul:
    def test_out_of_range_operand_saturates_without_warning(self):
        # A flipped exponent bit can push an operand past FP16_MAX; the
        # tensor-core input cast saturates it to inf, silently.  What the
        # product then does with inf is the faulted caller's errstate.
        a = np.array([[1e5, 1.0], [1.0, 1.0]], dtype=np.float32)
        b = np.ones((2, 2), dtype=np.float32)
        with warnings.catch_warnings(), np.errstate(invalid="ignore"):
            warnings.simplefilter("error")
            out = fp16_matmul(a, b)
        assert np.isinf(out[0]).all()
        np.testing.assert_array_equal(out[1], [2.0, 2.0])

    def test_matches_exact_for_representable_values(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32)
        b = np.array([[5.0, 6.0], [7.0, 8.0]], dtype=np.float32)
        np.testing.assert_allclose(fp16_matmul(a, b), a @ b)

    def test_returns_float32(self):
        a = np.ones((4, 8), dtype=np.float64)
        b = np.ones((8, 3), dtype=np.float64)
        assert fp16_matmul(a, b).dtype == np.float32

    def test_quantizes_operands(self):
        # 1 + 2^-12 is not representable in FP16, so the product collapses to 1.
        a = np.array([[1.0 + 2**-12]], dtype=np.float32)
        b = np.array([[1.0]], dtype=np.float32)
        assert fp16_matmul(a, b)[0, 0] == 1.0

    def test_accumulates_in_float32(self):
        # Summing 4096 copies of 1.0 exceeds FP16 integer precision (2048) but
        # not FP32: an FP16 accumulator would not represent 4096 exactly... it
        # would, but 4097 would not; use 0.5 steps to expose the difference.
        a = np.full((1, 4096), 1.0, dtype=np.float32)
        b = np.full((4096, 1), 1.0, dtype=np.float32)
        assert fp16_matmul(a, b)[0, 0] == 4096.0

    def test_batched_operands(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4, 5)).astype(np.float32)
        b = rng.standard_normal((3, 5, 2)).astype(np.float32)
        out = fp16_matmul(a, b)
        assert out.shape == (3, 4, 2)
        np.testing.assert_allclose(out, np.matmul(a, b), rtol=5e-3, atol=5e-3)

    def test_close_to_exact_for_small_matrices(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        np.testing.assert_allclose(fp16_matmul(a, b), a @ b, rtol=2e-2, atol=2e-2)
