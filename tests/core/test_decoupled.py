"""Tests for the decoupled operation-level fault tolerant attention baseline."""

import numpy as np
import pytest

from repro.attention.standard import standard_attention
from repro.core.config import AttentionConfig
from repro.core.decoupled import DecoupledFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite


class TestDecoupledCorrectness:
    def test_matches_standard_attention(self, qkv, small_config):
        q, k, v = qkv
        out, report = DecoupledFTAttention(small_config)(q, k, v)
        np.testing.assert_allclose(out, standard_attention(q, k, v), rtol=5e-3, atol=5e-3)
        assert report.clean

    def test_matches_efta(self, qkv, small_config):
        q, k, v = qkv
        dec, _ = DecoupledFTAttention(small_config)(q, k, v)
        efta, _ = EFTAttentionOptimized(small_config)(q, k, v)
        np.testing.assert_allclose(dec, efta, rtol=5e-3, atol=5e-3)

    def test_mismatched_leading_dims_rejected(self, rng, small_config):
        q = rng.standard_normal((2, 8, 32)).astype(np.float32)
        k = rng.standard_normal((1, 8, 32)).astype(np.float32)
        with pytest.raises(ValueError):
            DecoupledFTAttention(small_config)(q, k, k)


class TestDecoupledFaults:
    @pytest.mark.parametrize("site", [FaultSite.GEMM_QK, FaultSite.GEMM_PV])
    def test_gemm_fault_corrected(self, single_head_qkv, small_config, site):
        # A top-exponent-bit flip is far above the full-width checksum's FP16
        # noise floor, so the traditional ABFT must detect and correct it.
        q, k, v = single_head_qkv
        reference = standard_attention(q, k, v)
        injector = FaultInjector.single_bit_flip(site, seed=1, bit=14, dtype="fp16")
        out, report = DecoupledFTAttention(small_config)(q, k, v, injector=injector)
        assert report.detected_any
        assert report.total_corrections >= 1
        np.testing.assert_allclose(out, reference, rtol=1e-2, atol=1e-2)

    def test_softmax_fault_detected_by_dmr(self, single_head_qkv, small_config):
        q, k, v = single_head_qkv
        reference = standard_attention(q, k, v)
        injector = FaultInjector.single_bit_flip(FaultSite.SOFTMAX, seed=2, bit=13, dtype="fp16")
        out, report = DecoupledFTAttention(small_config)(q, k, v, injector=injector)
        assert report.detections["softmax"] >= 1
        np.testing.assert_allclose(out, reference, rtol=1e-2, atol=1e-2)

    def test_report_counts_injections(self, single_head_qkv, small_config):
        q, k, v = single_head_qkv
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=3, bit=14)
        _, report = DecoupledFTAttention(small_config)(q, k, v, injector=injector)
        assert len(report.injected) == 1


class TestDecoupledMemoryBehaviour:
    def test_cost_breakdown_matches_model(self, small_config):
        bd = DecoupledFTAttention(small_config).cost_breakdown(batch=8, heads=16)
        assert bd.base.total_launches() == 3
        assert bd.overhead > 0
