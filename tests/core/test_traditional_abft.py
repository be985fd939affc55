"""Tests for the traditional (operation-level) ABFT protected GEMM."""

import numpy as np
import pytest

from repro.core.traditional_abft import protected_matmul, protected_matmul_stacked
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite


class TestProtectedMatmul:
    def test_clean_result_matches_plain_gemm(self, rng):
        a = rng.standard_normal((24, 16)).astype(np.float32)
        b = rng.standard_normal((16, 20)).astype(np.float32)
        out, verdict = protected_matmul(a, b, mixed_precision=False)
        np.testing.assert_allclose(out, a @ b, rtol=1e-5, atol=1e-5)
        assert verdict.clean

    def test_scale_applied(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        out, _ = protected_matmul(a, b, scale=0.25, mixed_precision=False)
        np.testing.assert_allclose(out, 0.25 * (a @ b), rtol=1e-5, atol=1e-5)

    def test_mixed_precision_clean_run_no_false_alarm(self, rng):
        a = rng.standard_normal((32, 64)).astype(np.float32)
        b = rng.standard_normal((64, 32)).astype(np.float32)
        _, verdict = protected_matmul(a, b, mixed_precision=True)
        assert verdict.clean

    def test_injected_fault_detected_and_corrected(self, rng):
        a = rng.standard_normal((32, 32)).astype(np.float32)
        b = rng.standard_normal((32, 32)).astype(np.float32)
        reference, _ = protected_matmul(a, b)
        injector = FaultInjector.single_bit_flip(
            FaultSite.GEMM_QK, seed=0, bit=13, dtype="fp16"
        )
        out, verdict = protected_matmul(a, b, injector=injector)
        assert injector.applied_count == 1
        assert verdict.detected >= 1
        assert verdict.corrected >= 1
        np.testing.assert_allclose(out, reference, rtol=0.05, atol=0.05)

    def test_fault_at_other_site_not_triggered(self, rng):
        a = rng.standard_normal((8, 8)).astype(np.float32)
        b = rng.standard_normal((8, 8)).astype(np.float32)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_PV, seed=0)
        _, verdict = protected_matmul(a, b, injector=injector, site=FaultSite.GEMM_QK)
        assert injector.applied_count == 0
        assert verdict.clean

    def test_sign_flip_correction(self, rng):
        a = rng.standard_normal((16, 16)).astype(np.float32)
        b = rng.standard_normal((16, 16)).astype(np.float32)
        reference, _ = protected_matmul(a, b)
        injector = FaultInjector.single_bit_flip(
            FaultSite.GEMM_QK, index=(3, 7), bit=15, dtype="fp16"
        )
        out, verdict = protected_matmul(a, b, injector=injector)
        assert verdict.corrected >= 1
        np.testing.assert_allclose(out[3, 7], reference[3, 7], rtol=0.05, atol=0.05)

    def test_non_2d_rejected(self, rng):
        with pytest.raises(ValueError):
            protected_matmul(rng.standard_normal((2, 3, 4)), rng.standard_normal((4, 2)))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            protected_matmul(rng.standard_normal((3, 4)), rng.standard_normal((5, 2)))


class _Edits:
    """Applies fixed per-trial edits to the offered product (a stand-in injector/router)."""

    armed = True  # read by the one-trial router of ``protected_matmul``

    def __init__(self, edits):
        self.edits = edits

    def corrupt(self, site, array, block=None):
        for t, (pos, value) in self.edits:
            target = array[t] if array.ndim == 3 else array
            target[pos] = value


class TestProtectedMatmulStacked:
    # Per-trial edit of the product: none, a locatable error, a sub-threshold
    # one, two errors in one column, and non-finite values.
    EDITS = [
        None,
        ((3, 5), 50.0),
        ((1, 1), 1e-6),
        None,
        ((2, 7), np.nan),
        ((0, 0), np.inf),
        ((4, 2), -np.inf),
    ]

    def test_verdicts_and_bytes_match_scalar(self, rng):
        n = len(self.EDITS)
        a = rng.standard_normal((n, 12, 16)).astype(np.float32)
        b = rng.standard_normal((n, 16, 10)).astype(np.float32)
        stacked_edits = [(t, e) for t, e in enumerate(self.EDITS) if e is not None]
        c, verdicts = protected_matmul_stacked(a, b, _Edits(stacked_edits), scale=0.5)
        for t, edit in enumerate(self.EDITS):
            edits = _Edits([] if edit is None else [(0, edit)])
            want_c, want = protected_matmul(a[t], b[t], scale=0.5, injector=edits)
            assert c[t].tobytes() == want_c.tobytes()
            got = verdicts[t]
            assert (got.detected, got.uncorrectable, got.corrections) == (
                want.detected,
                want.uncorrectable,
                want.corrections,
            )
            assert np.float64(got.max_residual).tobytes() == np.float64(want.max_residual).tobytes()

    def test_two_errors_in_one_column_also_match(self, rng):
        a = rng.standard_normal((2, 8, 8)).astype(np.float32)
        b = rng.standard_normal((2, 8, 8)).astype(np.float32)
        edits = [(1, ((2, 3), 40.0)), (1, ((6, 3), -25.0))]
        c, verdicts = protected_matmul_stacked(a, b, _Edits(edits))
        for t in range(2):
            want_c, want = protected_matmul(
                a[t], b[t], injector=_Edits([(0, e) for u, e in edits if u == t])
            )
            assert c[t].tobytes() == want_c.tobytes()
            assert verdicts[t] == want


class TestDMRSoftmax:
    def test_clean_softmax_accepted(self, rng):
        from repro.core.dmr import dmr_row_softmax

        scores = rng.standard_normal((16, 16)).astype(np.float32)
        probs, stats = dmr_row_softmax(scores)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-4)
        assert stats["detected"] == 0
        assert stats["rounds"] == 0

    def test_injected_fault_detected_and_recomputed(self, rng):
        from repro.core.dmr import dmr_row_softmax
        from repro.attention.softmax import stable_softmax

        scores = rng.standard_normal((16, 16)).astype(np.float32)
        injector = FaultInjector.single_bit_flip(FaultSite.SOFTMAX, seed=1, bit=13, dtype="fp16")
        probs, stats = dmr_row_softmax(scores, injector=injector)
        assert stats["detected"] == 1
        assert stats["rounds"] >= 1
        np.testing.assert_allclose(probs, stable_softmax(scores), rtol=1e-4, atol=1e-5)

    def test_rowsum_violation_triggers_recompute(self, rng):
        from repro.core.dmr import dmr_row_softmax

        scores = rng.standard_normal((8, 8)).astype(np.float32)
        # Inject a large positive corruption: both replicas agree (the fault
        # hit before duplication is not modelled here), but the row-sum check
        # of Equation (11) still catches a corrupted normalisation.
        injector = FaultInjector.single_bit_flip(
            FaultSite.SOFTMAX, index=(2, 3), bit=14, dtype="fp16"
        )
        probs, stats = dmr_row_softmax(scores, injector=injector)
        assert stats["detected"] == 1
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, rtol=1e-3)
