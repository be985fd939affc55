"""Property-based tests of the ABFT checksum invariants (hypothesis)."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.gemm.checksum import (
    ChecksumVerdict,
    Correction,
    encode_column_checksums,
    encode_row_checksums,
    encode_strided_row_checksums,
    strided_sums,
    verify_column_checksums,
    verify_strided_checksums,
    verify_strided_checksums_stacked,
)

SETTINGS = dict(max_examples=30, deadline=None)

finite_floats = st.floats(min_value=-8.0, max_value=8.0, allow_nan=False, allow_infinity=False, width=32)


def matrices(min_rows=2, max_rows=12, min_cols=2, max_cols=24):
    return hnp.arrays(
        dtype=np.float32,
        shape=st.tuples(
            st.integers(min_rows, max_rows), st.integers(min_cols, max_cols)
        ),
        elements=finite_floats,
    )


class TestTraditionalChecksumProperties:
    @given(a=matrices())
    @settings(**SETTINGS)
    def test_column_checksum_is_linear_in_rows(self, a):
        c1, c2 = encode_column_checksums(a)
        np.testing.assert_allclose(c1, a.sum(axis=0), rtol=1e-4, atol=1e-4)
        weights = np.arange(1, a.shape[0] + 1, dtype=np.float64)
        np.testing.assert_allclose(c2, weights @ a.astype(np.float64), rtol=1e-4, atol=1e-3)

    @given(b=matrices())
    @settings(**SETTINGS)
    def test_row_checksum_is_linear_in_columns(self, b):
        r1, _ = encode_row_checksums(b)
        np.testing.assert_allclose(r1, b.sum(axis=1), rtol=1e-4, atol=1e-4)

    @given(a=matrices(max_cols=12), data=st.data())
    @settings(**SETTINGS)
    def test_any_single_large_error_is_corrected(self, a, data):
        b = np.eye(a.shape[1], dtype=np.float32)  # identity keeps the algebra exact
        c = (a @ b).astype(np.float64)
        c1, c2 = encode_column_checksums(a)
        check1 = c1 @ b
        check2 = c2 @ b
        row = data.draw(st.integers(0, c.shape[0] - 1))
        col = data.draw(st.integers(0, c.shape[1] - 1))
        expected = c.copy()
        c[row, col] += 100.0
        verdict = verify_column_checksums(c, check1, check2, atol=1e-3, rtol=1e-3)
        assert verdict.corrected == 1
        np.testing.assert_allclose(c, expected, atol=1e-2)


class TestStridedChecksumProperties:
    @given(kt=matrices(min_rows=2, max_rows=10, min_cols=2, max_cols=40), stride=st.sampled_from([4, 8]))
    @settings(**SETTINGS)
    def test_checksum_totals_preserve_row_sums(self, kt, stride):
        # Folding at any stride preserves the total sum along the folded axis.
        c1, _ = encode_strided_row_checksums(kt, stride)
        np.testing.assert_allclose(c1.sum(axis=1), kt.sum(axis=1), rtol=1e-4, atol=1e-3)

    @given(s=matrices(min_cols=8, max_cols=40), stride=st.sampled_from([4, 8]))
    @settings(**SETTINGS)
    def test_strided_sums_match_encoding(self, s, stride):
        sum1, sum2 = strided_sums(s, stride)
        c1, c2 = encode_strided_row_checksums(s, stride)
        np.testing.assert_allclose(sum1, c1, rtol=1e-4, atol=1e-3)
        np.testing.assert_allclose(sum2, c2, rtol=1e-4, atol=1e-3)

    @given(
        q=matrices(min_rows=2, max_rows=8, min_cols=8, max_cols=16),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_checksum_gemm_commutes_with_fold(self, q, data):
        # Equation (14): folding the output equals multiplying by the folded operand.
        cols = data.draw(st.integers(8, 32))
        rng = np.random.default_rng(0)
        k = rng.standard_normal((cols, q.shape[1])).astype(np.float32)
        s = (q.astype(np.float64) @ k.T.astype(np.float64))
        kc1, _ = encode_strided_row_checksums(k.T, 8)
        check = q.astype(np.float64) @ kc1.astype(np.float64)
        fold, _ = strided_sums(s, 8)
        np.testing.assert_allclose(check, fold, rtol=1e-4, atol=1e-3)

    @given(
        s=matrices(min_rows=2, max_rows=8, min_cols=9, max_cols=40),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_single_error_corrected_at_any_position(self, s, data):
        stride = 8
        check1, check2 = strided_sums(s, stride)
        row = data.draw(st.integers(0, s.shape[0] - 1))
        col = data.draw(st.integers(0, s.shape[1] - 1))
        corrupted = s.copy()
        corrupted[row, col] += 500.0
        verdict = verify_strided_checksums(
            corrupted, check1, check2, stride=stride, atol=1e-3, rtol=1e-3
        )
        assert verdict.corrected == 1
        assert verdict.corrections[0].row == row
        assert verdict.corrections[0].col == col
        np.testing.assert_allclose(corrupted, s, atol=1e-2)

    @given(s=matrices(min_cols=8, max_cols=32))
    @settings(**SETTINGS)
    def test_clean_verification_never_alarms_with_exact_checksums(self, s):
        check1, check2 = strided_sums(s, 8)
        verdict = verify_strided_checksums(s.copy(), check1, check2, stride=8, atol=1e-3, rtol=1e-3)
        assert verdict.clean


# --------------------------------------------------------------------------- #
# The vectorised strided verify against the per-element loop it replaced
# --------------------------------------------------------------------------- #
def _loop_strided_sums(s, stride):
    """The per-group strided sums as first written (the oracle's own copy)."""
    s = np.asarray(s)
    cols = s.shape[-1]
    groups = -(-cols // stride)
    sum1 = np.zeros(s.shape[:-1] + (stride,), dtype=np.float64)
    sum2 = np.zeros(s.shape[:-1] + (stride,), dtype=np.float64)
    for l in range(groups):
        chunk = s[..., l * stride : (l + 1) * stride].astype(np.float64)
        width = chunk.shape[-1]
        sum1[..., :width] += chunk
        sum2[..., :width] += (l + 1) * chunk
    return sum1, sum2


def _loop_verify_strided_checksums(s, s_check1, s_check2, stride=8, atol=1e-2, rtol=0.0, magnitude=None):
    """Oracle: the strided verify with its original per-element non-finite repair loop."""
    s = np.asarray(s)
    rows, cols = s.shape
    groups = -(-cols // stride)
    verdict = ChecksumVerdict()

    nonfinite = ~np.isfinite(s)
    if nonfinite.any():
        check1 = np.asarray(s_check1, dtype=np.float64)
        for i, j in np.argwhere(nonfinite):
            cls = j % stride
            class_cols = np.arange(cls, cols, stride)
            others = class_cols[class_cols != j]
            if np.all(np.isfinite(s[i, others])):
                verdict.detected += 1
                repaired = check1[i, cls] - float(np.sum(s[i, others], dtype=np.float64))
                delta = repaired - float(s[i, j]) if np.isfinite(s[i, j]) else float("nan")
                s[i, j] = repaired
                verdict.corrections.append(Correction(row=int(i), col=int(j), delta=delta))
            else:
                verdict.detected += 1
                verdict.uncorrectable += 1

    sum1, sum2 = _loop_strided_sums(s, stride)
    res1 = np.asarray(s_check1, dtype=np.float64) - sum1
    res2 = np.asarray(s_check2, dtype=np.float64) - sum2
    verdict.max_residual = float(np.max(np.abs(res1))) if res1.size else 0.0
    if magnitude is None:
        magnitude, _ = _loop_strided_sums(np.abs(s), stride)
    else:
        magnitude = np.maximum(np.asarray(magnitude, dtype=np.float64), _loop_strided_sums(np.abs(s), stride)[0])
    thresh = atol + rtol * np.abs(magnitude)
    bad = np.argwhere(np.abs(res1) > thresh)
    verdict.detected += int(bad.shape[0])
    for i, j in bad:
        if abs(res1[i, j]) < np.finfo(np.float64).tiny:
            verdict.uncorrectable += 1
            continue
        group_f = res2[i, j] / res1[i, j]
        group = int(round(group_f)) - 1
        col = j + stride * group
        if not 0 <= group < groups or col >= cols or abs(group_f - round(group_f)) > 0.25:
            verdict.uncorrectable += 1
            continue
        delta = res1[i, j]
        s[i, col] += delta
        verdict.corrections.append(Correction(row=int(i), col=int(col), delta=float(delta)))
    return verdict


def _float_key(x: float):
    return "nan" if math.isnan(x) else np.float64(x).tobytes()


def _verdict_key(verdict: ChecksumVerdict):
    return (
        verdict.detected,
        verdict.uncorrectable,
        _float_key(verdict.max_residual),
        [(c.row, c.col, _float_key(c.delta)) for c in verdict.corrections],
    )


# O(1) values, signed zeros, the full float32 range, and values spread over
# 60 binades: float64 sums of those are inexact, so the summation order of a
# repair's class-mates shows in the repaired bytes.
_values = st.one_of(
    st.floats(-8.0, 8.0, width=32),
    st.sampled_from([0.0, -0.0]),
    st.floats(width=32, allow_nan=False, allow_infinity=False),
    st.builds(lambda m, e: float(np.float32(m * 2.0**e)), st.floats(-2.0, 2.0, width=32), st.integers(-30, 30)),
)
_nonfinite = st.sampled_from([np.nan, np.inf, -np.inf])


@st.composite
def _strided_shape(draw):
    stride = draw(st.sampled_from([1, 2, 3, 4, 8]))
    # Up to 16 groups: class-mate sums cross numpy's 8-element pairwise block.
    return draw(st.integers(1, 5)), draw(st.integers(1, 16 * stride)), stride


@st.composite
def _corrupted_block(draw, rows, cols, stride, dtype):
    """A block, its (possibly corrupted) checksums and verify keyword args."""
    s = draw(hnp.arrays(dtype, (rows, cols), elements=_values))
    check1, check2 = _loop_strided_sums(s, stride)
    for _ in range(draw(st.integers(0, 3))):  # finite errors the residual can locate
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1))
        s[r, c] += draw(st.sampled_from([500.0, -300.0, 1e4]))
    for _ in range(draw(st.integers(0, 4))):  # 1..all non-finite values in one class
        r, cls = draw(st.integers(0, rows - 1)), draw(st.integers(0, min(stride, cols) - 1))
        members = list(range(cls, cols, stride))
        for c in draw(st.lists(st.sampled_from(members), min_size=1, max_size=len(members), unique=True)):
            s[r, c] = draw(_nonfinite)
    for _ in range(draw(st.integers(0, 2))):  # non-finite checksum entries
        r, c = draw(st.integers(0, rows - 1)), draw(st.integers(0, stride - 1))
        draw(st.sampled_from([check1, check2]))[r, c] = draw(_nonfinite)
    magnitude = draw(
        st.none()
        | hnp.arrays(np.float64, (rows, stride), elements=st.floats(0.0, 1e3, allow_nan=False))
    )
    kwargs = dict(
        stride=stride,
        atol=draw(st.sampled_from([0.0, 1e-3, 1e-2])),
        rtol=draw(st.sampled_from([0.0, 1e-3, 0.02])),
        magnitude=magnitude,
    )
    return s, check1, check2, kwargs


class TestStridedVerifyMatchesLoop:
    @given(data=st.data(), shape=_strided_shape(), dtype=st.sampled_from([np.float32, np.float64]))
    @settings(max_examples=300, deadline=None)
    def test_same_bytes_and_verdict_as_the_loop(self, data, shape, dtype):
        s, check1, check2, kwargs = data.draw(_corrupted_block(*shape, dtype))
        want_s, got_s = s.copy(), s.copy()
        with np.errstate(all="ignore"):
            try:
                want = _loop_verify_strided_checksums(want_s, check1, check2, **kwargs)
            except (ValueError, OverflowError):
                # The loop cannot round a non-finite group ratio; the vectorised
                # verify counts that class uncorrectable instead of raising.
                verify_strided_checksums(got_s, check1, check2, **kwargs)
                return
            got = verify_strided_checksums(got_s, check1, check2, **kwargs)
        assert got_s.tobytes() == want_s.tobytes()
        assert _verdict_key(got) == _verdict_key(want)

    @given(data=st.data(), shape=_strided_shape(), n_trials=st.integers(1, 4))
    @settings(max_examples=100, deadline=None)
    def test_stacked_equals_per_slice(self, data, shape, n_trials):
        rows, _, stride = shape
        blocks = [data.draw(_corrupted_block(*shape, np.float32)) for _ in range(n_trials)]
        stacked = np.stack([b[0] for b in blocks])
        with_magnitude = data.draw(st.booleans())
        magnitude = np.stack(
            [b[3]["magnitude"] if b[3]["magnitude"] is not None else np.zeros((rows, stride)) for b in blocks]
        )
        kwargs = dict(stride=stride, atol=1e-3, rtol=0.02, magnitude=magnitude if with_magnitude else None)
        with np.errstate(all="ignore"):
            got = verify_strided_checksums_stacked(
                stacked, np.stack([b[1] for b in blocks]), np.stack([b[2] for b in blocks]), **kwargs
            )
            for t, (s, check1, check2, _) in enumerate(blocks):
                slice_kwargs = dict(kwargs, magnitude=magnitude[t] if with_magnitude else None)
                want = verify_strided_checksums(s, check1, check2, **slice_kwargs)
                assert stacked[t].tobytes() == s.tobytes()
                assert _verdict_key(got[t]) == _verdict_key(want)
