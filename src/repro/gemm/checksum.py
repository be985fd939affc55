"""ABFT checksum encodings: traditional element-wise and strided tensor checksums.

Two families are implemented:

* **Traditional (Huang & Abraham) checksums** (Equations 8-9): the operand
  matrices are augmented with full-width row/column checksum vectors using the
  weights ``[1, 1, ..., 1]`` and ``[1, 2, ..., M]``; a single error in the
  product is located by the ratio of the two residuals and corrected by adding
  the unweighted residual back.
* **Strided tensor checksums** (Equations 12-15): the operand is folded at the
  same-thread stride of the TiledMMA layout (8 along the output's N
  dimension), producing an 8-column-wide checksum per block.  Each of the 8
  checksum columns protects an interleaved subset of the output columns, so up
  to 8 errors per row are correctable as long as no two fall in the same
  stride class -- the "up to a factor of 8" coverage improvement of §3.3.

All verification routines return a :class:`ChecksumVerdict` describing what
was detected, what was corrected, and what could not be corrected, and they
correct the output **in place** (mirroring the in-register correction of the
CUDA kernels).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class Correction:
    """One applied correction: ``delta`` was added to the element at (row, col).

    The strided verify repairs a non-finite element that is alone in its
    stride class by overwriting it from the class checksum, so that
    correction records ``delta=nan``.  Two or more non-finite elements in one
    class are uncorrectable and get no correction.
    """

    row: int
    col: int
    delta: float


@dataclass
class ChecksumVerdict:
    """Outcome of a checksum verification pass."""

    detected: int = 0
    corrections: list[Correction] = field(default_factory=list)
    uncorrectable: int = 0
    max_residual: float = 0.0

    @property
    def corrected(self) -> int:
        """Number of corrections applied."""
        return len(self.corrections)

    @property
    def clean(self) -> bool:
        """True if no mismatch exceeded the threshold."""
        return self.detected == 0

    def merge(self, other: "ChecksumVerdict") -> "ChecksumVerdict":
        """Accumulate another verdict into this one and return ``self``."""
        self.detected += other.detected
        self.corrections.extend(other.corrections)
        self.uncorrectable += other.uncorrectable
        self.max_residual = max(self.max_residual, other.max_residual)
        return self


# --------------------------------------------------------------------------- #
# Traditional (element-wise) checksums, Equations (8) and (9)
# --------------------------------------------------------------------------- #
def column_weights(m: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Column checksum weight vectors ``c1 = 1`` and ``c2 = [1..M]``."""
    return np.ones(m, dtype=dtype), np.arange(1, m + 1, dtype=dtype)


def row_weights(n: int, dtype=np.float32) -> tuple[np.ndarray, np.ndarray]:
    """Row checksum weight vectors ``r1 = 1`` and ``r2 = [1..N]``."""
    return np.ones(n, dtype=dtype), np.arange(1, n + 1, dtype=dtype)


def encode_column_checksums(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two column-checksum rows ``c1 A`` and ``c2 A`` of ``A`` (M x K)."""
    a = np.asarray(a, dtype=np.float32)
    c1, c2 = column_weights(a.shape[0])
    return c1 @ a, c2 @ a


def encode_row_checksums(b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two row-checksum columns ``B r1`` and ``B r2`` of ``B`` (K x N)."""
    b = np.asarray(b, dtype=np.float32)
    r1, r2 = row_weights(b.shape[1])
    return b @ r1, b @ r2


def _threshold(magnitude: np.ndarray, atol: float, rtol: float) -> np.ndarray:
    """Detection threshold: absolute floor plus a fraction of the accumulated magnitude.

    Checksums are signed sums and can cancel to near zero even when the
    accumulated values are large, so thresholds must be relative to the sum of
    *absolute* values that went into the checksum -- otherwise FP16 round-off
    triggers false alarms on near-zero checksums (cf. Figure 12's false-alarm
    analysis).
    """
    return atol + rtol * np.abs(magnitude)


def verify_column_checksums(
    c: np.ndarray,
    c_check1: np.ndarray,
    c_check2: np.ndarray,
    atol: float = 1e-3,
    rtol: float = 0.0,
) -> ChecksumVerdict:
    """Verify/correct ``C`` (M x N) against column checksums of shape (N,).

    ``c_check1``/``c_check2`` are the checksum rows produced by multiplying the
    encoded operand (``c1 A`` and ``c2 A``) with B.  A single corrupted element
    per column is located via the residual ratio and corrected in place.
    """
    c = np.asarray(c)
    sum1 = c.sum(axis=0, dtype=np.float64)
    sum2 = (np.arange(1, c.shape[0] + 1, dtype=np.float64)[:, None] * c).sum(axis=0)
    res1 = np.asarray(c_check1, dtype=np.float64) - sum1
    res2 = np.asarray(c_check2, dtype=np.float64) - sum2
    verdict = ChecksumVerdict()
    verdict.max_residual = float(np.max(np.abs(res1))) if res1.size else 0.0
    magnitude = np.abs(c).sum(axis=0, dtype=np.float64)
    thresh = _threshold(magnitude, atol, rtol)
    bad_cols = np.nonzero(np.abs(res1) > thresh)[0]
    verdict.detected = int(bad_cols.size)
    for j in bad_cols:
        if abs(res1[j]) < np.finfo(np.float64).tiny:
            verdict.uncorrectable += 1
            continue
        row_f = res2[j] / res1[j]
        row = int(round(row_f)) - 1
        if not 0 <= row < c.shape[0] or abs(row_f - round(row_f)) > 0.25:
            verdict.uncorrectable += 1
            continue
        delta = res1[j]
        c[row, j] += delta
        verdict.corrections.append(Correction(row=row, col=int(j), delta=float(delta)))
    return verdict


def verify_row_checksums(
    c: np.ndarray,
    r_check1: np.ndarray,
    r_check2: np.ndarray,
    atol: float = 1e-3,
    rtol: float = 0.0,
) -> ChecksumVerdict:
    """Verify/correct ``C`` (M x N) against row checksums of shape (M,).

    This is the column verify of the view ``C^T``: it corrects ``C`` in place
    and its sums are bitwise the row sums, as they reduce the same memory.
    """
    verdict = verify_column_checksums(np.asarray(c).T, r_check1, r_check2, atol=atol, rtol=rtol)
    verdict.corrections = [Correction(row=x.col, col=x.row, delta=x.delta) for x in verdict.corrections]
    return verdict


# --------------------------------------------------------------------------- #
# Strided tensor checksums, Equations (12)-(15)
# --------------------------------------------------------------------------- #
def _num_groups(cols: int, stride: int) -> int:
    return -(-cols // stride)


def _fold(x: np.ndarray, stride: int, dtype, weighted: bool = False) -> np.ndarray:
    """``sum_l x[..., j + l*stride]`` in ``dtype``, each term weighted by ``l + 1`` if ``weighted``.

    Columns beyond the extent contribute zero.  Leading dims (e.g. a stacked
    trial axis) broadcast through: each slice's fold is bitwise its 2D fold.
    """
    total = np.zeros(x.shape[:-1] + (stride,), dtype=dtype)
    for l in range(_num_groups(x.shape[-1], stride)):
        chunk = x[..., l * stride : (l + 1) * stride].astype(dtype, copy=False)
        total[..., : chunk.shape[-1]] += dtype(l + 1) * chunk if weighted else chunk
    return total


def encode_strided_row_checksums(
    kt: np.ndarray, stride: int = 8
) -> tuple[np.ndarray, np.ndarray]:
    """Encode the two strided (tensor) row checksums of ``K^T`` (d x Bc).

    The columns of ``K^T`` are folded in groups of ``stride``:
    ``checksum1[:, j] = sum_l K^T[:, j + l*stride]`` and ``checksum2`` uses the
    group weight ``l + 1``.  Columns beyond the matrix extent contribute zero
    (equivalent to zero-padding the block, as the kernel does for ragged
    tails).
    """
    kt = np.asarray(kt, dtype=np.float32)
    return _fold(kt, stride, np.float32), _fold(kt, stride, np.float32, weighted=True)


def strided_sums(s: np.ndarray, stride: int = 8) -> tuple[np.ndarray, np.ndarray]:
    """Strided column sums of ``S`` (Br x Bc) matching the tensor checksums.

    Returns ``(sum1, sum2)`` of shape (Br, stride): ``sum1[i, j] =
    sum_l S[i, j + l*stride]`` and ``sum2`` with weight ``l + 1``, in float64.
    """
    s = np.asarray(s)
    return _fold(s, stride, np.float64), _fold(s, stride, np.float64, weighted=True)


def _weighted_sum_at(s: np.ndarray, t, i, j, stride: int) -> np.ndarray:
    """``strided_sums(s)[1][t, i, j]`` for the listed (trial, row, class) entries only."""
    cols = s.shape[-1]
    total = np.zeros(len(t), dtype=np.float64)
    for l in range(_num_groups(cols, stride)):
        col = j + l * stride
        inside = col < cols
        total[inside] += (l + 1) * s[t[inside], i[inside], col[inside]].astype(np.float64)
    return total


def _repair_lone_nonfinite(s: np.ndarray, check1: np.ndarray, lone: np.ndarray, stride: int) -> None:
    """Overwrite each listed non-finite ``S[t, i, j]`` with ``check1 - sum of its finite class-mates``.

    Every listed element is the only non-finite value of its class, so no
    repair reads another's result.  The class-mates of each element are
    gathered in column order and summed along a contiguous axis, which is the
    summation ``np.sum`` performs on one element's class-mates alone.
    """
    t, i, j = lone.T
    cls = j % stride
    members = (s.shape[-1] - cls + stride - 1) // stride
    repaired = np.empty(len(t), dtype=np.float64)
    # A ragged tail leaves later classes one member short: gather per size.
    for size in np.unique(members):
        sel = np.nonzero(members == size)[0]
        class_cols = cls[sel, None] + stride * np.arange(size)
        mates = class_cols[class_cols != j[sel, None]].reshape(len(sel), size - 1)
        mate_sums = s[t[sel, None], i[sel, None], mates].sum(axis=1, dtype=np.float64)
        repaired[sel] = check1[t[sel], i[sel], cls[sel]] - mate_sums
    s[t, i, j] = repaired


def verify_strided_checksums(
    s: np.ndarray,
    s_check1: np.ndarray,
    s_check2: np.ndarray,
    stride: int = 8,
    atol: float = 1e-2,
    rtol: float = 0.0,
    magnitude: np.ndarray | None = None,
) -> ChecksumVerdict:
    """Verify/correct ``S`` against its strided tensor checksums, in place.

    ``s_check1``/``s_check2`` are the (Br x stride) checksums produced by the
    checksum GEMM (Equations 14-15).  For every (row, stride-class) whose
    residual exceeds the threshold, the offending group index is recovered
    from the residual ratio and the element ``S[row, class + stride*group]``
    is corrected by the unweighted residual.  Errors in different stride
    classes of the same row are corrected independently, which is the source
    of the coverage advantage over single-column checksums.

    Non-finite elements (a bit flip can turn an FP16 value into NaN/Inf)
    poison every sum they touch, so they are handled first, per stride class.
    A non-finite element that is alone in its class is repaired as the class
    checksum minus the sum of its finite class-mates; it counts as detected
    and corrected, with ``delta=nan`` in its :class:`Correction`.  Two or more
    non-finite elements in one class cannot be told apart: each counts as
    detected and uncorrectable and is left as it is.  A residual whose
    group ratio is not finite is uncorrectable too.

    ``magnitude`` optionally overrides the per-class reference magnitude the
    relative threshold is taken against.  By default it is the strided sum of
    ``|S|`` itself, which is correct when ``S`` was computed in one GEMM; a
    running accumulator (the attention output) can cancel to near zero while
    the values folded into it stay O(1), in which case the caller must supply
    the accumulated magnitude to keep round-off below threshold.
    """
    return verify_strided_checksums_stacked(
        np.asarray(s)[None], s_check1, s_check2, stride=stride, atol=atol, rtol=rtol, magnitude=magnitude
    )[0]


def verify_strided_checksums_stacked(
    s: np.ndarray,
    s_check1: np.ndarray,
    s_check2: np.ndarray,
    stride: int = 8,
    atol: float = 1e-2,
    rtol: float = 0.0,
    magnitude: np.ndarray | None = None,
) -> list[ChecksumVerdict]:
    """Per-trial :func:`verify_strided_checksums` of a stacked ``S`` (T x Br x Bc), in place.

    The checksums (and ``magnitude``, if given) carry the same leading trial
    axis, or broadcast against it.  Every step runs over the whole stack at
    once, indexed by (trial, row, class): the non-finite triage and repair,
    one float64 strided sum each for the residual and the magnitude floor,
    and the residual corrections, whose weighted sums are taken only at the
    classes over threshold.  The verdicts, and the corrected ``S``, are
    bitwise those of correcting each slice on its own.
    """
    s = np.asarray(s)
    n_trials, rows, cols = s.shape
    groups = _num_groups(cols, stride)
    detected = np.zeros(n_trials, dtype=np.int64)
    uncorrectable = np.zeros(n_trials, dtype=np.int64)
    check1 = np.broadcast_to(np.asarray(s_check1, dtype=np.float64), (n_trials, rows, stride))

    nonfinite = ~np.isfinite(s)
    lone = np.empty((0, 3), dtype=np.intp)
    if nonfinite.any():
        padded = np.pad(nonfinite, ((0, 0), (0, 0), (0, groups * stride - cols)))
        per_class = padded.reshape(n_trials, rows, groups, stride).sum(axis=2)
        detected += per_class.sum(axis=(1, 2))
        uncorrectable += np.where(per_class >= 2, per_class, 0).sum(axis=(1, 2))
        lone = np.argwhere(nonfinite & (per_class == 1)[..., np.arange(cols) % stride])
        if len(lone):
            _repair_lone_nonfinite(s, check1, lone, stride)

    res1 = check1 - _fold(s, stride, np.float64)
    abs_res1 = np.abs(res1)
    max_residual = (
        abs_res1.reshape(n_trials, -1).max(axis=1) if rows * stride else np.zeros(n_trials)
    )
    floor = _fold(np.abs(s), stride, np.float64)
    mag = floor if magnitude is None else np.maximum(np.asarray(magnitude, dtype=np.float64), floor)
    bad = np.argwhere(abs_res1 > _threshold(mag, atol, rtol))
    detected += np.bincount(bad[:, 0], minlength=n_trials)

    fixed = np.empty((0, 3), dtype=np.intp)
    deltas = np.empty(0, dtype=np.float64)
    if len(bad):
        t, i, j = bad.T
        r1 = res1[t, i, j]
        check2 = np.broadcast_to(np.asarray(s_check2, dtype=np.float64), (n_trials, rows, stride))
        r2 = check2[t, i, j] - _weighted_sum_at(s, t, i, j, stride)
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            group_f = r2 / r1
            nearest = np.round(group_f)
            col = j + stride * (nearest - 1)
            ok = (
                (np.abs(r1) >= np.finfo(np.float64).tiny)
                & (nearest >= 1)
                & (nearest <= groups)
                & (col < cols)
                & (np.abs(group_f - nearest) <= 0.25)
            )
        uncorrectable += np.bincount(t[~ok], minlength=n_trials)
        fixed = np.stack([t[ok], i[ok], col[ok].astype(np.intp)], axis=1)
        deltas = r1[ok]
        s[fixed[:, 0], fixed[:, 1], fixed[:, 2]] += deltas

    verdicts = [
        ChecksumVerdict(
            detected=int(detected[n]),
            uncorrectable=int(uncorrectable[n]),
            max_residual=float(max_residual[n]),
        )
        for n in range(n_trials)
    ]
    for n, row, col in lone:
        verdicts[n].corrections.append(Correction(row=int(row), col=int(col), delta=float("nan")))
    for (n, row, col), delta in zip(fixed, deltas):
        verdicts[n].corrections.append(Correction(row=int(row), col=int(col), delta=float(delta)))
    return verdicts
