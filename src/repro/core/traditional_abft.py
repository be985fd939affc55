"""Traditional operation-level ABFT for GEMM (Huang & Abraham, Equations 8-9).

This is the protection applied by the decoupled baseline of Section 3.1: the
operands are encoded with full-width row/column checksum vectors, the product
is verified by re-reducing it along both axes, and a single corrupted element
is located from the residual ratio and corrected in place.
"""

from __future__ import annotations

import numpy as np

from repro.fp.float16 import fp16_matmul
from repro.gemm.checksum import (
    ChecksumVerdict,
    _threshold,
    encode_column_checksums,
    encode_row_checksums,
    verify_column_checksums,
    verify_row_checksums,
)
from repro.fault.injector import FaultInjector, FaultRouter
from repro.fault.models import FaultSite


def protected_matmul(
    a: np.ndarray,
    b: np.ndarray,
    scale: float = 1.0,
    injector: FaultInjector | None = None,
    site: FaultSite = FaultSite.GEMM_QK,
    atol: float = 1e-3,
    rtol: float = 0.02,
    mixed_precision: bool = True,
) -> tuple[np.ndarray, ChecksumVerdict]:
    """Compute ``(a @ b) * scale`` with traditional ABFT protection.

    The one-trial call of :func:`protected_matmul_stacked`.

    Parameters
    ----------
    a, b:
        2-D operands.
    scale:
        Scalar applied to the product (and, by linearity, to the checksums).
    injector:
        Optional fault injector; the freshly computed product is offered to it
        at ``site`` before verification, modelling a computing-unit fault.
    atol, rtol:
        Verification thresholds (absolute floor + relative to the checksum).
    mixed_precision:
        Use FP16 operands with FP32 accumulation, as the Tensor-Core kernels do.

    Returns
    -------
    (product, verdict):
        The (possibly corrected) product and the merged column/row checksum
        verdict.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 2 or b.ndim != 2:
        raise ValueError("protected_matmul expects 2-D operands")
    c, verdicts = protected_matmul_stacked(
        a[None], b[None], FaultRouter.for_trial(injector), scale=scale, site=site,
        atol=atol, rtol=rtol, mixed_precision=mixed_precision,
    )
    return c[0], verdicts[0]


def protected_matmul_stacked(
    a: np.ndarray,
    b: np.ndarray,
    router,
    scale: float = 1.0,
    site: FaultSite = FaultSite.GEMM_QK,
    atol: float = 1e-3,
    rtol: float = 0.02,
    mixed_precision: bool = True,
) -> tuple[np.ndarray, list[ChecksumVerdict]]:
    """:func:`protected_matmul` over a stacked ``(trials, m, k)`` batch.

    The operands are encoded with two checksum rows of ``a`` and two checksum
    columns of ``b`` (Equations 8-9); the checksum products are computed
    alongside the original GEMM (``C_f = A_c B_r``) and the product is then
    offered to the injectors, modelling a computing-unit fault.  The product
    runs as one batched-last-two-dims matmul; the checksum encodings and
    checksum products stay per trial.  Detection runs once over the stack,
    and only flagged trials are verified by the column/row verify pair, on
    slice views -- so in-place corrections land in the stacked product.
    ``router`` fans the single post-GEMM ``corrupt`` offer out to each
    trial's injector on its slice.
    """
    a = np.asarray(a, dtype=np.float32)
    b = np.asarray(b, dtype=np.float32)
    if a.ndim != 3 or b.ndim != 3:
        raise ValueError("protected_matmul_stacked expects (trials, m, k) operands")
    if a.shape[-1] != b.shape[-2] or a.shape[0] != b.shape[0]:
        raise ValueError(f"stacked dimensions disagree: {a.shape} @ {b.shape}")

    matmul = fp16_matmul if mixed_precision else lambda x, y: np.matmul(x, y).astype(np.float32)

    c = matmul(a, b) * np.float32(scale)
    # The checksum vectors depend on the per-trial operands; encoding and the
    # (1 x k) / (k x 1) checksum products run on slice views, before the
    # corrupt offer.
    checks = []
    for t in range(a.shape[0]):
        ca1, ca2 = encode_column_checksums(a[t])
        br1, br2 = encode_row_checksums(b[t])
        checks.append(
            (
                matmul(ca1[None, :], b[t])[0] * np.float32(scale),
                matmul(ca2[None, :], b[t])[0] * np.float32(scale),
                matmul(a[t], br1[:, None])[:, 0] * np.float32(scale),
                matmul(a[t], br2[:, None])[:, 0] * np.float32(scale),
            )
        )

    router.corrupt(site, c)

    # Detection runs once over the stack.  A finite trial whose column and
    # row residuals are all within threshold gets the verdict the verify pair
    # returns when it corrects nothing; any other trial (a non-finite one too:
    # Python's max of NaNs depends on argument order) runs the verify pair.
    mag = np.abs(c)
    col_res = np.abs(np.stack([chk[0] for chk in checks]) - c.sum(axis=1, dtype=np.float64))
    row_res = np.abs(np.stack([chk[2] for chk in checks]) - c.sum(axis=2, dtype=np.float64))
    clean = (
        np.isfinite(c).all(axis=(1, 2))
        & (col_res <= _threshold(mag.sum(axis=1, dtype=np.float64), atol, rtol)).all(axis=1)
        & (row_res <= _threshold(mag.sum(axis=2, dtype=np.float64), atol, rtol)).all(axis=1)
    )
    clean_max = np.maximum(col_res.max(axis=1, initial=0.0), row_res.max(axis=1, initial=0.0))

    verdicts = []
    for t, (c_col1, c_col2, c_row1, c_row2) in enumerate(checks):
        if clean[t]:
            verdicts.append(ChecksumVerdict(max_residual=float(clean_max[t])))
            continue
        verdict = verify_column_checksums(c[t], c_col1, c_col2, atol=atol, rtol=rtol)
        verdict.merge(verify_row_checksums(c[t], c_row1, c_row2, atol=atol, rtol=rtol))
        verdicts.append(verdict)
    return c, verdicts
