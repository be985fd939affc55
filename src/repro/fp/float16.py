"""Mixed-precision (FP16 operand / FP32 accumulate) arithmetic helpers.

The SM80 ``16x8x16 F32F16F16F32`` MMA instruction used throughout the paper
multiplies two half-precision tiles and accumulates the products in single
precision.  The helpers here reproduce that numerical behaviour with NumPy so
that checksum round-off (the source of false alarms in Figures 12 and 14)
matches what a Tensor Core would produce to first order.
"""

from __future__ import annotations

import numpy as np

#: Largest finite half-precision value.
FP16_MAX: float = float(np.finfo(np.float16).max)

#: Smallest positive normal half-precision value.
FP16_MIN_NORMAL: float = float(np.finfo(np.float16).tiny)


def to_fp16(x: np.ndarray | float) -> np.ndarray:
    """Cast ``x`` to half precision (values out of range saturate to inf)."""
    # Saturating to inf beyond FP16_MAX is the modelled half-precision range.
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float16)


def to_fp32(x: np.ndarray | float) -> np.ndarray:
    """Cast ``x`` to single precision."""
    return np.asarray(x, dtype=np.float32)


def fp16_quantize(x: np.ndarray | float) -> np.ndarray:
    """Round ``x`` through half precision and return it as float32.

    This models storing an intermediate result to an FP16 register/shared
    memory tile and reading it back for the next computation stage.
    """
    return np.asarray(x, dtype=np.float16).astype(np.float32)


def machine_epsilon(dtype: np.dtype | type = np.float16) -> float:
    """Return the unit round-off of ``dtype`` (used to calibrate thresholds)."""
    return float(np.finfo(dtype).eps)


def fp16_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiply ``a @ b`` the way a Tensor Core MMA does.

    Operands are quantized to FP16; the multiply-accumulate is carried out in
    FP32 and the result is returned in FP32 (the paper keeps the accumulator
    and the final attention output in FP32 before the final store).

    Parameters
    ----------
    a, b:
        Arrays whose trailing two dimensions are multiplied.  Batched inputs
        (any number of leading dimensions) are supported.

    Returns
    -------
    np.ndarray
        ``a @ b`` with float32 dtype.
    """
    # Operands beyond FP16_MAX (e.g. a flipped exponent bit) saturate to inf,
    # as the tensor-core input cast does; that is the modelled outcome.
    with np.errstate(over="ignore"):
        a16 = np.asarray(a, dtype=np.float16).astype(np.float32)
        b16 = np.asarray(b, dtype=np.float16).astype(np.float32)
    return np.matmul(a16, b16, dtype=np.float32)
