"""Protected Transformer layers: linear (strided ABFT), layer norm, activations, embedding.

The linear modules of the Transformer (QKV projections, attention output
projection, feed-forward matrices, LM head) are protected with the same
strided tensor-checksum ABFT as the attention GEMMs (Figure 1, item 3): the
weight matrix's output features are folded at the Tensor-Core stride, the
checksum columns ride along the GEMM, and the result is verified/corrected by
an intra-thread strided accumulation.
"""

from __future__ import annotations

import os

import numpy as np

from repro.fault.injector import FaultRouter
from repro.fault.models import FaultSite
from repro.fp.float16 import fp16_matmul
from repro.gemm.checksum import (
    ChecksumVerdict,
    encode_strided_row_checksums,
    verify_strided_checksums_stacked,
)


# Float32 constants for the opt-in fast GELU path.  In the default expression
# ``np.sqrt(2.0 / np.pi)`` is a strong float64 scalar that silently promotes
# the whole tanh chain (and the returned array) to float64 under NEP 50.
_SQRT_2_OVER_PI = np.float32(np.sqrt(2.0 / np.pi))
_GELU_CUBIC = np.float32(0.044715)


def gelu(x: np.ndarray) -> np.ndarray:
    """Gaussian error linear unit (tanh approximation, as used by GPT-2/BERT).

    The default evaluation is pinned bit-for-bit (it computes the tanh chain
    in float64 and is part of the campaign byte-parity surface).  Setting the
    environment variable ``REPRO_NUMERICS=fast`` opts into a float32-pure
    evaluation of the same approximation -- roughly half the memory traffic
    -- whose results differ from the default in the low bits.
    """
    mode = os.environ.get("REPRO_NUMERICS", "")
    x = np.asarray(x, dtype=np.float32)
    if mode in ("", "exact"):
        return 0.5 * x * (1.0 + np.tanh(np.sqrt(2.0 / np.pi) * (x + 0.044715 * x**3)))
    if mode == "fast":
        inner = _SQRT_2_OVER_PI * (x + _GELU_CUBIC * (x * x * x))
        return np.float32(0.5) * x * (np.float32(1.0) + np.tanh(inner))
    raise ValueError(
        f"unknown REPRO_NUMERICS mode {mode!r}; expected '', 'exact' or 'fast'"
    )


def relu(x: np.ndarray) -> np.ndarray:
    """Rectified linear unit (T5 feed-forward activation)."""
    return np.maximum(np.asarray(x, dtype=np.float32), 0.0)


class LayerNorm:
    """Layer normalisation over the last dimension."""

    def __init__(self, dim: int, eps: float = 1e-5, rng: np.random.Generator | None = None):
        self.dim = dim
        self.eps = eps
        self.gamma = np.ones(dim, dtype=np.float32)
        self.beta = np.zeros(dim, dtype=np.float32)

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=np.float32)
        mean = x.mean(axis=-1, keepdims=True)
        var = x.var(axis=-1, keepdims=True)
        return self.gamma * (x - mean) / np.sqrt(var + self.eps) + self.beta


class Embedding:
    """Token + learned positional embedding."""

    def __init__(self, vocab_size: int, dim: int, max_seq_len: int, rng: np.random.Generator):
        self.vocab_size = vocab_size
        self.dim = dim
        scale = 1.0 / np.sqrt(dim)
        self.token = (rng.standard_normal((vocab_size, dim)) * scale).astype(np.float32)
        self.position = (rng.standard_normal((max_seq_len, dim)) * scale).astype(np.float32)

    def __call__(self, token_ids: np.ndarray) -> np.ndarray:
        """Embed ``token_ids`` of shape ``(..., batch, seq_len)``."""
        token_ids = np.asarray(token_ids)
        if token_ids.ndim < 2:
            raise ValueError("token_ids must have shape (..., batch, seq_len)")
        if token_ids.max() >= self.vocab_size or token_ids.min() < 0:
            raise ValueError("token id out of vocabulary range")
        seq_len = token_ids.shape[-1]
        if seq_len > self.position.shape[0]:
            raise ValueError(f"sequence length {seq_len} exceeds maximum {self.position.shape[0]}")
        return self.token[token_ids] + self.position[None, :seq_len, :]


class ProtectedLinear:
    """Dense layer ``y = x W + b`` with strided-ABFT protection of the GEMM.

    The weight matrix's output features are folded at ``checksum_stride`` into
    two tensor checksums; multiplying the input by those checksums alongside
    the main GEMM produces output checksums, against which the output is
    verified and (for a single error per row and stride class) corrected.
    """

    def __init__(
        self,
        in_dim: int,
        out_dim: int,
        rng: np.random.Generator,
        bias: bool = True,
        checksum_stride: int = 8,
        checksum_rtol: float = 0.05,
        checksum_atol: float = 1e-5,
    ):
        self.in_dim = in_dim
        self.out_dim = out_dim
        self.checksum_stride = checksum_stride
        self.checksum_rtol = checksum_rtol
        self.checksum_atol = checksum_atol
        scale = 1.0 / np.sqrt(in_dim)
        self.weight = (rng.standard_normal((in_dim, out_dim)) * scale).astype(np.float32)
        self.bias = np.zeros(out_dim, dtype=np.float32) if bias else None
        # Weight checksums are encoded once (weights are static at inference).
        self._w_check1, self._w_check2 = encode_strided_row_checksums(self.weight, checksum_stride)

    def __call__(
        self,
        x: np.ndarray,
        router: FaultRouter,
        protected: bool = True,
    ) -> tuple[np.ndarray, list[ChecksumVerdict] | None]:
        """Apply the layer to ``x`` of shape ``(trials, ..., in_dim)``.

        Each trial's rows are one ``(rows, in_dim) @ (in_dim, out_dim)``
        product: the input is reshaped to ``(trials, rows, in_dim)`` and the
        GEMM is batched on the last two dimensions, never flattened over the
        trial axis (a fused 2D GEMM can pick a different kernel blocking for
        the larger row count and drift in the last bits).  The product is
        offered to ``router`` at :data:`FaultSite.LINEAR`, then -- when
        ``protected`` -- verified and corrected in place against the
        checksum GEMMs before the bias add.

        Returns ``(y, verdicts)`` with one verdict per trial, or
        ``verdicts=None`` when unprotected.
        """
        x = np.asarray(x, dtype=np.float32)
        x3 = x.reshape(x.shape[0], -1, self.in_dim)
        y = fp16_matmul(x3, self.weight)
        router.corrupt(FaultSite.LINEAR, y)
        verdicts = None
        if protected:
            verdicts = verify_strided_checksums_stacked(
                y,
                fp16_matmul(x3, self._w_check1),
                fp16_matmul(x3, self._w_check2),
                stride=self.checksum_stride,
                atol=self.checksum_atol,
                rtol=self.checksum_rtol,
            )
        if self.bias is not None:
            y = y + self.bias
        return y.reshape(x.shape[:-1] + (self.out_dim,)), verdicts


def record_verdicts(reports, stage: str, verdicts) -> None:
    """Record a linear layer's per-trial verdicts in the per-trial reports.

    ``verdicts`` is ``None`` for an unprotected layer, which records nothing.
    """
    if verdicts is not None:
        for report, verdict in zip(reports, verdicts):
            report.record_verdict(stage, verdict)
