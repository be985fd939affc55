"""Multi-head attention running on a named protection scheme.

The attention kernel is selected from the pluggable scheme registry
(:mod:`repro.core.schemes`) by name -- ``"none"``, ``"efta"``,
``"efta_unified"`` or ``"decoupled"`` -- so every scheme comparison in the
repo flows through this one code path.  The QKV and output projections are
strided-ABFT :class:`~repro.transformer.layers.ProtectedLinear` layers; they
verify their GEMMs whenever the scheme protects linear layers.
"""

from __future__ import annotations

import numpy as np

from repro.attention.tiling import merge_heads, split_heads
from repro.core.config import AttentionConfig, FaultToleranceReport
from repro.core.schemes import build_scheme
from repro.fault.injector import FaultInjector
from repro.transformer.layers import ProtectedLinear

DEFAULT_SCHEME = "efta_unified"


class MultiHeadAttention:
    """QKV projection + scheme-selected attention + output projection.

    Parameters
    ----------
    hidden_dim, num_heads:
        Model shape; the head dimension is ``hidden_dim / num_heads``.
    seq_len:
        Maximum sequence length (sizes the attention configuration).
    attention_block_size:
        Block size of the fused attention kernel.
    scheme:
        Name of a registered protection scheme (``"none"``, ``"efta"``,
        ``"efta_unified"``, ``"decoupled"``).
    """

    def __init__(
        self,
        hidden_dim: int,
        num_heads: int,
        seq_len: int,
        rng: np.random.Generator,
        attention_block_size: int = 128,
        scheme: str = DEFAULT_SCHEME,
        checksum_stride: int = 8,
    ):
        if hidden_dim % num_heads:
            raise ValueError("hidden_dim must be divisible by num_heads")
        self.hidden_dim = hidden_dim
        self.num_heads = num_heads
        self.head_dim = hidden_dim // num_heads
        self.q_proj = ProtectedLinear(hidden_dim, hidden_dim, rng, checksum_stride=checksum_stride)
        self.k_proj = ProtectedLinear(hidden_dim, hidden_dim, rng, checksum_stride=checksum_stride)
        self.v_proj = ProtectedLinear(hidden_dim, hidden_dim, rng, checksum_stride=checksum_stride)
        self.out_proj = ProtectedLinear(hidden_dim, hidden_dim, rng, checksum_stride=checksum_stride)
        config = AttentionConfig(
            seq_len=seq_len,
            head_dim=self.head_dim,
            block_size=attention_block_size,
            checksum_stride=checksum_stride,
        )
        self.scheme_name = scheme
        self.attention = build_scheme(self.scheme_name, config)

    @property
    def protects_linear(self) -> bool:
        """Whether the configured scheme verifies the projection GEMMs."""
        return self.attention.protects_linear

    def __call__(
        self,
        x: np.ndarray,
        injector: FaultInjector | None = None,
        report: FaultToleranceReport | None = None,
    ) -> np.ndarray:
        """Apply self-attention to ``x`` of shape ``(batch, seq_len, hidden_dim)``."""
        x = np.asarray(x, dtype=np.float32)
        if x.ndim != 3:
            raise ValueError("expected input of shape (batch, seq_len, hidden_dim)")
        protect_linear = self.protects_linear
        q = self.q_proj(x, injector=injector, protected=protect_linear)
        k = self.k_proj(x, injector=injector, protected=protect_linear)
        v = self.v_proj(x, injector=injector, protected=protect_linear)
        for proj, stage in ((self.q_proj, "q_proj"), (self.k_proj, "k_proj"), (self.v_proj, "v_proj")):
            self._record(proj, report, stage)

        qh = split_heads(q, self.num_heads)
        kh = split_heads(k, self.num_heads)
        vh = split_heads(v, self.num_heads)
        out_heads, attn_report = self.attention.forward(qh, kh, vh, injector=injector)
        if report is not None:
            report.merge(attn_report)
        out = merge_heads(out_heads)
        projected = self.out_proj(out, injector=injector, protected=protect_linear)
        self._record(self.out_proj, report, "out_proj")
        return projected

    @staticmethod
    def _record(layer: ProtectedLinear, report: FaultToleranceReport | None, stage: str) -> None:
        if report is None or layer.last_verdict is None:
            return
        report.record_detection(stage, layer.last_verdict.detected)
        report.record_correction(stage, layer.last_verdict.corrected)
        report.record_uncorrectable(stage, layer.last_verdict.uncorrectable)
