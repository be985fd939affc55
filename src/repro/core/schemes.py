"""Pluggable protection-scheme registry: one interface over every attention variant.

The paper's headline comparisons (Tables 1-2, Figures 9/13/15) are
*cross-scheme*: end-to-end fault tolerant attention (EFTA) against its
unified-verification optimisation, the decoupled three-kernel baseline, and
unprotected flash attention.  This module gives every variant one strategy
interface so that the Transformer stack, the campaign runner, and the
benchmarks select a scheme **by name** instead of hard-wiring classes:

* ``"none"`` -- unprotected flash attention (the paper's performance
  baseline).  Faults injected into it propagate silently -- the silent data
  corruption reference of the coverage studies.
* ``"efta"`` -- end-to-end fault tolerant attention with per-iteration
  verification (:class:`repro.core.efta.EFTAttention`).
* ``"efta_unified"`` -- the unified-verification optimisation, EFTA-opt in
  Tables 1 and 2 (:class:`repro.core.efta_optimized.EFTAttentionOptimized`).
* ``"decoupled"`` -- the three-kernel operation-level baseline
  (:class:`repro.core.decoupled.DecoupledFTAttention`).

Every scheme implements one attention forward,
``forward_batched(q, k, v, router) -> (out, reports)`` over a leading trial
axis, plus ``cost_breakdown(batch, heads)``; the single-problem
``forward(q, k, v, injector) -> (out, report)`` is the one-trial call of
``forward_batched`` shared by all of them.  New schemes register with::

    @register_scheme("my_scheme")
    class MyScheme(ProtectionScheme):
        ...
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import ClassVar

import numpy as np

from repro.attention.flash import flash_attention
from repro.attention.tiling import partition_blocks
from repro.core.config import AttentionConfig, FaultToleranceReport, TrialStackedAttention
from repro.core.decoupled import DecoupledFTAttention
from repro.core.efta import EFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.fault.models import FaultSite
from repro.fp.float16 import fp16_matmul
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.kernel import KernelLedger
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec


class ProtectionScheme(TrialStackedAttention, ABC):
    """Strategy interface shared by every registered protection scheme.

    A scheme implements :meth:`forward_batched`, the one attention forward;
    :meth:`forward` (and calling the scheme) runs it on a one-trial stack.

    Parameters
    ----------
    config:
        The attention shape and fault-tolerance thresholds.
    spec:
        Simulated GPU (used by :meth:`cost_breakdown`).
    """

    #: Registry name, set by :func:`register_scheme`.
    name: ClassVar[str] = ""
    #: Whether the surrounding layers (QKV/output projections, feed-forward)
    #: should verify their GEMMs when running under this scheme.
    protects_linear: ClassVar[bool] = True

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB):
        self.config = config
        self.spec = spec

    # ------------------------------------------------------------------ #
    @abstractmethod
    def forward_batched(self, q, k, v, router) -> tuple[np.ndarray, list[FaultToleranceReport]]:
        """Attention over a stacked leading *trial* axis.

        ``q``/``k``/``v`` have shape ``(trials, ..., seq_len, head_dim)``;
        ``router`` (a :class:`repro.fault.injector.FaultRouter`) fans every
        ``corrupt(site, array, block)`` offer out to each trial's own
        injector on ``array[t]``.  Returns ``(out, reports)`` with one
        :class:`~repro.core.config.FaultToleranceReport` per trial.  A
        trial's slice of ``out`` and its report must not depend on the other
        trials in the stack: matmuls stay batched on the last two
        dimensions, reductions run over the last axis, and every injector
        sees the offers a one-trial stack would make.
        """

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        """Simulated (roofline) cost of this scheme for a full multi-head workload."""
        raise NotImplementedError

    def fits_in_memory(self, batch: int, heads: int) -> bool:
        """Whether the scheme's working set fits the simulated device HBM.

        Fused O(n) schemes always fit; the decoupled baseline materialises the
        O(n^2) intermediates and overrides this (the Figure 9 OOM point).
        """
        return True

    # ------------------------------------------------------------------ #
    def _cost_model(self, batch: int, heads: int) -> AttentionCostModel:
        workload = AttentionWorkload(
            batch=batch,
            heads=heads,
            seq_len=self.config.seq_len,
            head_dim=self.config.head_dim,
            block_size=self.config.block_size,
        )
        return AttentionCostModel(workload, self.spec)


# --------------------------------------------------------------------------- #
# Registry
# --------------------------------------------------------------------------- #
_SCHEMES: dict[str, type[ProtectionScheme]] = {}


def register_scheme(name: str):
    """Class decorator registering a :class:`ProtectionScheme` under ``name``."""

    def decorator(cls: type[ProtectionScheme]) -> type[ProtectionScheme]:
        if not name:
            raise ValueError("scheme name must be non-empty")
        if name in _SCHEMES:
            raise ValueError(f"protection scheme {name!r} is already registered")
        cls.name = name
        _SCHEMES[name] = cls
        return cls

    return decorator


def available_schemes() -> list[str]:
    """Sorted names of all registered protection schemes."""
    return sorted(_SCHEMES)


def get_scheme(name: str) -> type[ProtectionScheme]:
    """Look up a registered scheme class by name."""
    try:
        return _SCHEMES[name]
    except KeyError:
        raise ValueError(
            f"unknown protection scheme {name!r}; registered: {available_schemes()}"
        ) from None


def build_scheme(
    name: str,
    config: AttentionConfig,
    spec: GPUSpec = A100_PCIE_40GB,
) -> ProtectionScheme:
    """Instantiate the scheme registered under ``name`` for ``config``."""
    return get_scheme(name)(config, spec=spec)


# --------------------------------------------------------------------------- #
# "none": unprotected flash attention
# --------------------------------------------------------------------------- #
#: The sites the unprotected tile loop offers to the injectors.
_TILE_SITES = (
    FaultSite.GEMM_QK,
    FaultSite.REDUCE_MAX,
    FaultSite.SUBTRACT_EXP,
    FaultSite.REDUCE_SUM,
    FaultSite.RESCALE,
    FaultSite.GEMM_PV,
    FaultSite.NORMALIZE,
)


@register_scheme("none")
class UnprotectedAttention(ProtectionScheme):
    """Unprotected flash-style attention: the performance baseline.

    The fault-free numerics are bit-identical to
    :func:`repro.attention.flash.flash_attention` with ``mixed_precision=True``
    (FP16 score GEMM, FP32 accumulation).  When a trial's injector may still
    fire inside attention, the tile loop below runs instead: it offers every
    intermediate to the injectors at the same sites as EFTA, so injected
    faults propagate to the output *undetected* -- the
    silent-data-corruption reference the coverage campaigns compare
    protected schemes against.

    The choice comes from the planned faults: with no pending fault at an
    attention site the offers would change nothing, so the vectorised
    ``flash_attention`` recurrence answers (a site-counting probe always
    reports pending faults and so always gets the offers).  The recurrence is
    spelled out here (like EFTA's own loop) rather than reusing
    ``OnlineSoftmaxState`` because the injectors must see each intermediate
    between the fused update's steps; bit-identity with ``flash_attention``
    is pinned by
    ``tests/core/test_schemes.py::TestParityWithHardwiredClasses``.
    """

    protects_linear = False

    def forward_batched(self, q, k, v, router):
        """No verification happens under this scheme: the reports stay empty."""
        if router.pending_at(_TILE_SITES):
            return self._per_group(q, k, v, router, self._tile_loop)
        cfg = self.config
        out = flash_attention(
            q, k, v, scale=cfg.effective_scale, block_size=cfg.block_size, mixed_precision=True
        )
        return out, [FaultToleranceReport() for _ in range(out.shape[0])]

    def _tile_loop(self, q, k, v, router, reports):
        """One ``(trials, seq_len, head_dim)`` group through the offered tile loop."""
        cfg = self.config
        scale = np.float32(cfg.effective_scale)
        trials, seq_len, head_dim = q.shape
        out = np.empty((trials, seq_len, head_dim), dtype=np.float32)
        for i, row_blk in enumerate(partition_blocks(seq_len, cfg.block_size)):
            q_i = q[:, row_blk]
            rows = q_i.shape[1]
            row_max = np.full((trials, rows), -np.inf, dtype=np.float32)
            row_sum = np.zeros((trials, rows), dtype=np.float32)
            acc = np.zeros((trials, rows, head_dim), dtype=np.float32)
            for j, col_blk in enumerate(partition_blocks(k.shape[1], cfg.block_size)):
                k_j = k[:, col_blk]
                v_j = v[:, col_blk]
                block = (i, j)
                scores = fp16_matmul(q_i, np.swapaxes(k_j, -1, -2)) * scale
                router.corrupt(FaultSite.GEMM_QK, scores, block=block)
                local_max = scores.max(axis=-1)
                new_max = np.maximum(row_max, local_max)
                router.corrupt(FaultSite.REDUCE_MAX, new_max, block=block)
                probs = np.exp(scores - new_max[..., None]).astype(np.float32)
                router.corrupt(FaultSite.SUBTRACT_EXP, probs, block=block)
                rescale = np.exp(row_max - new_max).astype(np.float32)
                rescale = np.where(np.isfinite(rescale), rescale, 0.0).astype(np.float32)
                row_sum = rescale * row_sum + probs.sum(axis=-1, dtype=np.float32)
                router.corrupt(FaultSite.REDUCE_SUM, row_sum, block=block)
                acc_scaled = rescale[..., None] * acc
                router.corrupt(FaultSite.RESCALE, acc_scaled, block=block)
                # FP32 value accumulation, matching flash_attention's
                # OnlineSoftmaxState.update (only the score GEMM is FP16).
                acc = acc_scaled + np.matmul(probs, v_j)
                router.corrupt(FaultSite.GEMM_PV, acc, block=block)
                row_max = new_max
            denom = np.where(row_sum > 0.0, row_sum, 1.0)
            o_block = (acc / denom[..., None]).astype(np.float32)
            router.corrupt(FaultSite.NORMALIZE, o_block, block=(i, -1))
            out[:, row_blk] = o_block
        return out

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        model = self._cost_model(batch, heads)
        base = KernelLedger(self.spec)
        base.add(model.flash_attention_cost())
        return CostBreakdown(name="unprotected", spec=self.spec, base=base, protection={})


# --------------------------------------------------------------------------- #
# Wrappers over the existing protected kernels
# --------------------------------------------------------------------------- #
class _KernelScheme(ProtectionScheme):
    """Base for schemes that delegate to an existing attention kernel class."""

    kernel_cls: ClassVar[type] = None

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB):
        super().__init__(config, spec)
        self.kernel = self.kernel_cls(config, spec=spec)

    def forward_batched(self, q, k, v, router):
        return self.kernel.forward_batched(q, k, v, router)

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        return self.kernel.cost_breakdown(batch, heads)


@register_scheme("efta")
class EFTAScheme(_KernelScheme):
    """End-to-end fault tolerant attention, per-iteration verification."""

    kernel_cls = EFTAttention


@register_scheme("efta_unified")
class EFTAUnifiedScheme(_KernelScheme):
    """Optimized EFTA with unified (deferred) verification -- EFTA-opt."""

    kernel_cls = EFTAttentionOptimized


@register_scheme("decoupled")
class DecoupledScheme(_KernelScheme):
    """Three-kernel operation-level baseline (traditional ABFT + DMR)."""

    kernel_cls = DecoupledFTAttention

    def fits_in_memory(self, batch: int, heads: int) -> bool:
        return self._cost_model(batch, heads).decoupled_fits_in_memory()
