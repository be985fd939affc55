"""Decoupled operation-level fault tolerant attention (the paper's baseline).

Section 3.1: attention is executed as three separate kernels -- ABFT-protected
GEMM for ``Q K^T``, DMR-protected row softmax, ABFT-protected GEMM for
``P V`` -- each reading and writing the O(n^2) intermediate tensors in HBM.
This module reproduces the baseline functionally (including its detection and
correction behaviour under fault injection) and exposes its simulated cost and
memory footprint, which is where the OOM at 16 K sequence length and the
3.69-7.56x slowdowns of Figure 9 come from.
"""

from __future__ import annotations

import numpy as np

from repro.core.config import AttentionConfig, TrialStackedAttention
from repro.core.dmr import dmr_row_softmax_stacked
from repro.core.traditional_abft import protected_matmul_stacked
from repro.fault.models import FaultSite
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec


class DecoupledFTAttention(TrialStackedAttention):
    """Three-kernel attention with traditional ABFT + DMR protection.

    :meth:`forward_batched` is the kernel; ``forward`` runs it on a one-trial
    stack.  The HBM footprint of the materialised intermediates (and the
    Figure 9 OOM point) lives in the cost model, see :meth:`cost_breakdown`.
    """

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB):
        self.config = config
        self.spec = spec

    # ------------------------------------------------------------------ #
    def forward_batched(self, q, k, v, router):
        """Protected attention over ``(trials, ..., seq_len, head_dim)`` tensors.

        The two ABFT GEMMs and both softmax executions run stacked over the
        trial axis; checksum encodes, verification and any DMR retries stay
        per trial on slice views.  Returns ``(out, reports)`` with one report
        per trial, aggregating detections/corrections across all (batch,
        head) groups; the reports' ``injected`` lists are left empty (the
        caller owns the per-trial injectors).
        """
        return self._per_group(q, k, v, router, self._forward_group)

    def _forward_group(self, q, k, v, router, reports):
        # Kernel I: ABFT-protected GEMM producing the full score tensor.
        scores, verdicts_qk = protected_matmul_stacked(
            q,
            np.swapaxes(k, -1, -2),
            router,
            scale=self.config.effective_scale,
            site=FaultSite.GEMM_QK,
            atol=self.config.checksum_atol,
            rtol=self.config.score_checksum_rtol,
        )
        # Kernel II: DMR-protected row softmax producing the full P tensor.
        probs, stats_list = dmr_row_softmax_stacked(scores, router)
        # Kernel III: ABFT-protected GEMM producing the attention output.
        out, verdicts_pv = protected_matmul_stacked(
            probs,
            v,
            router,
            scale=1.0,
            site=FaultSite.GEMM_PV,
            atol=self.config.checksum_atol,
            rtol=self.config.output_checksum_rtol,
        )
        for report, verdict_qk, stats, verdict_pv in zip(
            reports, verdicts_qk, stats_list, verdicts_pv
        ):
            report.record_verdict("gemm_qk", verdict_qk)
            report.record_detection("softmax", stats["detected"])
            report.record_recomputation("softmax", stats["rounds"])
            report.record_verdict("gemm_pv", verdict_pv)
        return out

    # ------------------------------------------------------------------ #
    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        """Simulated (roofline) cost of this baseline for a full workload."""
        workload = AttentionWorkload(
            batch=batch,
            heads=heads,
            seq_len=self.config.seq_len,
            head_dim=self.config.head_dim,
            block_size=self.config.block_size,
        )
        model = AttentionCostModel(workload, self.spec)
        return model.decoupled_ft_breakdown()
