"""End-to-end fault tolerant attention (EFTA), Algorithm 1 of the paper.

The whole attention computation -- both GEMMs, the online softmax, the
rescaling and the final normalisation -- runs as one fused pass over
key/value blocks, with the hybrid protection scheme threaded through it:

* GEMM I, the max subtraction and the exponentiation are protected by the
  strided tensor checksum, reused across the three steps (checksum reuse);
* the reduce-max needs no protection (its error cancels, SNVR case 1);
* the reduce-sum is range-restricted (SNVR case 3);
* GEMM II, the rescale and the normalisation are protected by the output
  tensor checksums accumulated alongside the output.

This class implements the *per-iteration verification* variant ("EFTA" in
Tables 1 and 2).  :class:`repro.core.efta_optimized.EFTAttentionOptimized`
derives the unified-verification variant from it.

Known limitation (shared with the paper's design): a reduce-max fault is not
*corrected* -- its effect cancels between numerator and denominator (SNVR
case 1) as long as the exponentials stay in range.  A corruption large enough
to underflow every exponential of a row zeroes that row's accumulator; the
rowsum restriction flags it (the normaliser falls below its theoretical lower
bound) but the design provides no recomputation path for it.
"""

from __future__ import annotations

import numpy as np

from repro.attention.tiling import partition_blocks
from repro.core.config import AttentionConfig, FaultToleranceReport, TrialStackedAttention
from repro.core.snvr import exp_checksum_propagate, restrict_rowsum_stacked, verify_exp_products
from repro.core.strided_abft import BlockChecksums, StridedABFT
from repro.fault.models import FaultSite
from repro.fp.float16 import fp16_matmul
from repro.hardware.costmodel import AttentionCostModel, AttentionWorkload, CostBreakdown
from repro.hardware.specs import A100_PCIE_40GB, GPUSpec

#: Fraction of the accumulated magnitude |P| |V| used as the output
#: verification's round-off floor.  FP16 accumulation noise is ~5e-4 of the
#: accumulated magnitude; 0.04 * output_checksum_rtol (0.05) puts the floor at
#: 2e-3 of it -- above round-off, below any consequential fault.
_OUTPUT_MAGNITUDE_FLOOR = 0.04


class EFTAttention(TrialStackedAttention):
    """End-to-end fault tolerant attention with per-iteration verification.

    :meth:`forward_batched` is the kernel; ``forward`` runs it on a one-trial
    stack.
    """

    #: Whether verification of GEMM II / rowsum is deferred to the end of the
    #: row-block loop (the unified-verification optimisation of Section 3.4).
    unified_verification: bool = False

    def __init__(self, config: AttentionConfig, spec: GPUSpec = A100_PCIE_40GB):
        self.config = config
        self.spec = spec
        self.abft = StridedABFT(config)

    # ------------------------------------------------------------------ #
    # Public API
    # ------------------------------------------------------------------ #
    def forward_batched(self, q, k, v, router):
        """Protected attention over ``(trials, ..., seq_len, head_dim)`` tensors.

        ``router`` fans each ``corrupt`` offer out to every trial's own
        injector on its slice.  The tile recurrence, the checksum propagation
        and the verification all keep the trial axis (batched-last-two-dims
        matmuls, last-axis reductions), so a trial's slice of every
        intermediate -- and its report counters -- do not depend on the other
        trials.  Verification *detection* runs stacked; only flagged trials
        fall back to the scalar repair path on slice views.

        Returns ``(out, reports)`` with one report per trial.  The reports'
        ``injected`` lists are left empty (the caller owns the per-trial
        injectors and their records).
        """
        return self._per_group(q, k, v, router, self._forward_group)

    def cost_breakdown(self, batch: int, heads: int) -> CostBreakdown:
        """Simulated (roofline) cost of EFTA for a full multi-head workload."""
        workload = AttentionWorkload(
            batch=batch,
            heads=heads,
            seq_len=self.config.seq_len,
            head_dim=self.config.head_dim,
            block_size=self.config.block_size,
        )
        model = AttentionCostModel(workload, self.spec)
        return model.efta_breakdown(
            qk_protection="strided",
            softmax_protection="snvr",
            pv_protection="strided",
            unified_verification=self.unified_verification,
        )

    # ------------------------------------------------------------------ #
    # Fused kernel for one (batch, head) group, stacked over the trials
    # ------------------------------------------------------------------ #
    def _forward_group(
        self,
        q: np.ndarray,
        k: np.ndarray,
        v: np.ndarray,
        router,
        reports: list[FaultToleranceReport],
    ) -> np.ndarray:
        """The fused kernel for one ``(trials, seq, head_dim)`` (batch, head) group.

        Byte-parity rules: the trial axis is never flattened into a GEMM's
        row dimension (a fused 2D GEMM can pick a different kernel blocking
        and drift in the last bits); reductions stay on the last axis; every
        injector sees the ``corrupt`` offer sequence of a one-trial stack.
        """
        cfg = self.config
        scale = cfg.effective_scale
        stride = cfg.checksum_stride
        trials, seq_len, head_dim = q.shape
        out = np.empty((trials, seq_len, head_dim), dtype=np.float32)

        # Value and |V| magnitude checksums depend only on the column block;
        # encode them once per j instead of inside the (i, j) inner loop.
        v_checks = []
        v_abs_c1 = []
        for col_blk in partition_blocks(k.shape[1], cfg.block_size):
            v_checks.append(self.abft.encode_value_checksums(v[:, col_blk]))
            v_abs_c1.append(self.abft.encode_value_checksums(np.abs(v[:, col_blk]))[0])

        for i, row_blk in enumerate(partition_blocks(seq_len, cfg.block_size)):
            q_i = q[:, row_blk]
            rows = q_i.shape[1]
            row_max = np.full((trials, rows), -np.inf, dtype=np.float32)
            row_sum = np.zeros((trials, rows), dtype=np.float32)
            acc = np.zeros((trials, rows, head_dim), dtype=np.float32)
            acc_c1 = np.zeros((trials, rows, stride), dtype=np.float32)
            acc_c2 = np.zeros((trials, rows, stride), dtype=np.float32)
            # Per-class accumulated magnitude |P| |V|: the reference scale the
            # output checksum round-off is measured against (the output itself
            # can cancel to near zero while the accumulated terms stay O(1)).
            acc_mag = np.zeros((trials, rows, stride), dtype=np.float32)
            block_maxes: list[np.ndarray] = []

            for j, col_blk in enumerate(partition_blocks(k.shape[1], cfg.block_size)):
                k_j = k[:, col_blk]
                v_j = v[:, col_blk]
                block = (i, j)

                # --- checksum encoding (CCG) -------------------------------
                score_chk = self.abft.score_block_checksums(q_i, k_j, scale)
                v_c1, v_c2 = v_checks[j]

                # --- GEMM I -------------------------------------------------
                scores = fp16_matmul(q_i, np.swapaxes(k_j, -1, -2)) * np.float32(scale)
                router.corrupt(FaultSite.GEMM_QK, scores, block=block)

                # --- reduce max (SNVR case 1: no protection needed) --------
                local_max = scores.max(axis=-1)
                new_max = np.maximum(row_max, local_max)
                router.corrupt(FaultSite.REDUCE_MAX, new_max, block=block)

                # --- subtraction + exponentiation ---------------------------
                probs = np.exp(scores - new_max[..., None]).astype(np.float32)
                router.corrupt(FaultSite.SUBTRACT_EXP, probs, block=block)

                # --- unified EXP / GEMM I verification ----------------------
                probs, new_max, local_max = self._verify_exp_stage_stacked(
                    scores, probs, row_max, new_max, local_max, score_chk, reports
                )

                # --- reduce sum + SNVR case 3 -------------------------------
                rescale = np.where(
                    np.isfinite(row_max), np.exp(row_max - new_max), 0.0
                ).astype(np.float32)
                new_sum = rescale * row_sum + probs.sum(axis=-1, dtype=np.float32)
                router.corrupt(FaultSite.REDUCE_SUM, new_sum, block=block)
                block_maxes.append(local_max)
                if not self.unified_verification:
                    new_sum = self._restrict_rowsum(
                        new_sum, block_maxes, new_max, (j + 1) * cfg.block_size, reports
                    )
                row_sum = new_sum

                # --- rescale + GEMM II --------------------------------------
                acc_scaled = rescale[..., None] * acc
                router.corrupt(FaultSite.RESCALE, acc_scaled, block=block)
                acc = acc_scaled + fp16_matmul(probs, v_j)
                router.corrupt(FaultSite.GEMM_PV, acc, block=block)
                acc_c1 = rescale[..., None] * acc_c1 + fp16_matmul(probs, v_c1)
                acc_c2 = rescale[..., None] * acc_c2 + fp16_matmul(probs, v_c2)
                acc_mag = rescale[..., None] * acc_mag + fp16_matmul(probs, v_abs_c1[j])

                if not self.unified_verification:
                    verdicts = self.abft.verify_output_stacked(
                        acc, acc_c1, acc_c2, magnitude=_OUTPUT_MAGNITUDE_FLOOR * acc_mag
                    )
                    for report, verdict in zip(reports, verdicts):
                        report.record_verdict("gemm_pv", verdict)

                row_max = new_max

            # --- SNVR rowsum restriction before normalisation ---------------
            row_sum = self._restrict_rowsum(row_sum, block_maxes, row_max, k.shape[1], reports)

            # --- normalisation ----------------------------------------------
            denom = np.where(row_sum > 0.0, row_sum, 1.0).astype(np.float32)
            o_block = acc / denom[..., None]
            router.corrupt(FaultSite.NORMALIZE, o_block, block=(i, -1))
            acc_c1 = acc_c1 / denom[..., None]
            acc_c2 = acc_c2 / denom[..., None]

            # --- final unified verification of GEMM II / rescale / normalise -
            verdicts = self.abft.verify_output_stacked(
                o_block, acc_c1, acc_c2,
                magnitude=_OUTPUT_MAGNITUDE_FLOOR * acc_mag / denom[..., None],
            )
            for report, verdict in zip(reports, verdicts):
                report.record_verdict("output", verdict)

            out[:, row_blk] = o_block
        return out

    # ------------------------------------------------------------------ #
    # Protection helpers
    # ------------------------------------------------------------------ #
    def _verify_exp_stage(
        self,
        scores: np.ndarray,
        probs: np.ndarray,
        prev_max: np.ndarray,
        new_max: np.ndarray,
        local_max: np.ndarray,
        score_chk,
        report: FaultToleranceReport,
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Unified verification of GEMM I, the subtraction and the EXP.

        The score checksum is propagated through the same subtraction and
        exponentiation; a mismatch between the strided products of ``probs``
        and the propagated checksum flags an error.  Linear errors (GEMM /
        subtraction) are corrected via the strided checksums on the score
        block; residual mismatches are attributed to the exponentiation and
        recomputed (Algorithm 1, lines 13-16).

        One subtlety the product check alone cannot see: a corrupted score so
        large that it hijacks the running maximum drives both the propagated
        checksum and the strided products to zero, making the comparison
        degenerate.  Stride classes whose propagated checksum underflowed are
        therefore re-verified against the *linear* score checksum, and when a
        correction lands the maximum and the exponentials are recomputed from
        the repaired scores.

        Returns the (possibly repaired) probabilities, running maximum and
        local maximum.
        """
        cfg = self.config
        stride = cfg.checksum_stride
        p_check = exp_checksum_propagate(score_chk.check1, new_max, score_chk.class_counts)
        bad = verify_exp_products(
            probs, p_check, stride, rtol=cfg.exp_product_rtol, atol=cfg.exp_product_atol
        )
        degenerate = p_check == 0.0
        if not bad.any() and not degenerate.any():
            return probs, new_max, local_max

        if bad.any():
            report.record_detection("exp_product", int(bad.sum()))

        # Attempt linear correction on the score block first (this also covers
        # the degenerate classes where the product comparison is meaningless).
        verdict = self.abft.verify_scores(scores, score_chk)
        if verdict.corrected:
            if not bad.any():
                report.record_detection("gemm_qk", verdict.corrected)
            report.record_correction("gemm_qk", verdict.corrected)
            # The corrupted scores may have polluted the reduce-max; recompute
            # the maximum and the exponentials from the repaired block.
            local_max = scores.max(axis=1)
            new_max = np.maximum(prev_max, local_max)
            probs = np.exp(scores - new_max[:, None]).astype(np.float32)
            p_check = exp_checksum_propagate(score_chk.check1, new_max, score_chk.class_counts)
        report.record_uncorrectable("gemm_qk", verdict.uncorrectable)

        # Anything still inconsistent is an exponentiation error: recompute.
        still_bad = verify_exp_products(
            probs, p_check, stride, rtol=cfg.exp_product_rtol, atol=cfg.exp_product_atol
        )
        if still_bad.any():
            rows, classes = np.nonzero(still_bad)
            for r, c in zip(rows, classes):
                cols = np.arange(c, scores.shape[1], stride)
                probs[r, cols] = np.exp(scores[r, cols] - new_max[r])
            report.record_recomputation("exp", int(len(rows)))
        return probs, new_max, local_max

    def _verify_exp_stage_stacked(
        self,
        scores: np.ndarray,
        probs: np.ndarray,
        prev_max: np.ndarray,
        new_max: np.ndarray,
        local_max: np.ndarray,
        score_chk: BlockChecksums,
        reports: list[FaultToleranceReport],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Stacked EXP/GEMM-I verification: detect once, repair per trial.

        The propagated checksum and the strided-product comparison are
        elementwise over the stack, so one pass computes every trial's ``bad``
        and ``degenerate`` masks -- bitwise the scalar masks per slice.
        Unflagged trials take the scalar early return (nothing touched).  Each
        flagged trial re-runs :meth:`_verify_exp_stage` on slice *views*, so
        the in-place score correction, the max/probs recomputation and the
        report bookkeeping are exactly the scalar path's, landing in the
        stacked arrays.
        """
        cfg = self.config
        stride = cfg.checksum_stride
        p_check = exp_checksum_propagate(
            score_chk.check1, new_max, score_chk.class_counts
        )
        bad = verify_exp_products(
            probs, p_check, stride, rtol=cfg.exp_product_rtol, atol=cfg.exp_product_atol
        )
        degenerate = p_check == 0.0
        n_trials = scores.shape[0]
        flagged = (bad | degenerate).reshape(n_trials, -1).any(axis=1)
        if not flagged.any():
            return probs, new_max, local_max
        for t in np.nonzero(flagged)[0]:
            chk_t = BlockChecksums(
                check1=score_chk.check1[t],
                check2=score_chk.check2[t],
                class_counts=score_chk.class_counts,
            )
            p_t, nm_t, lm_t = self._verify_exp_stage(
                scores[t], probs[t], prev_max[t], new_max[t], local_max[t], chk_t,
                reports[t],
            )
            probs[t] = p_t
            new_max[t] = nm_t
            local_max[t] = lm_t
        return probs, new_max, local_max

    def _restrict_rowsum(
        self,
        row_sum: np.ndarray,
        block_maxes: list[np.ndarray],
        row_max: np.ndarray,
        attended_positions: int,
        reports: list[FaultToleranceReport],
    ) -> np.ndarray:
        """SNVR case 3: range-restrict the running normaliser, per trial."""
        if not block_maxes:
            return row_sum
        stacked = np.stack(block_maxes, axis=0)
        lower = np.exp(stacked - row_max[None, ...]).sum(axis=0).astype(np.float32)
        upper = float(min(attended_positions, self.config.seq_len))
        restricted, counts = restrict_rowsum_stacked(row_sum, lower, upper)
        for report, count in zip(reports, counts):
            n_restored = int(count)
            if n_restored:
                report.record_detection("rowsum", n_restored)
                report.record_restoration("rowsum", n_restored)
        return restricted
