"""Configuration of the protected attention kernels, the fault-tolerance report,
and the one-trial entry point every attention kernel shares."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.fault.injector import FaultRouter
from repro.fault.models import InjectionRecord


@dataclass(frozen=True)
class AttentionConfig:
    """Shape and fault-tolerance parameters of one attention computation.

    Attributes
    ----------
    seq_len, head_dim:
        Per-head attention extents.
    block_size:
        Row/column block size of the fused kernel (``B_r = B_c = B`` in the
        paper's end-to-end framework).
    checksum_stride:
        Width of the strided tensor checksum; 8 matches the N extent of the
        SM80 MMA atom and must stay at the layout's same-thread stride.
    scale:
        Score scaling factor; ``None`` means ``1/sqrt(head_dim)``.
    exp_product_rtol:
        Relative threshold of the unified EXP/GEMM-I product verification
        (``epsilon_1`` in Algorithm 1).  Calibrated against FP16 round-off so
        that fault-free runs do not alarm (Figure 12, right).
    exp_product_atol:
        Absolute floor of the product verification.  Probability products can
        legitimately be far below 1e-5, so this floor is much smaller than
        ``checksum_atol`` (it only guards exact-zero checksums).
    score_checksum_rtol:
        Relative threshold of the linear strided-checksum verification on the
        score block (used to distinguish GEMM/subtraction errors from EXP
        errors during correction).
    output_checksum_rtol:
        Relative threshold of the final output checksum verification
        (``epsilon_2`` in Algorithm 1).
    checksum_atol:
        Absolute floor added to every threshold (guards near-zero checksums).
    """

    seq_len: int
    head_dim: int
    block_size: int = 128
    checksum_stride: int = 8
    scale: float | None = None
    exp_product_rtol: float = 0.25
    exp_product_atol: float = 1e-30
    score_checksum_rtol: float = 0.02
    output_checksum_rtol: float = 0.05
    checksum_atol: float = 1e-5

    def __post_init__(self) -> None:
        if self.seq_len <= 0 or self.head_dim <= 0:
            raise ValueError("seq_len and head_dim must be positive")
        if self.block_size <= 0:
            raise ValueError("block_size must be positive")
        if self.checksum_stride <= 0:
            raise ValueError("checksum_stride must be positive")

    @property
    def effective_scale(self) -> float:
        """Score scale actually applied (defaults to 1/sqrt(head_dim))."""
        return self.scale if self.scale is not None else float(self.head_dim) ** -0.5

    @property
    def n_blocks(self) -> int:
        """Number of sequence blocks of the fused kernel."""
        return -(-self.seq_len // self.block_size)


@dataclass
class FaultToleranceReport:
    """What the protection machinery observed and did during one forward pass."""

    detections: Counter = field(default_factory=Counter)
    corrections: Counter = field(default_factory=Counter)
    recomputations: Counter = field(default_factory=Counter)
    restorations: Counter = field(default_factory=Counter)
    uncorrectable: Counter = field(default_factory=Counter)
    injected: list[InjectionRecord] = field(default_factory=list)

    def record_detection(self, stage: str, count: int = 1) -> None:
        """A verification step flagged ``count`` mismatches at ``stage``."""
        if count:
            self.detections[stage] += count

    def record_correction(self, stage: str, count: int = 1) -> None:
        """``count`` elements were corrected via checksums at ``stage``."""
        if count:
            self.corrections[stage] += count

    def record_recomputation(self, stage: str, count: int = 1) -> None:
        """``count`` elements/regions were recomputed at ``stage``."""
        if count:
            self.recomputations[stage] += count

    def record_restoration(self, stage: str, count: int = 1) -> None:
        """``count`` values were replaced by the SNVR approximation at ``stage``."""
        if count:
            self.restorations[stage] += count

    def record_uncorrectable(self, stage: str, count: int = 1) -> None:
        """``count`` mismatches could not be attributed/corrected at ``stage``."""
        if count:
            self.uncorrectable[stage] += count

    def record_verdict(self, stage: str, verdict) -> None:
        """Record a checksum verdict's detections, corrections and uncorrectables."""
        self.record_detection(stage, verdict.detected)
        self.record_correction(stage, verdict.corrected)
        self.record_uncorrectable(stage, verdict.uncorrectable)

    # ------------------------------------------------------------------ #
    @property
    def total_detections(self) -> int:
        """Total number of flagged mismatches across all stages."""
        return sum(self.detections.values())

    @property
    def total_corrections(self) -> int:
        """Total corrections (checksum fixes + recomputations + restorations)."""
        return (
            sum(self.corrections.values())
            + sum(self.recomputations.values())
            + sum(self.restorations.values())
        )

    @property
    def detected_any(self) -> bool:
        """True if any verification step raised an alarm."""
        return self.total_detections > 0

    @property
    def clean(self) -> bool:
        """True if nothing was detected and nothing was injected."""
        return not self.detected_any and not self.injected

    def merge(self, other: "FaultToleranceReport") -> "FaultToleranceReport":
        """Accumulate another report (e.g. per-head reports) into this one."""
        self.detections.update(other.detections)
        self.corrections.update(other.corrections)
        self.recomputations.update(other.recomputations)
        self.restorations.update(other.restorations)
        self.uncorrectable.update(other.uncorrectable)
        self.injected.extend(other.injected)
        return self

    def summary(self) -> str:
        """One-line human readable summary."""
        return (
            f"detections={self.total_detections} corrections={sum(self.corrections.values())} "
            f"recomputations={sum(self.recomputations.values())} "
            f"restorations={sum(self.restorations.values())} "
            f"uncorrectable={sum(self.uncorrectable.values())} injected={len(self.injected)}"
        )


class TrialStackedAttention:
    """The shared entry points of every attention kernel.

    A kernel implements one method, ``forward_batched(q, k, v, router) ->
    (out, reports)``, over ``(trials, ..., seq_len, head_dim)`` tensors with
    one :class:`FaultToleranceReport` per trial; ``router`` (a
    :class:`~repro.fault.injector.FaultRouter`) fans each ``corrupt`` offer
    out to every trial's injector on its own slice.  The single-problem
    :meth:`forward` is that call on a one-trial stack.
    """

    def forward(self, q, k, v, injector=None) -> tuple[np.ndarray, FaultToleranceReport]:
        """Attention over ``(..., seq_len, head_dim)`` tensors, faults from ``injector``.

        The report's ``injected`` list holds the records ``injector`` applied
        during this call.
        """
        already_applied = injector.applied_count if injector is not None else 0
        out, reports = self.forward_batched(
            np.asarray(q)[None], np.asarray(k)[None], np.asarray(v)[None],
            FaultRouter.for_trial(injector),
        )
        report = reports[0]
        if injector is not None:
            report.injected.extend(injector.records[already_applied:])
        return out[0], report

    def __call__(self, q, k, v, injector=None):
        return self.forward(q, k, v, injector=injector)

    @staticmethod
    def _per_group(q, k, v, router, forward_group) -> tuple[np.ndarray, list[FaultToleranceReport]]:
        """Run ``forward_group`` over every (batch, head) group of a trial stack.

        The leading dimensions between the trial axis and the last two fold
        into one group axis; ``forward_group(q, k, v, router, reports)`` gets
        one ``(trials, seq_len, head_dim)`` group at a time with the trial
        axis stacked, and records into the per-trial ``reports``.
        """
        q = np.asarray(q, dtype=np.float32)
        k = np.asarray(k, dtype=np.float32)
        v = np.asarray(v, dtype=np.float32)
        if q.shape[:-2] != k.shape[:-2] or q.shape[:-2] != v.shape[:-2]:
            raise ValueError("q, k, v must share leading dimensions")
        if q.shape[-1] != k.shape[-1]:
            raise ValueError("q and k must share the head dimension")
        n_trials = q.shape[0]
        q2, k2, v2 = (x.reshape((n_trials, -1) + x.shape[-2:]) for x in (q, k, v))
        reports = [FaultToleranceReport() for _ in range(n_trials)]
        out = np.empty_like(q2)
        for g in range(q2.shape[1]):
            out[:, g] = forward_group(q2[:, g], k2[:, g], v2[:, g], router, reports)
        return out.reshape(q.shape), reports
