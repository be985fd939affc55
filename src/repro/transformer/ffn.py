"""Feed-forward block with strided ABFT and activation range restriction (Figure 1).

The paper protects the feed-forward module with two mechanisms: both linear
projections carry strided-ABFT checksums, and the nonlinear activation in
between is range-restricted (a neuron value falling outside the theoretical
output range of the activation is clamped back, the standard lightweight
protection for element-wise nonlinearities).
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.config import FaultToleranceReport
from repro.fault.injector import FaultRouter
from repro.transformer.layers import ProtectedLinear, gelu, record_verdicts


class FeedForward:
    """Two-layer MLP: ``Linear -> activation (range restricted) -> Linear``."""

    def __init__(
        self,
        hidden_dim: int,
        ffn_dim: int,
        rng: np.random.Generator,
        activation: Callable[[np.ndarray], np.ndarray] = gelu,
        activation_bound: float = 50.0,
        checksum_stride: int = 8,
    ):
        self.fc_in = ProtectedLinear(hidden_dim, ffn_dim, rng, checksum_stride=checksum_stride)
        self.fc_out = ProtectedLinear(ffn_dim, hidden_dim, rng, checksum_stride=checksum_stride)
        self.activation = activation
        #: Theoretical bound on the post-activation magnitude; GELU/ReLU never
        #: produce values more negative than ~-0.17, and the positive side is
        #: bounded by the (restricted) pre-activation range.
        self.activation_bound = activation_bound

    def __call__(
        self,
        x: np.ndarray,
        router: FaultRouter,
        reports: list[FaultToleranceReport],
        protected: bool = True,
    ) -> np.ndarray:
        """Apply the block to ``x`` of shape ``(trials, ..., hidden_dim)``.

        ``reports`` holds one report per trial; the linear verdicts and the
        activation restriction counts land in the trial's own report.
        """
        hidden, verdicts = self.fc_in(x, router, protected)
        record_verdicts(reports, "ffn_in", verdicts)
        activated = self.activation(hidden)
        if protected:
            clipped = np.clip(activated, -self.activation_bound, self.activation_bound)
            changed = clipped != activated
            if changed.any():
                counts = changed.reshape(len(reports), -1).sum(axis=1)
                for report, count in zip(reports, counts):
                    report.record_detection("ffn_activation", int(count))
                    report.record_restoration("ffn_activation", int(count))
            activated = clipped
        out, verdicts = self.fc_out(activated, router, protected)
        record_verdicts(reports, "ffn_out", verdicts)
        return out
