"""Adaptive campaign policy: CI-driven early stop and trial top-up.

Fixed ``n_trials`` wastes compute where the detection rate is already tight
and starves rare-event regimes (low BER).  An :class:`AdaptiveSpec` attached
to an :class:`~repro.exec.spec.ExperimentSpec` (the ``"adaptive": {...}``
block, or ``--target-ci`` on the CLI) switches the engine to round-based
execution: each grid point runs ``batch`` trials per round, the committed
records are aggregated, and the point *stops* once the confidence interval
of its ``metric`` is tight enough (half-width at most ``target_ci``), or
its bound clears/misses ``threshold``, or ``max_trials`` is reached --
otherwise it is topped up by another ``batch``.

Determinism: trial ``i``'s seed is ``SeedSequence(seed, spawn_key=(i,))``,
identical to ``SeedSequence(seed).spawn(n)[i]`` for any ``n > i``; rounds grow
by contiguous index ranges, and stopping decisions read *committed records
only* (never in-flight trials), so the executed trial set -- and therefore the
JSONL checkpoint bytes -- is identical for every backend, worker count and
interruption history.

::

    {"campaign": "transformer_inference", "n_trials": 64, "seed": 7,
     "params": {"scheme": "efta_unified", "bit_error_rate": 1e-6},
     "adaptive": {"target_ci": 0.05, "batch": 16, "max_trials": 256}}
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Any

from repro.fault.metrics import INTERVAL_METHODS, binomial_interval

#: Rate metrics an adaptive rule can target (must expose ``metric_counts``).
ADAPTIVE_METRICS = ("detection_rate", "false_alarm_rate", "coverage")

#: Default trials per adaptive round.
DEFAULT_BATCH = 32


@dataclass(frozen=True)
class StopDecision:
    """Outcome of evaluating the stop rule on one point's committed records."""

    stop: bool
    reason: str
    interval: tuple[float, float] | None = None


@dataclass(frozen=True)
class AdaptiveSpec:
    """CI-driven stopping policy of one experiment.

    Attributes
    ----------
    target_ci:
        Target half-width of the metric's confidence interval.  A point
        stops as soon as its interval is at least this tight.
    batch:
        Trials per round (the top-up quantum).
    max_trials:
        Hard per-point cap.  ``0`` (the default) means the experiment's own
        ``n_trials``; set it above ``n_trials`` to let tight targets top
        points up past the initial count.
    confidence:
        Confidence level of the interval (default 0.95).
    method:
        Interval method: ``"wilson"`` (default) or ``"clopper_pearson"``.
    metric:
        The rate the rule watches: ``"detection_rate"`` (default),
        ``"false_alarm_rate"`` or ``"coverage"``.
    threshold:
        Optional decision boundary: a point also stops once its interval
        excludes the threshold (lower bound above it -- cleared -- or upper
        bound below it -- missed), however wide the interval still is.
    """

    target_ci: float
    batch: int = DEFAULT_BATCH
    max_trials: int = 0
    confidence: float = 0.95
    method: str = "wilson"
    metric: str = "detection_rate"
    threshold: float | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.target_ci < 0.5:
            raise ValueError(
                f"target_ci must be in (0, 0.5) (an interval half-width), "
                f"got {self.target_ci}"
            )
        if self.batch < 1:
            raise ValueError(f"batch must be >= 1, got {self.batch}")
        if self.max_trials < 0:
            raise ValueError(
                f"max_trials must be >= 1 (or 0 for the experiment's "
                f"n_trials), got {self.max_trials}"
            )
        if not 0.0 < self.confidence < 1.0:
            raise ValueError(f"confidence must be in (0, 1), got {self.confidence}")
        if self.method not in INTERVAL_METHODS:
            raise ValueError(
                f"unknown interval method {self.method!r}; available: "
                f"{list(INTERVAL_METHODS)}"
            )
        if self.metric not in ADAPTIVE_METRICS:
            raise ValueError(
                f"unknown adaptive metric {self.metric!r}; available: "
                f"{list(ADAPTIVE_METRICS)}"
            )
        if self.threshold is not None and not 0.0 <= self.threshold <= 1.0:
            raise ValueError(
                f"threshold must be a rate in [0, 1], got {self.threshold}"
            )

    # ------------------------------------------------------------------ #
    def resolve_max_trials(self, n_trials: int) -> int:
        """The per-point cap with the ``0 -> n_trials`` default applied."""
        return self.max_trials if self.max_trials else int(n_trials)

    def first_target(self, n_trials: int) -> int:
        """Trial count of the first round."""
        return min(self.batch, self.resolve_max_trials(n_trials))

    def next_target(self, current: int, n_trials: int) -> int:
        """Trial count after topping ``current`` up by one more round."""
        return min(current + self.batch, self.resolve_max_trials(n_trials))

    # ------------------------------------------------------------------ #
    def evaluate(self, aggregate: Any) -> StopDecision:
        """Apply the stop rule to one point's committed-prefix aggregate.

        ``aggregate`` must expose ``metric_counts(metric) -> (successes, n)``
        (:class:`~repro.fault.metrics.CampaignResult` does); a campaign whose
        aggregate does not cannot drive adaptive stopping and fails with a
        clear error naming the type.
        """
        counts = getattr(aggregate, "metric_counts", None)
        if counts is None:
            raise ValueError(
                f"aggregate type {type(aggregate).__name__} does not expose "
                "metric_counts(); the campaign cannot drive adaptive "
                "stopping -- run it with a fixed n_trials instead"
            )
        successes, n = counts(self.metric)
        if n == 0:
            # Unmeasured metric: nothing is bounded yet, keep sampling.
            return StopDecision(stop=False, reason="no observations", interval=None)
        lo, hi = binomial_interval(
            successes, n, confidence=self.confidence, method=self.method
        )
        if self.threshold is not None and lo > self.threshold:
            return StopDecision(
                stop=True,
                reason=f"bound cleared threshold {self.threshold}",
                interval=(lo, hi),
            )
        if self.threshold is not None and hi < self.threshold:
            return StopDecision(
                stop=True,
                reason=f"bound missed threshold {self.threshold}",
                interval=(lo, hi),
            )
        if (hi - lo) / 2.0 <= self.target_ci:
            return StopDecision(
                stop=True,
                reason=f"CI half-width {(hi - lo) / 2.0:.4f} <= {self.target_ci}",
                interval=(lo, hi),
            )
        return StopDecision(
            stop=False,
            reason=f"CI half-width {(hi - lo) / 2.0:.4f} > {self.target_ci}",
            interval=(lo, hi),
        )

    # ------------------------------------------------------------------ #
    # Serialisation (the spec's ``"adaptive": {...}`` block)
    # ------------------------------------------------------------------ #
    def to_dict(self) -> dict:
        """Plain-dict form; optional fields serialise only when set, so the
        block's canonical JSON stays stable as defaults are added."""
        data: dict = {"target_ci": self.target_ci, "batch": self.batch}
        if self.max_trials:
            data["max_trials"] = self.max_trials
        if self.confidence != 0.95:
            data["confidence"] = self.confidence
        if self.method != "wilson":
            data["method"] = self.method
        if self.metric != "detection_rate":
            data["metric"] = self.metric
        if self.threshold is not None:
            data["threshold"] = self.threshold
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "AdaptiveSpec":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        if not isinstance(data, dict):
            raise ValueError(
                f"'adaptive' must be a JSON object, got {type(data).__name__}"
            )
        known = {
            "target_ci", "batch", "max_trials", "confidence", "method",
            "metric", "threshold",
        }
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown AdaptiveSpec fields: {sorted(unknown)}")
        if "target_ci" not in data:
            raise ValueError("'adaptive' block requires a target_ci")
        threshold = data.get("threshold")
        return cls(
            target_ci=float(data["target_ci"]),
            batch=int(data.get("batch", DEFAULT_BATCH)),
            max_trials=int(data.get("max_trials", 0)),
            confidence=float(data.get("confidence", 0.95)),
            method=str(data.get("method", "wilson")),
            metric=str(data.get("metric", "detection_rate")),
            threshold=float(threshold) if threshold is not None else None,
        )

    def to_json(self) -> str:
        """Canonical (sorted-key) JSON form."""
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
