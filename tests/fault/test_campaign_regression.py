"""Golden-value regression tests for the seed campaigns.

The campaigns are fully deterministic at a fixed spec/seed (trial ``i``'s
generator is seeded by ``SeedSequence(seed, spawn_key=(i,))``), so their
aggregate statistics are pinned exactly.  These values guard the Figure 12 /
Figure 14 behaviour through any future runner or kernel refactor: a change
that shifts the random stream or the trial arithmetic shows up here first.
"""

from __future__ import annotations

import math

import pytest

from repro.fault.campaign import (
    abft_detection_sweep,
    abft_error_coverage,
    restriction_error_distribution,
    snvr_detection_sweep,
)
from repro.exec import ExperimentSpec, run_experiment

APPROX = dict(rel=1e-9, abs=1e-12)


class TestFigure12Goldens:
    def test_tensor_coverage_golden(self):
        result = abft_error_coverage(1e-7, n_trials=12, scheme="tensor", seed=42)
        assert result.coverage == pytest.approx(0.6764705882352942, **APPROX)
        assert result.detection_rate == 1.0
        assert result.mean_output_error == pytest.approx(0.09785094164908514, rel=1e-6)
        assert [o.injected for o in result.outcomes] == [2, 1, 3, 2, 2, 6, 1, 2, 4, 5, 5, 1]
        assert [o.corrected for o in result.outcomes] == [1, 1, 3, 2, 2, 4, 0, 2, 1, 3, 3, 1]

    def test_element_coverage_golden(self):
        result = abft_error_coverage(1e-7, n_trials=12, scheme="element", seed=42)
        assert result.coverage == pytest.approx(0.20588235294117646, **APPROX)
        assert result.detection_rate == 1.0

    def test_detection_sweep_golden(self):
        # One trial at this seed drives the faulty residual non-finite; it
        # counts as detected at every threshold (isfinite fires before any
        # threshold compare), which lifts all four detection rates by 1/25.
        points = abft_detection_sweep([0.01, 0.2, 0.48, 1.0], n_trials=25, seed=42)
        assert [p.detection_rate for p in points] == pytest.approx([1.0, 0.84, 0.8, 0.72])
        assert [p.false_alarm_rate for p in points] == pytest.approx([1.0, 0.36, 0.28, 0.24])


class TestFigure14Goldens:
    def test_snvr_sweep_golden(self):
        points = snvr_detection_sweep([1e-4, 5e-3, 1e-1], n_trials=25, seed=42)
        assert [p.detection_rate for p in points] == pytest.approx([1.0, 1.0, 1.0])
        assert [p.false_alarm_rate for p in points] == pytest.approx([1.0, 0.0, 0.0])

    def test_selective_restriction_golden(self):
        result = restriction_error_distribution("selective", n_trials=40, seed=42)
        assert result.coverage == pytest.approx(0.525, **APPROX)
        assert result.detection_rate == pytest.approx(0.4, **APPROX)
        assert result.mean_output_error == pytest.approx(0.15529511117767056, rel=1e-6)

    def test_traditional_restriction_golden(self):
        result = restriction_error_distribution("traditional", n_trials=40, seed=42)
        assert result.coverage == pytest.approx(0.4, **APPROX)
        # With the clamp-detection fix, "detected" now means the [0, 1]
        # restriction actually changed a value -- not a blanket True.
        assert result.detection_rate == pytest.approx(0.2, **APPROX)
        assert result.mean_output_error == pytest.approx(1.848551472931274, rel=1e-6)


class TestWrappersAreThin:
    """The public entry points must be exact shims over the engine."""

    def test_coverage_wrapper_matches_spec_run(self):
        wrapped = abft_error_coverage(1e-7, n_trials=6, scheme="tensor", rows=64, cols=64, seed=5)
        spec = ExperimentSpec(
            campaign="abft_error_coverage",
            n_trials=6,
            seed=5,
            params={
                "bit_error_rate": 1e-7,
                "scheme": "tensor",
                "rows": 64,
                "cols": 64,
                "depth": 64,
                "stride": 8,
                "rtol": 0.02,
            },
        )
        assert wrapped.outcomes == run_experiment(spec).result.outcomes

    def test_sweep_wrapper_matches_spec_run(self):
        thresholds = [0.01, 0.48]
        wrapped = abft_detection_sweep(thresholds, n_trials=8, seed=9)
        spec = ExperimentSpec(
            campaign="abft_detection_sweep",
            n_trials=8,
            seed=9,
            params={"thresholds": thresholds, "rows": 64, "cols": 64, "depth": 64, "stride": 8},
        )
        assert wrapped == run_experiment(spec).result

    def test_restriction_wrapper_matches_spec_run(self):
        wrapped = restriction_error_distribution("selective", n_trials=5, seq_len=64, seed=3)
        spec = ExperimentSpec(
            campaign="restriction_error_distribution",
            n_trials=5,
            seed=3,
            params={
                "method": "selective",
                "seq_len": 64,
                "head_dim": 64,
                "block_size": 16,
                "peakedness": 4.0,
            },
        )
        assert wrapped.outcomes == run_experiment(spec).result.outcomes

    def test_invalid_arguments_still_rejected(self):
        with pytest.raises(ValueError):
            abft_error_coverage(1e-7, scheme="bogus")
        with pytest.raises(ValueError):
            restriction_error_distribution("bogus")


class TestRestrictionDetectionFix:
    def test_traditional_detection_is_not_blanket_true(self):
        # Regression for the seed bug: the traditional method reported
        # detected=True unconditionally, even when clamping changed nothing.
        result = restriction_error_distribution("traditional", n_trials=60, seed=11)
        assert 0.0 < result.detection_rate < 1.0

    def test_selective_detects_more_cleanly_than_clamp(self):
        sel = restriction_error_distribution("selective", n_trials=60, seed=11)
        trad = restriction_error_distribution("traditional", n_trials=60, seed=11)
        assert sel.detection_rate > trad.detection_rate
        assert not math.isnan(trad.mean_output_error)


@pytest.mark.slow
class TestFullSweepGoldens:
    """Multi-hundred-trial reproductions of the paper's headline claims."""

    def test_figure12_left_full(self):
        tensor = abft_error_coverage(1e-7, n_trials=200, scheme="tensor", seed=7)
        element = abft_error_coverage(1e-7, n_trials=200, scheme="element", seed=7)
        assert tensor.coverage > element.coverage + 0.3
        assert tensor.coverage > 0.7
        assert element.coverage < 0.4

    def test_figure12_right_full(self):
        points = abft_detection_sweep([0.01, 0.48, 1.0], n_trials=300, seed=8)
        detection = {p.threshold: p.detection_rate for p in points}
        false_alarm = {p.threshold: p.false_alarm_rate for p in points}
        assert detection[0.01] > 0.95
        assert detection[0.48] > 0.55
        assert false_alarm[0.48] < 0.25

    def test_figure14_full(self):
        points = snvr_detection_sweep([1e-4, 5e-3, 1e-1], n_trials=300, seed=21)
        detection = {p.threshold: p.detection_rate for p in points}
        false_alarm = {p.threshold: p.false_alarm_rate for p in points}
        assert detection[5e-3] > 0.9
        assert false_alarm[5e-3] < 0.1
        sel = restriction_error_distribution("selective", n_trials=300, seed=22)
        trad = restriction_error_distribution("traditional", n_trials=300, seed=22)
        assert sel.mean_output_error < trad.mean_output_error
