"""Tests for the Monte-Carlo fault-injection campaigns (small trial counts)."""

import warnings

import numpy as np
import pytest

from repro.exec import ExperimentSpec, run_experiment
from repro.fault.campaign import (
    abft_detection_sweep,
    abft_error_coverage,
    restriction_error_distribution,
    snvr_detection_sweep,
)


class TestABFTErrorCoverage:
    def test_tensor_checksum_covers_more_than_element(self):
        # Figure 12 (left): the 8-wide strided checksum corrects far more
        # fault events than the traditional single-column checksum.
        tensor = abft_error_coverage(1e-7, n_trials=15, scheme="tensor", seed=1)
        element = abft_error_coverage(1e-7, n_trials=15, scheme="element", seed=1)
        assert tensor.coverage > element.coverage + 0.2
        assert tensor.coverage > 0.5

    def test_coverage_defined_even_at_tiny_rate(self):
        result = abft_error_coverage(1e-9, n_trials=5, scheme="tensor", seed=2)
        assert 0.0 <= result.coverage <= 1.0
        assert all(o.injected >= 1 for o in result.outcomes)

    def test_unknown_scheme_rejected(self):
        with pytest.raises(ValueError):
            abft_error_coverage(1e-7, scheme="bogus")

    def test_trial_count_respected(self):
        result = abft_error_coverage(1e-7, n_trials=7, scheme="element", seed=3)
        assert result.n_trials == 7


class TestDetectionSweeps:
    def test_abft_detection_monotonically_nonincreasing(self):
        thresholds = [0.01, 0.1, 0.3, 0.6, 1.0]
        points = abft_detection_sweep(thresholds, n_trials=20, seed=0)
        rates = [p.detection_rate for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))

    def test_abft_false_alarm_monotonically_nonincreasing(self):
        thresholds = [0.01, 0.1, 0.3, 0.6, 1.0]
        points = abft_detection_sweep(thresholds, n_trials=20, seed=0)
        fas = [p.false_alarm_rate for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(fas, fas[1:]))

    def test_abft_extremes(self):
        points = abft_detection_sweep([1e-6, 10.0], n_trials=10, seed=1)
        assert points[0].detection_rate == 1.0
        assert points[0].false_alarm_rate == 1.0
        assert points[-1].false_alarm_rate == 0.0

    def test_abft_good_threshold_separates(self):
        # At the paper's operating point (0.48 on the A100) the detection
        # rate stays high while false alarms mostly vanish.
        (point,) = abft_detection_sweep([0.48], n_trials=30, seed=2)
        assert point.detection_rate > 0.6
        assert point.false_alarm_rate < 0.3

    def test_snvr_sweep_shapes(self):
        thresholds = [1e-4, 1e-2, 0.5]
        points = snvr_detection_sweep(thresholds, n_trials=15, seed=3)
        assert [p.threshold for p in points] == thresholds
        rates = [p.detection_rate for p in points]
        fas = [p.false_alarm_rate for p in points]
        assert all(a >= b - 1e-9 for a, b in zip(rates, rates[1:]))
        assert all(a >= b - 1e-9 for a, b in zip(fas, fas[1:]))

    def test_snvr_operating_point(self):
        (point,) = snvr_detection_sweep([5e-3], n_trials=25, seed=4)
        assert point.detection_rate > 0.7
        assert point.false_alarm_rate < 0.2


class TestRestrictionDistribution:
    def test_selective_tighter_than_traditional(self):
        # Figure 14 (right): SNVR concentrates the residual error near zero,
        # the traditional clamp leaves it widely spread.
        sel = restriction_error_distribution("selective", n_trials=60, seed=5)
        trad = restriction_error_distribution("traditional", n_trials=60, seed=5)
        assert sel.mean_output_error < trad.mean_output_error

    def test_selective_majority_small_errors(self):
        sel = restriction_error_distribution("selective", n_trials=60, seed=6)
        small = np.mean([o.output_rel_error < 0.05 for o in sel.outcomes])
        assert small > 0.5

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            restriction_error_distribution("bogus")

    def test_traditional_zero_denominator_is_restricted_silently(self):
        # Seed 0 flips a rowsum exponent bit to a subnormal denominator: the
        # overflowing divide is the modelled outcome the clamp restricts.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            trad = restriction_error_distribution(
                "traditional", n_trials=100, seq_len=64, head_dim=16, seed=0
            )
        assert trad.n_trials == 100
        assert any(o.detected for o in trad.outcomes)

    def test_distribution_histogram(self):
        sel = restriction_error_distribution("selective", n_trials=30, seed=7)
        edges, fractions = sel.error_distribution(bins=10, upper=0.2)
        assert np.isclose(fractions.sum(), 1.0)


class TestTransformerInferenceCampaign:
    """The registered transformer-level kernel (model x scheme x BER x site)."""

    @staticmethod
    def _spec(**params):
        defaults = {
            "scheme": "efta_unified",
            "site": "gemm_qk",
            "bits": [13, 14],
            "hidden_dim": 32,
            "num_layers": 2,
            "seq_len": 16,
        }
        defaults.update(params)
        return ExperimentSpec(
            campaign="transformer_inference", n_trials=6, seed=3, params=defaults
        )

    def test_registered(self):
        from repro.fault.runner import available_campaigns

        assert "transformer_inference" in available_campaigns()

    def test_protected_scheme_detects_and_corrects(self):
        result = run_experiment(self._spec()).result
        assert result.n_trials == 6
        assert result.detection_rate == 1.0
        assert result.coverage > 0.8
        assert result.mean_output_error < 0.01

    def test_unprotected_scheme_shows_silent_corruption(self):
        protected = run_experiment(self._spec()).result
        unprotected = run_experiment(self._spec(scheme="none")).result
        assert unprotected.detection_rate == 0.0
        assert unprotected.mean_output_error > protected.mean_output_error

    def test_deterministic_across_worker_counts(self):
        spec = self._spec(scheme="decoupled")
        serial = run_experiment(spec).result
        sharded = run_experiment(spec, executor="process", n_workers=3).result
        assert serial.outcomes == sharded.outcomes

    def test_ber_mode_draws_poisson_fault_counts(self):
        result = run_experiment(
            self._spec(bit_error_rate=2e-8, site=["gemm_qk", "linear"])
        ).result
        counts = [o.injected for o in result.outcomes]
        assert any(c == 0 for c in counts) or any(c > 1 for c in counts)

    def test_site_never_executed_is_rejected(self):
        with pytest.raises(ValueError, match="never execute"):
            run_experiment(self._spec(scheme="decoupled", site="subtract_exp")).result

    def test_model_zoo_names_accepted(self):
        result = run_experiment(self._spec(model="T5-Small")).result
        assert result.n_trials == 6


class TestSiteResilienceDefaults:
    """Per-site bits/dtype defaults must not change legacy spec semantics."""

    def _run(self, params):
        spec = ExperimentSpec(campaign="efta_site_resilience", n_trials=6, seed=1, params=params)
        return run_experiment(spec).result

    def test_explicit_bits_keep_legacy_fp16_default(self):
        # Pre-redesign specs pinned fp16-range bits without a dtype; they must
        # still be interpreted as fp16 (as fp32 these are low mantissa bits
        # and detection collapses to ~0).
        legacy = self._run({"site": "gemm_pv", "bits": [8, 10, 12, 13, 14, 15],
                            "seq_len": 96, "head_dim": 32, "block_size": 32})
        explicit = self._run({"site": "gemm_pv", "bits": [8, 10, 12, 13, 14, 15],
                              "dtype": "fp16",
                              "seq_len": 96, "head_dim": 32, "block_size": 32})
        assert legacy.outcomes == explicit.outcomes
        assert legacy.detection_rate >= 0.5

    def test_bare_site_defaults_per_site(self):
        # Grid-friendly: site alone picks a sensible representation.
        bare = self._run({"site": "gemm_qk", "seq_len": 96, "head_dim": 32,
                          "block_size": 32})
        fp16 = self._run({"site": "gemm_qk", "bits": [8, 10, 12, 13, 14, 15],
                          "dtype": "fp16", "seq_len": 96, "head_dim": 32,
                          "block_size": 32})
        assert bare.outcomes == fp16.outcomes
