"""Golden-text tests for the report formatting helpers.

The formatted tables are the repo's experiment log (captured into
EXPERIMENTS.md by the benchmark harness), so their exact text is pinned here;
trailing whitespace is insignificant and stripped per line.
"""

from __future__ import annotations

import pytest

from repro.analysis.reporting import (
    format_campaign_result,
    format_experiment_result,
    format_point_result,
    format_series,
    format_sweep_result,
    format_table,
    format_threshold_sweep,
)
from repro.exec.results import ExperimentResult, PointResult, RecordSummary, TrialRecordSet
from repro.exec.spec import ExperimentSpec
from repro.fault.campaign import ThresholdSweepPoint
from repro.fault.metrics import CampaignResult, TrialOutcome


def lines(text: str) -> list[str]:
    return [line.rstrip() for line in text.splitlines()]


def campaign_result(detected: int = 2, n: int = 2) -> CampaignResult:
    result = CampaignResult()
    for i in range(n):
        result.add(
            TrialOutcome(
                injected=1,
                detected=int(i < detected),
                corrected=1,
                output_rel_error=0.0,
            )
        )
    return result


class TestFormatTable:
    def test_golden(self):
        text = format_table(
            ["name", "value"], [["alpha", 1.5], ["b", 0.25]], title="T"
        )
        assert lines(text) == [
            "T",
            "name   value",
            "-----  -----",
            "alpha  1.500",
            "b      0.250",
        ]

    def test_small_floats_use_significant_digits(self):
        text = format_table(["x"], [[1e-8], [0.0]])
        assert lines(text) == ["x", "-----", "1e-08", "0.000"]


class TestFormatSeries:
    def test_golden(self):
        assert (
            format_series("rate", [1, 2], [0.5, 0.25])
            == "rate: 1=0.5, 2=0.25"
        )

    def test_custom_format(self):
        assert (
            format_series("t", [0.1], [1.0], fmt="{:.1f}") == "t: 0.1=1.0"
        )


class TestFormatCampaignResult:
    def test_golden(self):
        text = format_campaign_result(campaign_result(), title="campaign: x (2 trials)")
        assert lines(text) == [
            "campaign: x (2 trials)",
            "trials  injected  clean  detection rate  false alarm rate  coverage  mean output error",
            "------  --------  -----  --------------  ----------------  --------  -----------------",
            "2       2         0      1.000           0.000             1.000     0.000",
        ]

    def test_record_summary_renders_its_fields(self):
        text = format_campaign_result(RecordSummary({"scheme": "efta", "total_time": 0.5}))
        assert lines(text) == [
            "scheme  total_time",
            "------  ----------",
            "efta    0.500",
        ]

    def test_non_summary_object_rejected(self):
        with pytest.raises(TypeError, match="SummaryProtocol"):
            format_campaign_result({"detection_rate": 1.0})


class TestFormatThresholdSweep:
    POINTS = [
        ThresholdSweepPoint(threshold=0.01, detection_rate=1.0, false_alarm_rate=0.5),
        ThresholdSweepPoint(threshold=0.5, detection_rate=0.75, false_alarm_rate=0.0),
    ]

    def test_golden(self):
        assert lines(format_threshold_sweep(self.POINTS, title="T")) == [
            "T",
            "fault detection rate: 0.01=1, 0.5=0.75",
            "false alarm rate: 0.01=0.5, 0.5=0",
        ]


def _sweep_result(results) -> ExperimentResult:
    sweep = ExperimentSpec(
        campaign="c",
        n_trials=2,
        grid={"scheme": ["a", "b"]},
        name="golden",
    )
    points = []
    for index, ((point, spec), result) in enumerate(zip(sweep.expanded(), results)):
        points.append(
            PointResult(
                index=index,
                point=point,
                spec=spec,
                records=TrialRecordSet(spec=spec),
                result=result,
            )
        )
    return ExperimentResult(spec=sweep, points=points)


class TestFormatSweepResult:
    def test_golden_campaign_stats(self):
        result = _sweep_result([campaign_result(2), campaign_result(1)])
        assert lines(format_sweep_result(result)) == [
            "sweep: golden (2 campaigns x 2 trials)",
            "scheme  trials  injected  clean  detection  false alarm  coverage  mean err",
            "------  ------  --------  -----  ---------  -----------  --------  --------",
            "a       2       2         0      1.000      0.000        1.000     0.000",
            "b       2       2         0      0.500      0.000        1.000     0.000",
        ]

    def test_golden_threshold_lists_render_compact(self):
        result = _sweep_result(
            [TestFormatThresholdSweep.POINTS, TestFormatThresholdSweep.POINTS]
        )
        text = format_sweep_result(result)
        assert lines(text)[1] == "scheme  result"
        assert "t=0.010 det=1.00 fa=0.50" in text

    def test_record_summaries_render_dynamic_columns(self):
        result = _sweep_result(
            [
                RecordSummary({"scheme": "a", "total_time": 1.0, "fits_in_memory": True}),
                RecordSummary({"scheme": "b", "total_time": 2.0, "fits_in_memory": False}),
            ]
        )
        text = format_sweep_result(result)
        # The summary's own "scheme" key is dropped: it is already an axis.
        assert lines(text)[1] == "scheme  total_time  fits_in_memory"
        assert lines(text)[3] == "a       1.000       True"

    def test_summary_lacking_object_raises_clear_error(self):
        result = _sweep_result([campaign_result(), {"raw": "dict"}])
        with pytest.raises(TypeError, match="SummaryProtocol"):
            format_sweep_result(result)

    def test_mismatched_summary_keys_raise_clear_error(self):
        result = _sweep_result(
            [RecordSummary({"x": 1.0}), RecordSummary({"y": 2.0})]
        )
        with pytest.raises(ValueError, match="lacks keys"):
            format_sweep_result(result)

    def test_custom_title(self):
        result = _sweep_result([campaign_result(), campaign_result()])
        assert format_sweep_result(result, title="my title").splitlines()[0] == "my title"


class TestFormatExperimentResult:
    def test_campaign_title_and_dispatch(self):
        from repro.exec.engine import run_experiment
        from repro.exec.spec import ExperimentSpec

        spec = ExperimentSpec(
            campaign="abft_error_coverage",
            n_trials=2,
            seed=7,
            params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 32, "cols": 32},
        )
        text = format_experiment_result(run_experiment(spec))
        assert text.splitlines()[0] == "campaign: abft_error_coverage (2 trials)"
        assert "detection rate" in text

    def test_sweep_dispatch(self):
        from repro.exec.engine import run_experiment
        from repro.exec.spec import ExperimentSpec

        spec = ExperimentSpec(
            campaign="abft_error_coverage",
            n_trials=2,
            seed=7,
            params={"bit_error_rate": 1e-7, "rows": 32, "cols": 32},
            grid={"scheme": ["tensor", "element"]},
            name="exp-golden",
        )
        text = format_experiment_result(run_experiment(spec))
        assert text.splitlines()[0] == "sweep: exp-golden (2 campaigns x 2 trials)"


class TestFormatPointResult:
    def test_falls_back_to_repr_for_plain_objects(self):
        assert format_point_result(42, title="t") == "t\n42"

    def test_threshold_list_dispatch(self):
        text = format_point_result(TestFormatThresholdSweep.POINTS)
        assert text.startswith("fault detection rate")
