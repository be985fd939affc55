"""Tests for experiment sweep grids: expansion, round-trip, resume."""

import importlib
import json

import numpy as np
import pytest

from repro.analysis.reporting import format_sweep_result
from repro.exec import ExperimentSpec, campaign_results_path, run_experiment
from repro.fault.runner import CampaignSpec, register_campaign

#: A cheap deterministic kernel for sweep-machinery tests; counts invocations
#: through a module-level list so tests can assert "no re-run on resume".
_CALLS: list[tuple] = []


@register_campaign("_sweep_probe")
def _sweep_probe_trial(rng: np.random.Generator, params: dict) -> dict:
    _CALLS.append((params.get("scheme"), params.get("ber")))
    draw = float(rng.random())
    return {
        "injected": 1,
        "detected": int(draw < float(params.get("detect_p", 1.0))),
        "corrected": int(draw < float(params.get("correct_p", 0.5))),
        "false_alarm": False,
        "output_rel_error": draw * 1e-3,
    }


def _sweep(n_trials=4, name="grid-test"):
    return ExperimentSpec(
        campaign="_sweep_probe",
        n_trials=n_trials,
        seed=13,
        params={"detect_p": 1.0, "correct_p": 0.5},
        grid={"scheme": ["none", "efta_unified"], "ber": [1e-9, 1e-8, 1e-7]},
        name=name,
    )


class TestExpansion:
    def test_grid_expands_in_deterministic_order(self):
        specs = _sweep().expand()
        assert len(specs) == 6
        # Axes iterate in sorted key order (ber before scheme), values in the
        # order given; the expansion is the Cartesian product.
        points = [spec.params for spec in specs]
        assert [(p["ber"], p["scheme"]) for p in points] == [
            (1e-9, "none"),
            (1e-9, "efta_unified"),
            (1e-8, "none"),
            (1e-8, "efta_unified"),
            (1e-7, "none"),
            (1e-7, "efta_unified"),
        ]
        assert [s.to_json() for s in _sweep().expand()] == [s.to_json() for s in specs]

    def test_expanded_specs_inherit_base_params_and_seed(self):
        for spec in _sweep().expand():
            assert isinstance(spec, CampaignSpec)
            assert spec.seed == 13
            assert spec.n_trials == 4
            assert spec.params["detect_p"] == 1.0
            assert spec.name.startswith("grid-test/")

    def test_grid_axis_overrides_base_param(self):
        sweep = ExperimentSpec(
            campaign="_sweep_probe",
            n_trials=1,
            params={"scheme": "efta"},
            grid={"scheme": ["none", "decoupled"]},
        )
        assert [s.params["scheme"] for s in sweep.expand()] == ["none", "decoupled"]

    def test_empty_grid_is_single_campaign(self):
        sweep = ExperimentSpec(campaign="_sweep_probe", n_trials=2)
        assert sweep.points() == [{}]
        assert len(sweep.expand()) == 1

    def test_empty_grid_runs_and_checkpoints_to_one_file(self, tmp_path):
        # A gridless spec is one campaign: its results path is a single
        # checkpoint file, not a directory of per-point files.
        sweep = ExperimentSpec(campaign="_sweep_probe", n_trials=2, name="lone")
        out = tmp_path / "lone.jsonl"
        result = run_experiment(sweep, results_path=out)
        assert len(result.points) == 1
        assert result.points[0].result.n_trials == 2
        assert out.is_file()
        assert sorted(p.name for p in tmp_path.iterdir() if p.suffix == ".jsonl") == [
            "lone.jsonl"
        ]

    def test_legacy_sweep_module_is_gone(self):
        # ExperimentSpec + run_experiment is the one way to run a sweep.
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.fault.sweep")

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="", n_trials=1)
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="x", n_trials=0)
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="x", n_trials=1, grid={"a": []})
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="x", n_trials=1, seed=-1)


class TestRoundTrip:
    def test_json_round_trip_is_lossless(self):
        sweep = _sweep()
        assert ExperimentSpec.from_json(sweep.to_json()) == sweep
        assert ExperimentSpec.from_dict(sweep.to_dict()) == sweep
        # Canonical form is stable (sorted keys, no whitespace).
        assert sweep.to_json() == ExperimentSpec.from_json(sweep.to_json()).to_json()

    def test_round_trip_preserves_expansion(self):
        sweep = _sweep()
        reloaded = ExperimentSpec.from_json(sweep.to_json())
        assert [s.to_json() for s in reloaded.expand()] == [
            s.to_json() for s in sweep.expand()
        ]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="unknown ExperimentSpec fields"):
            ExperimentSpec.from_dict({"campaign": "x", "n_trials": 1, "gird": {}})

    def test_from_dict_does_not_alias_caller_mutables(self):
        grid = {"scheme": ["none"]}
        sweep = ExperimentSpec.from_dict({"campaign": "x", "n_trials": 1, "grid": grid})
        grid["scheme"].append("efta")
        assert sweep.grid == {"scheme": ["none"]}

    def test_sweep_vs_campaign_spec_detection(self):
        assert ExperimentSpec.from_dict(json.loads(_sweep().to_json())).is_sweep
        assert not ExperimentSpec.from_dict(
            json.loads(CampaignSpec(campaign="x", n_trials=1).to_json())
        ).is_sweep


class TestRunAndResume:
    def test_run_sweep_aggregates_every_point(self, tmp_path):
        result = run_experiment(_sweep(), results_path=tmp_path)
        assert len(result.points) == 6
        for entry in result.points:
            assert entry.result.n_trials == 4
            assert entry.result.detection_rate == 1.0
        by_point = result.results_by_point()
        assert (1e-9, "none") in by_point

    def test_results_identical_with_and_without_checkpoints(self, tmp_path):
        on_disk = run_experiment(_sweep(), results_path=tmp_path)
        in_memory = run_experiment(_sweep())
        for a, b in zip(on_disk.points, in_memory.points):
            assert a.result.outcomes == b.result.outcomes

    def test_killed_sweep_resumes_without_rerunning_completed_campaigns(self, tmp_path):
        sweep = _sweep()
        # Simulate a sweep killed after two completed campaigns: run only the
        # first two expanded campaigns to completion.
        specs = sweep.expand()
        for index in range(2):
            run_experiment(
                specs[index],
                results_path=campaign_results_path(tmp_path, index, specs[index]),
            )

        _CALLS.clear()
        result = run_experiment(sweep, results_path=tmp_path)
        # The two completed campaigns were loaded from their checkpoints; only
        # the remaining four ran trials (4 campaigns x 4 trials).
        assert len(_CALLS) == 4 * 4
        assert {c[0] for c in _CALLS} <= {"none", "efta_unified"}
        assert len(result.points) == 6

        # A second resume re-runs nothing at all.
        _CALLS.clear()
        resumed = run_experiment(sweep, results_path=tmp_path)
        assert _CALLS == []
        for a, b in zip(result.points, resumed.points):
            assert a.result.outcomes == b.result.outcomes

    def test_merged_report_has_one_row_per_point(self, tmp_path):
        result = run_experiment(_sweep())
        report = format_sweep_result(result)
        lines = report.splitlines()
        assert "sweep: grid-test" in lines[0]
        assert lines[1].split()[:2] == ["ber", "scheme"]
        assert len(lines) == 3 + 6  # title + header + rule + six grid rows
        assert sum("efta_unified" in line for line in lines) == 3
