"""Tests for the unified ExperimentSpec: auto-detection, round-trips, expansion."""

from __future__ import annotations

import json

import pytest

from repro.exec.spec import ExperimentSpec, load_spec
from repro.fault.runner import CampaignSpec

CAMPAIGN_DICT = {
    "campaign": "abft_error_coverage",
    "n_trials": 10,
    "seed": 7,
    "params": {"bit_error_rate": 1e-7, "scheme": "tensor"},
    "name": "one-campaign",
}

SWEEP_DICT = {
    "campaign": "abft_error_coverage",
    "n_trials": 4,
    "seed": 13,
    "base_params": {"rows": 64},
    "grid": {"scheme": ["tensor", "element"], "bit_error_rate": [1e-9, 1e-8]},
    "name": "one-sweep",
}


class TestAutoDetect:
    def test_campaign_shape_detected(self):
        spec = ExperimentSpec.from_dict(CAMPAIGN_DICT)
        assert spec.kind == "campaign"
        assert not spec.is_sweep
        assert spec.n_points == 1

    def test_sweep_shape_detected(self):
        spec = ExperimentSpec.from_dict(SWEEP_DICT)
        assert spec.kind == "sweep"
        assert spec.is_sweep
        assert spec.n_points == 4
        assert spec.axes == ["bit_error_rate", "scheme"]

    def test_load_spec_auto_detects(self):
        assert not load_spec(json.dumps(CAMPAIGN_DICT)).is_sweep
        assert load_spec(json.dumps(SWEEP_DICT)).is_sweep

    def test_params_in_sweep_shape_accepted(self):
        data = dict(SWEEP_DICT)
        data["params"] = data.pop("base_params")
        assert ExperimentSpec.from_dict(data).params == {"rows": 64}

    def test_both_param_spellings_rejected(self):
        data = dict(SWEEP_DICT)
        data["params"] = {"rows": 1}
        with pytest.raises(ValueError, match="not both"):
            ExperimentSpec.from_dict(data)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ValueError, match="bogus"):
            ExperimentSpec.from_dict({**CAMPAIGN_DICT, "bogus": 1})

    def test_non_dict_rejected(self):
        with pytest.raises(ValueError, match="JSON object"):
            ExperimentSpec.from_dict([1, 2])


class TestRoundTrip:
    def test_campaign_shape_round_trips(self):
        spec = ExperimentSpec.from_dict(CAMPAIGN_DICT)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert "grid" not in spec.to_dict()

    def test_sweep_shape_round_trips(self):
        spec = ExperimentSpec.from_dict(SWEEP_DICT)
        assert ExperimentSpec.from_dict(spec.to_dict()) == spec
        assert ExperimentSpec.from_json(spec.to_json()) == spec
        assert spec.to_dict()["base_params"] == {"rows": 64}

    def test_from_dict_does_not_alias_nested_mutables(self):
        data = json.loads(json.dumps(SWEEP_DICT))
        spec = ExperimentSpec.from_dict(data)
        data["grid"]["scheme"].append("mutated")
        assert spec.grid["scheme"] == ["tensor", "element"]


class TestValidation:
    def test_empty_campaign_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="", n_trials=1)

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(campaign="x", n_trials=0)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            ExperimentSpec(campaign="x", n_trials=1, seed=-1)

    def test_empty_grid_axis_rejected(self):
        with pytest.raises(ValueError, match="axis"):
            ExperimentSpec(campaign="x", n_trials=1, grid={"a": []})


class TestExpansion:
    def test_campaign_expands_to_itself(self):
        spec = ExperimentSpec.from_dict(CAMPAIGN_DICT)
        [(point, campaign)] = spec.expanded()
        assert point == {}
        assert campaign == CampaignSpec.from_dict(CAMPAIGN_DICT)

    def test_sweep_expansion_order_is_pinned(self):
        specs = ExperimentSpec.from_dict(SWEEP_DICT).expand()
        # Axes in sorted key order, values in the order given.
        assert [s.name for s in specs] == [
            "one-sweep/bit_error_rate=1e-09,scheme=tensor",
            "one-sweep/bit_error_rate=1e-09,scheme=element",
            "one-sweep/bit_error_rate=1e-08,scheme=tensor",
            "one-sweep/bit_error_rate=1e-08,scheme=element",
        ]
        assert [s.params for s in specs][0] == {
            "rows": 64, "bit_error_rate": 1e-9, "scheme": "tensor"
        }
        assert {(s.seed, s.n_trials, s.campaign) for s in specs} == {
            (13, 4, "abft_error_coverage")
        }

    def test_grid_axis_overrides_base_param(self):
        spec = ExperimentSpec(
            campaign="x", n_trials=1, params={"scheme": "efta"}, grid={"scheme": ["none"]}
        )
        assert [s.params["scheme"] for s in spec.expand()] == ["none"]


class TestBridges:
    def test_campaign_spec_round_trip(self):
        campaign = CampaignSpec.from_dict(CAMPAIGN_DICT)
        assert ExperimentSpec.from_campaign(campaign).as_campaign() == campaign

    def test_as_campaign_refuses_grid(self):
        with pytest.raises(ValueError, match="grid"):
            ExperimentSpec.from_dict(SWEEP_DICT).as_campaign()

    def test_from_any_coercions(self):
        experiment = ExperimentSpec.from_dict(SWEEP_DICT)
        assert ExperimentSpec.from_any(experiment) is experiment
        assert ExperimentSpec.from_any(SWEEP_DICT) == experiment
        assert ExperimentSpec.from_any(json.dumps(SWEEP_DICT)) == experiment
        campaign = CampaignSpec.from_dict(CAMPAIGN_DICT)
        assert ExperimentSpec.from_any(campaign) == ExperimentSpec.from_campaign(campaign)

    def test_from_any_rejects_other_types(self):
        with pytest.raises(TypeError):
            ExperimentSpec.from_any(42)
