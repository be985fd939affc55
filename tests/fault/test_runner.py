"""Tests for campaign specs and the trial-kernel registry, run through the
experiment engine: determinism, resume, CLI."""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.exec import ExperimentSpec, run_experiment
from repro.exec.checkpoint import TrialCheckpoint
from repro.exec.cli import main
from repro.fault.metrics import CampaignResult
from repro.fault.runner import (
    CampaignSpec,
    _run_trial_batch,
    available_campaigns,
    get_campaign,
    register_campaign,
    register_campaign_batch,
)


@pytest.fixture(autouse=True)
def _registry_snapshot():
    """Undo test-local register_campaign calls so reruns in one process pass."""
    from repro.fault import runner as runner_module

    # Materialise the built-ins first: they register on module import, which
    # happens only once per process, so they must survive the restore.
    runner_module.available_campaigns()
    saved = dict(runner_module._REGISTRY)
    yield
    runner_module._REGISTRY.clear()
    runner_module._REGISTRY.update(saved)


def run_spec(spec, n_workers: int = 1, results_path=None):
    """Run one campaign spec on the serial (1 worker) or process backend."""
    return run_experiment(
        ExperimentSpec.from_any(spec),
        executor="serial" if n_workers == 1 else "process",
        n_workers=n_workers,
        results_path=results_path,
    ).result


SPEC = CampaignSpec(
    campaign="abft_error_coverage",
    n_trials=10,
    seed=7,
    params={"bit_error_rate": 1e-7, "scheme": "tensor", "rows": 64, "cols": 64},
)

SWEEP_SPEC = CampaignSpec(
    campaign="abft_detection_sweep",
    n_trials=8,
    seed=3,
    params={"thresholds": [0.01, 0.3, 1.0], "rows": 32, "cols": 32, "depth": 32},
)


class TestSpec:
    def test_dict_round_trip(self):
        assert CampaignSpec.from_dict(SPEC.to_dict()) == SPEC

    def test_json_round_trip(self):
        assert CampaignSpec.from_json(SPEC.to_json()) == SPEC

    def test_unknown_field_rejected(self):
        data = SPEC.to_dict()
        data["bogus"] = 1
        with pytest.raises(ValueError, match="bogus"):
            CampaignSpec.from_dict(data)

    def test_invalid_trials_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(campaign="abft_error_coverage", n_trials=0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError):
            CampaignSpec(campaign="", n_trials=1)

    def test_label_defaults_to_campaign(self):
        assert SPEC.label == "abft_error_coverage"
        named = CampaignSpec(campaign="abft_error_coverage", n_trials=1, name="x")
        assert named.label == "x"

    def test_trial_seeds_match_spawn_count(self):
        assert len(SPEC.trial_seeds()) == SPEC.n_trials

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError, match="seed"):
            CampaignSpec(campaign="c", n_trials=1, seed=-1)

    def test_from_dict_does_not_alias_nested_params(self):
        data = {"campaign": "c", "n_trials": 1, "params": {"thresholds": [0.1]}}
        spec = CampaignSpec.from_dict(data)
        data["params"]["thresholds"].append(0.5)
        assert spec.params == {"thresholds": [0.1]}


class TestRegistry:
    def test_builtins_registered(self):
        names = available_campaigns()
        for expected in (
            "abft_error_coverage",
            "abft_detection_sweep",
            "snvr_detection_sweep",
            "restriction_error_distribution",
            "efta_site_resilience",
        ):
            assert expected in names

    def test_unknown_campaign_rejected(self):
        with pytest.raises(ValueError, match="unknown campaign"):
            get_campaign("nonexistent_campaign")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):

            @register_campaign("abft_error_coverage")
            def _clash(rng, params):  # pragma: no cover - never runs
                return {}

    def test_sweep_without_thresholds_fails_fast(self):
        spec = CampaignSpec(campaign="abft_detection_sweep", n_trials=500, seed=0, params={})
        with pytest.raises(ValueError, match="thresholds"):
            # Must raise on trial 0, not after 500 trials in the aggregator.
            run_spec(spec)

    def test_trial_params_isolated_between_trials(self):
        @register_campaign("test_runner_param_mutator")
        def _mutator(rng, params):
            # A kernel that consumes a nested param must not leak the
            # mutation into later trials (results would depend on sharding).
            params["queue"].pop()
            return {"injected": 1, "detected": len(params["queue"])}

        spec = CampaignSpec(
            campaign="test_runner_param_mutator",
            n_trials=6,
            seed=0,
            params={"queue": [1, 2, 3]},
        )
        result = run_spec(spec)
        assert [o.detected for o in result.outcomes] == [2] * 6

    def test_custom_campaign_runs_in_process(self):
        @register_campaign("test_runner_custom_counter")
        def _counter(rng, params):
            return {"injected": 1, "detected": 1, "corrected": int(rng.integers(2))}

        spec = CampaignSpec(campaign="test_runner_custom_counter", n_trials=6, seed=0)
        result = run_spec(spec)
        assert isinstance(result, CampaignResult)
        assert result.n_trials == 6


class TestDeterminism:
    def test_worker_count_does_not_change_result(self):
        serial = run_spec(SPEC, n_workers=1)
        sharded = run_spec(SPEC, n_workers=4)
        assert serial.outcomes == sharded.outcomes

    def test_sweep_identical_across_workers(self):
        serial = run_spec(SWEEP_SPEC, n_workers=1)
        sharded = run_spec(SWEEP_SPEC, n_workers=3)
        assert serial == sharded

    def test_results_file_bytes_identical_across_workers(self, tmp_path):
        one = tmp_path / "w1.jsonl"
        four = tmp_path / "w4.jsonl"
        run_spec(SPEC, n_workers=1, results_path=one)
        run_spec(SPEC, n_workers=4, results_path=four)
        assert one.read_bytes() == four.read_bytes()

    def test_different_seeds_differ(self):
        other = CampaignSpec.from_dict({**SPEC.to_dict(), "seed": 8})
        assert run_spec(SPEC).outcomes != run_spec(other).outcomes


class TestPoolBatchSeeds:
    """A pool batch derives only its own trials' seeds, never the prefix."""

    HIGH = (10**6, 10**6 + 3)

    @pytest.mark.parametrize("batched", [False, True])
    def test_high_indices_without_prefix_spawn(self, monkeypatch, batched):
        @register_campaign("test_runner_seed_draw")
        def _draw(rng, params):
            return {"draw": int(rng.integers(2**63))}

        if batched:

            @register_campaign_batch("test_runner_seed_draw")
            def _draw_batch(rngs, params):
                return [_draw(rng, params) for rng in rngs]

        # numpy numbers spawned children from ``n_children_spawned``, so these
        # are exactly the last four seeds of ``SeedSequence(5).spawn(10**6 + 4)``
        # without materialising the million before them.
        tail = np.random.SeedSequence(5, n_children_spawned=10**6).spawn(4)
        expected = {
            10**6 + k: {"draw": int(np.random.default_rng(seq).integers(2**63))}
            for k, seq in enumerate(tail)
        }

        class NoSpawn(np.random.SeedSequence):
            def spawn(self, n_children):
                raise AssertionError(f"spawn({n_children}) on the pool batch path")

        monkeypatch.setattr(np.random, "SeedSequence", NoSpawn)
        spec = CampaignSpec(campaign="test_runner_seed_draw", n_trials=1, seed=5)
        records = _run_trial_batch(spec.to_dict(), list(self.HIGH))
        assert records == [(index, expected[index]) for index in self.HIGH]


class TestResume:
    def test_interrupted_run_resumes_to_same_result(self, tmp_path):
        # Uninterrupted reference run.
        full_path = tmp_path / "full.jsonl"
        reference = run_spec(SPEC, n_workers=1, results_path=full_path)

        # Simulate a run killed mid-campaign: keep the header and the first
        # four finished trials, truncate the rest (plus a torn partial line).
        partial_path = tmp_path / "partial.jsonl"
        lines = full_path.read_text().splitlines()
        partial_path.write_text("\n".join(lines[:5]) + '\n{"trial": 9, "rec')

        resumed = run_spec(SPEC, n_workers=2, results_path=partial_path)
        assert resumed.outcomes == reference.outcomes
        assert partial_path.read_bytes() == full_path.read_bytes()

    def test_completed_run_is_not_recomputed(self, tmp_path):
        path = tmp_path / "done.jsonl"
        reference = run_spec(SPEC, results_path=path)
        before = path.read_bytes()
        again = run_spec(SPEC, results_path=path)
        assert again.outcomes == reference.outcomes
        assert path.read_bytes() == before

    def test_resume_ignores_cosmetic_name_label(self, tmp_path):
        path = tmp_path / "named.jsonl"
        reference = run_spec(SPEC, results_path=path)
        renamed = CampaignSpec.from_dict({**SPEC.to_dict(), "name": "relabelled"})
        assert run_spec(renamed, results_path=path).outcomes == reference.outcomes

    def test_append_after_torn_final_line_stays_parseable(self, tmp_path):
        # A kill mid-write leaves no trailing newline; the next appended
        # record must start on a fresh line, not merge into the torn one.
        path = tmp_path / "torn.jsonl"
        path.write_text('{"spec": {}}\n{"trial": 0, "rec')
        checkpoint = TrialCheckpoint(SPEC, path)
        sink = checkpoint.open(header=False)
        checkpoint.append(1, {"ok": 1}, sink=sink)
        sink.close()
        last = path.read_text().splitlines()[-1]
        assert json.loads(last) == {"trial": 1, "record": {"ok": 1}}

    def test_mismatched_spec_refused(self, tmp_path):
        path = tmp_path / "other.jsonl"
        run_spec(SPEC, results_path=path)
        other = CampaignSpec.from_dict({**SPEC.to_dict(), "seed": 99})
        with pytest.raises(ValueError, match="different"):
            run_spec(other, results_path=path)

    def test_serial_run_checkpoints_each_trial(self, tmp_path):
        calls = {"n": 0, "raised": False}

        @register_campaign("test_runner_mid_crash")
        def _crashy(rng, params):
            if calls["n"] == 3 and not calls["raised"]:
                calls["raised"] = True
                raise RuntimeError("simulated mid-campaign crash")
            calls["n"] += 1
            return {"injected": 1, "detected": 1}

        spec = CampaignSpec(campaign="test_runner_mid_crash", n_trials=10, seed=0)
        path = tmp_path / "crash.jsonl"
        with pytest.raises(RuntimeError):
            run_spec(spec, results_path=path)
        # A serial run must checkpoint trial-by-trial: the three finished
        # trials are on disk, and the resume only runs the remaining seven.
        assert len(path.read_text().splitlines()) == 1 + 3
        result = run_spec(spec, results_path=path)
        assert result.n_trials == 10
        assert calls["n"] == 10

    def test_sweep_checkpoint_stays_valid_json(self, tmp_path):
        # Seed 42 drives one faulty residual non-finite; the record must
        # still be RFC-compliant JSON (no NaN/Infinity constants).
        spec = CampaignSpec(
            campaign="abft_detection_sweep",
            n_trials=25,
            seed=42,
            params={"thresholds": [0.01]},
        )
        path = tmp_path / "sweep.jsonl"
        run_spec(spec, results_path=path)

        def reject_constant(value):
            raise AssertionError(f"non-RFC JSON constant {value!r} in checkpoint")

        for line in path.read_text().splitlines():
            json.loads(line, parse_constant=reject_constant)

    def test_canonical_rewrite_leaves_no_temp_file(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_spec(SPEC, results_path=path)
        run_spec(SPEC, results_path=path)  # resume of a complete run
        assert list(tmp_path.iterdir()) == [path]

    def test_checkpoint_lines_are_valid_json(self, tmp_path):
        path = tmp_path / "run.jsonl"
        run_spec(SPEC, results_path=path)
        lines = path.read_text().splitlines()
        header = json.loads(lines[0])
        assert CampaignSpec.from_dict(header["spec"]) == SPEC
        trials = [json.loads(line) for line in lines[1:]]
        assert [t["trial"] for t in trials] == list(range(SPEC.n_trials))


class TestRunnerValidation:
    def test_zero_workers_rejected(self):
        with pytest.raises(ValueError):
            run_spec(SPEC, n_workers=0)


class TestCLI:
    def test_runs_spec_file_and_reports(self, tmp_path, capsys):
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(SPEC.to_json())
        results = tmp_path / "out.jsonl"
        argv = ["run", str(spec_file), "--executor", "process", "--workers", "2"]
        assert main(argv + ["--results", str(results)]) == 0
        out = capsys.readouterr().out
        assert "campaign: abft_error_coverage (10 trials)" in out
        assert "detection rate" in out
        assert results.exists()

    def test_sweep_report(self, tmp_path, capsys):
        spec_file = tmp_path / "sweep.json"
        spec_file.write_text(SWEEP_SPEC.to_json())
        assert main(["run", str(spec_file)]) == 0
        out = capsys.readouterr().out
        assert "fault detection rate" in out
        assert "false alarm rate" in out

    def test_list_campaigns(self, capsys):
        assert main(["list-campaigns"]) == 0
        out = capsys.readouterr().out
        assert "abft_error_coverage" in out
        assert "snvr_detection_sweep" in out
