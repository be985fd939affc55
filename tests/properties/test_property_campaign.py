"""Property-based tests of the campaign spec and seed derivation (hypothesis)."""

from __future__ import annotations

import json

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.fault.runner import CampaignSpec
from repro.fault.seeds import trial_seed

SETTINGS = dict(max_examples=50, deadline=None)

#: JSON-scalar parameter values (floats restricted to finite round-trippables).
param_values = st.one_of(
    st.integers(min_value=-(2**31), max_value=2**31),
    st.floats(allow_nan=False, allow_infinity=False, width=64),
    st.booleans(),
    st.text(max_size=20),
    st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64), max_size=5),
)

campaign_names = st.text(
    alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd"), whitelist_characters="_-"),
    min_size=1,
    max_size=30,
)

specs = st.builds(
    CampaignSpec,
    campaign=campaign_names,
    n_trials=st.integers(min_value=1, max_value=10_000),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    params=st.dictionaries(st.text(max_size=15), param_values, max_size=6),
    name=st.text(max_size=20),
)


class TestSpecRoundTrip:
    @given(spec=specs)
    @settings(**SETTINGS)
    def test_dict_round_trip_lossless(self, spec):
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @given(spec=specs)
    @settings(**SETTINGS)
    def test_json_round_trip_lossless(self, spec):
        assert CampaignSpec.from_json(spec.to_json()) == spec

    @given(spec=specs)
    @settings(**SETTINGS)
    def test_to_dict_is_pure(self, spec):
        # Mutating the exported dict (or its nested params) must not leak
        # back into the frozen spec.
        exported = spec.to_dict()
        exported["params"]["__injected__"] = 1
        exported["seed"] = -1
        assert CampaignSpec.from_dict(spec.to_dict()) == spec

    @given(spec=specs)
    @settings(**SETTINGS)
    def test_json_form_is_canonical(self, spec):
        # Key order is normalised, so equal specs serialise to equal bytes.
        clone = CampaignSpec.from_json(spec.to_json())
        assert clone.to_json() == spec.to_json()
        assert json.loads(spec.to_json())["campaign"] == spec.campaign


class TestSeedDerivation:
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_trials=st.integers(min_value=2, max_value=200),
    )
    @settings(**SETTINGS)
    def test_trial_seeds_unique_within_campaign(self, seed, n_trials):
        spec = CampaignSpec(campaign="c", n_trials=n_trials, seed=seed)
        states = {tuple(s.generate_state(4)) for s in spec.trial_seeds()}
        assert len(states) == n_trials

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_trials=st.integers(min_value=1, max_value=50),
    )
    @settings(**SETTINGS)
    def test_trial_seeds_stable_across_calls(self, seed, n_trials):
        spec = CampaignSpec(campaign="c", n_trials=n_trials, seed=seed)
        first = [tuple(s.generate_state(4)) for s in spec.trial_seeds()]
        second = [tuple(s.generate_state(4)) for s in spec.trial_seeds()]
        assert first == second

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_prefix_stability_under_trial_count_growth(self, seed):
        # Growing a campaign keeps the seeds of already-run trials unchanged,
        # which is what makes resume-with-extended-spec sound in principle.
        short = CampaignSpec(campaign="c", n_trials=5, seed=seed).trial_seeds()
        long = CampaignSpec(campaign="c", n_trials=9, seed=seed).trial_seeds()
        assert [tuple(s.generate_state(4)) for s in short] == [
            tuple(s.generate_state(4)) for s in long[:5]
        ]

    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        n_trials=st.integers(min_value=1, max_value=20),
    )
    @settings(max_examples=25, deadline=None)
    def test_derived_generators_reproducible(self, seed, n_trials):
        spec = CampaignSpec(campaign="c", n_trials=n_trials, seed=seed)
        draws_a = [np.random.default_rng(s).integers(2**63) for s in spec.trial_seeds()]
        draws_b = [np.random.default_rng(s).integers(2**63) for s in spec.trial_seeds()]
        assert draws_a == draws_b

    @given(
        seed=st.integers(min_value=0, max_value=2**63),
        n=st.integers(min_value=1, max_value=300),
        data=st.data(),
    )
    @settings(**SETTINGS)
    def test_trial_seed_equals_spawned_child(self, seed, n, data):
        # Sparse, non-contiguous subsets, and indices past the first ``n``
        # (an adaptive top-up extends a point beyond its initial n_trials).
        indices = data.draw(
            st.lists(st.integers(min_value=0, max_value=3 * n), min_size=1, max_size=8)
        )
        spawned = np.random.SeedSequence(seed).spawn(3 * n + 1)
        for index in indices:
            derived, reference = trial_seed(seed, index), spawned[index]
            assert derived.entropy == reference.entropy
            assert derived.spawn_key == reference.spawn_key
            assert derived.pool_size == reference.pool_size
            assert np.array_equal(derived.generate_state(4), reference.generate_state(4))
