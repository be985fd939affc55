"""Tests for the Transformer model, configurations, and the Figure-15 cost model."""

import numpy as np
import pytest

from repro.core.schemes import available_schemes
from repro.fault.injector import FaultInjector
from repro.fault.models import FaultSite, FaultSpec
from repro.transformer.configs import (
    BERT_BASE,
    BERT_LARGE,
    GPT2_SMALL,
    T5_SMALL,
    TransformerConfig,
    get_config,
    model_zoo,
)
from repro.transformer.costing import TransformerCostModel
from repro.transformer.model import TransformerModel


@pytest.fixture(scope="module")
def tiny_model():
    cfg = GPT2_SMALL.scaled(hidden_dim=32, num_layers=2)
    return cfg, TransformerModel(cfg, seed=0, attention_block_size=16)


@pytest.fixture(scope="module")
def tiny_ids(tiny_model):
    cfg, _ = tiny_model
    return np.random.default_rng(1).integers(0, cfg.vocab_size, size=(2, 20))


class TestConfigs:
    def test_zoo_contains_papers_models(self):
        names = [c.name for c in model_zoo()]
        assert names == ["GPT2", "BERT-Base", "BERT-Large", "T5-Small"]

    def test_published_shapes(self):
        assert (GPT2_SMALL.hidden_dim, GPT2_SMALL.num_heads, GPT2_SMALL.num_layers) == (768, 12, 12)
        assert (BERT_BASE.hidden_dim, BERT_BASE.num_layers) == (768, 12)
        assert (BERT_LARGE.hidden_dim, BERT_LARGE.num_heads, BERT_LARGE.num_layers) == (1024, 16, 24)
        assert (T5_SMALL.hidden_dim, T5_SMALL.num_heads, T5_SMALL.num_layers) == (512, 8, 12)

    def test_head_dim(self):
        assert GPT2_SMALL.head_dim == 64
        assert BERT_LARGE.head_dim == 64

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            TransformerConfig(name="bad", hidden_dim=30, num_heads=4, num_layers=1, ffn_dim=8)
        with pytest.raises(ValueError):
            TransformerConfig(name="bad", hidden_dim=32, num_heads=4, num_layers=0, ffn_dim=8)

    def test_scaled_copy_is_consistent(self):
        tiny = BERT_LARGE.scaled(hidden_dim=48, num_layers=3)
        assert tiny.hidden_dim == 48
        assert tiny.hidden_dim % tiny.num_heads == 0
        assert tiny.num_layers == 3

    def test_get_config_by_name(self):
        assert get_config("BERT-Large") is BERT_LARGE
        with pytest.raises(ValueError):
            get_config("GPT5")

    def test_with_scheme_and_scaled_carry_scheme(self):
        decoupled = GPT2_SMALL.with_scheme("decoupled")
        assert decoupled.scheme == "decoupled"
        assert decoupled.hidden_dim == GPT2_SMALL.hidden_dim
        assert decoupled.scaled(hidden_dim=32).scheme == "decoupled"
        assert GPT2_SMALL.scheme == "efta_unified"


class TestTransformerModel:
    def test_forward_shapes(self, tiny_model, tiny_ids):
        cfg, model = tiny_model
        out = model(tiny_ids)
        assert out.hidden_states.shape == (2, 20, cfg.hidden_dim)
        assert out.logits.shape == (2, 20, cfg.vocab_size)
        assert out.report.clean

    def test_protected_close_to_unprotected(self, tiny_model, tiny_ids):
        cfg, model = tiny_model
        protected = model(tiny_ids)
        unprotected = TransformerModel(cfg, seed=0, attention_block_size=16, scheme="none")(
            tiny_ids
        )
        np.testing.assert_allclose(
            protected.logits, unprotected.logits, rtol=5e-2, atol=5e-2
        )

    def test_deterministic_given_seed(self, tiny_ids):
        cfg = GPT2_SMALL.scaled(hidden_dim=32, num_layers=1)
        a = TransformerModel(cfg, seed=7, attention_block_size=16)(tiny_ids)
        b = TransformerModel(cfg, seed=7, attention_block_size=16)(tiny_ids)
        np.testing.assert_array_equal(a.logits, b.logits)

    def test_generate_token(self, tiny_model, tiny_ids):
        _, model = tiny_model
        tokens, output = model.generate_token(tiny_ids)
        assert tokens.shape == (2,)
        assert output.logits is not None

    def test_generate_requires_lm_head(self, tiny_ids):
        cfg = GPT2_SMALL.scaled(hidden_dim=32, num_layers=1)
        model = TransformerModel(cfg, with_lm_head=False, attention_block_size=16)
        with pytest.raises(RuntimeError):
            model.generate_token(tiny_ids)

    def test_attention_fault_corrected_logits_unchanged(self, tiny_model, tiny_ids):
        _, model = tiny_model
        clean = model(tiny_ids)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, seed=5, bit=14, dtype="fp16")
        faulty = model(tiny_ids, injector=injector)
        assert faulty.report.detected_any
        assert faulty.report.total_corrections >= 1
        np.testing.assert_allclose(faulty.logits, clean.logits, rtol=5e-2, atol=5e-2)

    def test_linear_fault_corrected(self, tiny_model, tiny_ids):
        _, model = tiny_model
        clean = model(tiny_ids)
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=6, bit=14, dtype="fp16")
        faulty = model(tiny_ids, injector=injector)
        assert faulty.report.detected_any
        np.testing.assert_allclose(faulty.logits, clean.logits, rtol=5e-2, atol=5e-2)

    def test_multiple_faults_across_layers(self, tiny_model, tiny_ids):
        _, model = tiny_model
        specs = [
            FaultSpec(site=FaultSite.GEMM_QK, bit=14),
            FaultSpec(site=FaultSite.LINEAR, bit=14, occurrence=3),
        ]
        injector = FaultInjector(specs=specs, seed=9)
        out = model(tiny_ids, injector=injector)
        assert len(out.report.injected) == 2

    def test_num_parameters_positive_and_scales(self):
        small = TransformerModel(GPT2_SMALL.scaled(32, 1), attention_block_size=16)
        large = TransformerModel(GPT2_SMALL.scaled(64, 2), attention_block_size=16)
        assert 0 < small.num_parameters() < large.num_parameters()


class TestSchemeSelection:
    """The model runs end-to-end under every registered scheme, selected by name."""

    #: Mean logit of the seed-5 tiny GPT2 at a (1, 12) seed-11 prompt, per
    #: scheme -- fault-free goldens pinning the scheme-agnostic stack.
    LOGIT_GOLDENS = {
        "decoupled": -0.02138432115316391,
        "efta": -0.02138274908065796,
        "efta_unified": -0.02138274908065796,
        "none": -0.02138793282210827,
    }

    @pytest.fixture(scope="class")
    def prompt(self):
        cfg = GPT2_SMALL.scaled(hidden_dim=32, num_layers=2)
        ids = np.random.default_rng(11).integers(0, cfg.vocab_size, size=(1, 12))
        return cfg, ids

    def test_every_scheme_runs_and_matches_golden(self, prompt):
        cfg, ids = prompt
        assert set(self.LOGIT_GOLDENS) == set(available_schemes())
        for scheme in available_schemes():
            model = TransformerModel(cfg, seed=5, attention_block_size=8, scheme=scheme)
            output = model(ids)
            assert output.report.clean, scheme
            assert float(output.logits.mean()) == pytest.approx(
                self.LOGIT_GOLDENS[scheme], rel=1e-6, abs=1e-7
            ), scheme

    def test_config_scheme_is_the_default(self, prompt):
        cfg, ids = prompt
        by_config = TransformerModel(
            cfg.with_scheme("efta"), seed=5, attention_block_size=8
        )
        by_kwarg = TransformerModel(cfg, seed=5, attention_block_size=8, scheme="efta")
        np.testing.assert_array_equal(by_config(ids).logits, by_kwarg(ids).logits)
        assert by_config.scheme_name == "efta"

    def test_unknown_scheme_rejected_at_construction(self, prompt):
        cfg, _ = prompt
        with pytest.raises(ValueError, match="unknown protection scheme"):
            TransformerModel(cfg, scheme="bogus", attention_block_size=8)

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_scheme_rejected_at_construction(self, prompt, flag):
        # The scheme is a registry name; the old bool flag is not mapped.
        cfg, _ = prompt
        with pytest.raises(ValueError, match="unknown protection scheme"):
            TransformerModel(cfg, scheme=flag, attention_block_size=8)

    def test_scheme_none_skips_all_verification(self, prompt):
        cfg, ids = prompt
        model = TransformerModel(cfg, seed=5, attention_block_size=8, scheme="none")
        assert model.protects_linear is False
        injector = FaultInjector.single_bit_flip(FaultSite.LINEAR, seed=6, bit=14, dtype="fp16")
        output = model(ids, injector=injector)
        assert len(output.report.injected) == 1
        assert not output.report.detected_any


class TestTransformerCostModel:
    def test_base_times_scale_with_model_size(self):
        reports = {c.name: TransformerCostModel(c).report() for c in model_zoo()}
        assert reports["BERT-Large"].base_time > reports["BERT-Base"].base_time
        assert reports["T5-Small"].base_time < reports["BERT-Base"].base_time

    def test_gpt2_per_token_time_in_paper_regime(self):
        # The paper profiles ~5.6 ms per generated token for GPT2 at seq 512.
        report = TransformerCostModel(GPT2_SMALL).report()
        assert 2e-3 < report.base_time < 15e-3

    def test_detection_overhead_small(self):
        # Figure 15: error detection costs ~4-6% across the four models.
        for config in model_zoo():
            report = TransformerCostModel(config).report()
            assert 0.01 < report.detection_overhead < 0.12

    def test_correction_costs_more_than_detection(self):
        for config in model_zoo():
            report = TransformerCostModel(config).report()
            assert report.correction_overhead > report.detection_overhead
            assert report.correction_overhead < 0.25

    def test_more_faults_cost_more(self):
        model = TransformerCostModel(GPT2_SMALL)
        assert (
            model.report(faults_per_attention=2).correction_time
            > model.report(faults_per_attention=1).correction_time
        )

    def test_report_times_ordered(self):
        report = TransformerCostModel(BERT_BASE).report()
        assert report.base_time < report.detection_time < report.correction_time
