"""Scheme-registry tests: registration, parity with the hardwired kernels, goldens.

The refactor's contract is that selecting a scheme *by name* is numerically a
no-op: the registry path must be bit-identical to instantiating the
pre-refactor classes directly (and, for ``"none"``, to unprotected flash
attention).  Golden aggregates at fixed seeds pin the fault-free numerics of
every registered scheme through future refactors.
"""

import numpy as np
import pytest

from repro.attention.flash import flash_attention
from repro.core.config import AttentionConfig
from repro.core.decoupled import DecoupledFTAttention
from repro.core.efta import EFTAttention
from repro.core.efta_optimized import EFTAttentionOptimized
from repro.core import schemes as schemes_module
from repro.core.schemes import (
    ProtectionScheme,
    available_schemes,
    build_scheme,
    get_scheme,
    register_scheme,
)
from repro.fault.injector import FaultInjector, FaultRouter
from repro.fault.models import FaultSite

BUILTIN_SCHEMES = ["decoupled", "efta", "efta_unified", "none"]

#: Fault-free goldens at seed 2024 (shape (2, 2, 40, 16), block 16):
#: (mean of the output, sum of |output|).  Pinned to 1e-6 relative (loose enough for BLAS/platform accumulation-order differences) -- any
#: change to a kernel's fault-free arithmetic shows up here first.
ATTENTION_GOLDENS = {
    "decoupled": (-0.0059888423420488834, 447.10552978515625),
    "efta": (-0.005989463068544865, 447.1053771972656),
    "efta_unified": (-0.005989463068544865, 447.1053771972656),
    "none": (-0.005986867006868124, 447.101806640625),
}


@pytest.fixture(scope="module")
def problem():
    rng = np.random.default_rng(2024)
    q = rng.standard_normal((2, 2, 40, 16)).astype(np.float32)
    k = rng.standard_normal((2, 2, 40, 16)).astype(np.float32)
    v = rng.standard_normal((2, 2, 40, 16)).astype(np.float32)
    cfg = AttentionConfig(seq_len=40, head_dim=16, block_size=16)
    return q, k, v, cfg


class TestRegistry:
    def test_builtin_schemes_registered(self):
        assert available_schemes() == BUILTIN_SCHEMES

    def test_get_scheme_unknown_name(self):
        with pytest.raises(ValueError, match="unknown protection scheme"):
            get_scheme("bogus")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_scheme("efta")(type("Dup", (ProtectionScheme,), {}))

    def test_scheme_instances_expose_interface(self, problem):
        *_, cfg = problem
        for name in BUILTIN_SCHEMES:
            scheme = build_scheme(name, cfg)
            assert scheme.name == name
            assert scheme.config is cfg
            assert isinstance(scheme.protects_linear, bool)
            bd = scheme.cost_breakdown(2, 2)
            assert bd.total_time > 0
            assert scheme.fits_in_memory(2, 2)

    def test_only_none_leaves_linear_layers_unprotected(self):
        for name in BUILTIN_SCHEMES:
            assert get_scheme(name).protects_linear is (name != "none")


def _no_flash(*args, **kwargs):
    raise AssertionError("the tile loop must run, not flash_attention")


class TestParityWithHardwiredClasses:
    """Registry forward == pre-refactor direct class forward, bit for bit."""

    @pytest.mark.parametrize(
        "name,cls",
        [
            ("efta", EFTAttention),
            ("efta_unified", EFTAttentionOptimized),
            ("decoupled", DecoupledFTAttention),
        ],
    )
    def test_wrapped_kernels_identical(self, problem, name, cls):
        q, k, v, cfg = problem
        out_scheme, rep_scheme = build_scheme(name, cfg)(q, k, v)
        out_direct, rep_direct = cls(cfg)(q, k, v)
        np.testing.assert_array_equal(out_scheme, out_direct)
        assert rep_scheme.clean and rep_direct.clean

    def test_none_identical_to_flash_attention(self, problem, monkeypatch):
        # A call without pending attention-site faults runs flash_attention
        # itself; an armed attention-site fault that never lands (its
        # occurrence is never reached) drives the offered tile loop instead.
        q, k, v, cfg = problem
        monkeypatch.setattr(schemes_module, "flash_attention", _no_flash)
        never = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, occurrence=10**9)
        out, report = build_scheme("none", cfg)(q, k, v, injector=never)
        assert not never.records
        reference = flash_attention(q, k, v, block_size=cfg.block_size, mixed_precision=True)
        np.testing.assert_array_equal(out, reference)
        assert report.clean

    @pytest.mark.parametrize("name", BUILTIN_SCHEMES)
    def test_fault_free_goldens(self, problem, name):
        q, k, v, cfg = problem
        out, report = build_scheme(name, cfg)(q, k, v)
        mean, abs_sum = ATTENTION_GOLDENS[name]
        assert float(out.mean()) == pytest.approx(mean, rel=1e-6, abs=1e-7)
        assert float(np.abs(out).sum()) == pytest.approx(abs_sum, rel=1e-6)
        assert report.clean

    @pytest.mark.parametrize("name", BUILTIN_SCHEMES)
    def test_schemes_agree_on_fault_free_inputs(self, problem, name):
        q, k, v, cfg = problem
        out, _ = build_scheme(name, cfg)(q, k, v)
        reference, _ = build_scheme("none", cfg)(q, k, v)
        np.testing.assert_allclose(out, reference, rtol=2e-2, atol=2e-2)


class TestUnprotectedFlashChoice:
    """Scheme ``none`` answers with flash unless a pending fault needs the offers."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = {"flash": 0, "tile": 0}
        flash = schemes_module.flash_attention
        tile = schemes_module.UnprotectedAttention._tile_loop

        def spy_flash(*args, **kwargs):
            calls["flash"] += 1
            return flash(*args, **kwargs)

        def spy_tile(self, *args, **kwargs):
            calls["tile"] += 1
            return tile(self, *args, **kwargs)

        monkeypatch.setattr(schemes_module, "flash_attention", spy_flash)
        monkeypatch.setattr(schemes_module.UnprotectedAttention, "_tile_loop", spy_tile)
        return calls

    @staticmethod
    def _stack(problem, n_trials):
        q, k, v, cfg = problem
        return [np.stack([x] * n_trials) for x in (q, k, v)], cfg

    def test_linear_only_faults_take_flash(self, problem, calls):
        (q, k, v), cfg = self._stack(problem, 2)
        injectors = [FaultInjector.single_bit_flip(FaultSite.LINEAR) for _ in range(2)]
        build_scheme("none", cfg).forward_batched(q, k, v, FaultRouter(injectors))
        assert calls == {"flash": 1, "tile": 0}
        assert all(injector.armed for injector in injectors)

    def test_fault_free_call_takes_flash(self, problem, calls):
        q, k, v, cfg = problem
        build_scheme("none", cfg)(q, k, v)
        assert calls == {"flash": 1, "tile": 0}

    @pytest.mark.parametrize(
        "site", [FaultSite.GEMM_QK, FaultSite.SUBTRACT_EXP, FaultSite.GEMM_PV, FaultSite.NORMALIZE]
    )
    def test_any_pending_attention_fault_takes_the_tile_loop(self, problem, calls, site):
        (q, k, v), cfg = self._stack(problem, 3)
        injectors = [
            FaultInjector.single_bit_flip(FaultSite.LINEAR),
            FaultInjector.inert(),
            FaultInjector.single_bit_flip(site, dtype="fp32", bit=20),
        ]
        build_scheme("none", cfg).forward_batched(q, k, v, FaultRouter(injectors))
        groups = q.shape[1] * q.shape[2]
        assert calls == {"flash": 0, "tile": groups}
        assert len(injectors[2].records) == 1

    def test_landed_one_shot_fault_frees_later_calls(self, problem, calls):
        q, k, v, cfg = problem
        scheme = build_scheme("none", cfg)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, bit=14)
        router = FaultRouter.for_trial(injector)
        scheme.forward_batched(q[None], k[None], v[None], router)
        assert calls["tile"] > 0 and calls["flash"] == 0
        scheme.forward_batched(q[None], k[None], v[None], router)
        assert calls["flash"] == 1

    def test_persistent_fault_keeps_the_tile_loop(self, problem, calls):
        q, k, v, cfg = problem
        scheme = build_scheme("none", cfg)
        injector = FaultInjector.single_bit_flip(FaultSite.GEMM_QK, fault_model="stuck_at_1")
        router = FaultRouter.for_trial(injector)
        scheme.forward_batched(q[None], k[None], v[None], router)
        scheme.forward_batched(q[None], k[None], v[None], router)
        assert calls["flash"] == 0

    def test_site_probe_takes_the_tile_loop(self, problem, calls):
        from repro.fault.campaign import _SiteProbe

        q, k, v, cfg = problem
        probe = _SiteProbe()
        build_scheme("none", cfg)(q, k, v, injector=probe)
        assert calls["flash"] == 0
        assert probe.counts[FaultSite.GEMM_QK] == q.shape[0] * q.shape[1] * 3 * 3

    def test_campaign_linear_faults_take_flash(self, calls):
        from repro.fault.batched import _transformer_inference_batch
        from repro.fault.campaign import _transformer_fixture

        params = {"scheme": "none", "hidden_dim": 16, "seq_len": 8, "site": "linear"}
        _transformer_fixture(params)  # the fixture's probe forward runs the tile loop
        calls.update(flash=0, tile=0)
        rngs = [np.random.default_rng(i) for i in range(4)]
        assert len(_transformer_inference_batch(rngs, params)) == 4
        assert calls["flash"] > 0 and calls["tile"] == 0
