"""Fault-injection framework: fault model, injector, campaign kernels, metrics.

The fault model follows Section 2.2 of the paper: transient computing-unit
faults (single event upsets) silently corrupt freshly computed values by
flipping bits; memory faults are assumed handled by ECC and interconnect
faults by FT-MPI, so injection targets the *outputs of computation steps*
(GEMM tiles, exponentials, reductions), not stored operands.

Monte-Carlo campaigns (the evidence behind Figures 12 and 14 and Tables 1-2)
are registered per-trial kernels: a :class:`~repro.fault.runner.CampaignSpec`
names a kernel and its parameters, and trial ``i`` draws from its own
generator seeded by ``SeedSequence(seed, spawn_key=(i,))`` (identical to
``SeedSequence(seed).spawn(n)[i]`` for any ``n > i``), so records are
bit-identical regardless of backend or worker count.  New workloads plug in
with::

    from repro.fault.runner import register_campaign

    @register_campaign("my_campaign")
    def _my_trial(rng, params):
        ...  # one Monte-Carlo trial
        return {"injected": 1, "detected": 1, "corrected": 1, "output_rel_error": 0.0}

and run through :mod:`repro.exec` -- programmatically with
:func:`~repro.exec.engine.run_experiment` on an
:class:`~repro.exec.spec.ExperimentSpec`, or from a JSON spec file via
``python -m repro run spec.json --executor process --workers 4 --results out``.

* :mod:`repro.fault.models` -- fault sites, fault specifications, SEU / BER
  sampling.
* :mod:`repro.fault.injector` -- the :class:`FaultInjector` used by the
  protected kernels, plus bit-error-rate style corruption helpers.
* :mod:`repro.fault.metrics` -- per-trial outcomes and campaign aggregates
  (detection rate, false-alarm rate, coverage, error distributions).
* :mod:`repro.fault.runner` -- the per-point campaign spec, the trial-kernel
  registry and per-trial iteration.
* :mod:`repro.fault.seeds` -- the one per-trial seed derivation rule.
* :mod:`repro.fault.campaign` -- the registered trial kernels and thin
  wrappers behind Figures 12 and 14, plus the ``transformer_inference``
  model-level kernel.
* :mod:`repro.fault.dictionary` -- the fault dictionary: the
  ``@register_fault_model`` strategy registry (stuck-at, bursts, memory
  lines, at-rest weight corruption, intermittents) and pre-materialized
  faultload artifacts replayable byte-identically across schemes, backends
  and worker counts.
"""

from repro.fault.models import FaultSite, FaultSpec, InjectionRecord
from repro.fault.injector import FaultInjector, inject_bit_errors
from repro.fault.metrics import CampaignResult, TrialOutcome
from repro.fault.runner import (
    CampaignSpec,
    available_campaigns,
    campaign_summaries,
    register_campaign,
)
from repro.fault.dictionary import (
    FAULTLOAD_SCHEMA_VERSION,
    FaultModel,
    Faultload,
    FaultloadGenerator,
    available_fault_models,
    fault_model_summaries,
    faultload_digest,
    get_fault_model,
    load_faultload,
    register_fault_model,
)

__all__ = [
    "FaultSite",
    "FaultSpec",
    "InjectionRecord",
    "FaultInjector",
    "inject_bit_errors",
    "CampaignResult",
    "TrialOutcome",
    "CampaignSpec",
    "available_campaigns",
    "campaign_summaries",
    "register_campaign",
    "FAULTLOAD_SCHEMA_VERSION",
    "FaultModel",
    "Faultload",
    "FaultloadGenerator",
    "available_fault_models",
    "fault_model_summaries",
    "faultload_digest",
    "get_fault_model",
    "load_faultload",
    "register_fault_model",
]
