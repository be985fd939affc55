"""The ``transformer_inference`` kernel: a chunk of trials as one stacked forward.

Every computational-fault trial of the campaign runs here -- a chunk of
``REPRO_TRIAL_BATCH`` trials, or one trial when the scalar kernel forwards
it.  The trials share the campaign's model fixture and prompt; the prompt is
stacked along a leading trial axis and the whole chunk runs through
:meth:`repro.transformer.model.TransformerModel.forward_batched`, the one
model forward, with each trial's own :class:`~repro.fault.injector.FaultInjector`
behind a :class:`~repro.fault.injector.FaultRouter` that applies its faults to
that trial's slice of every stacked intermediate.

A trial's record does not depend on the chunk it ran in -- the JSONL
checkpoint is byte-identical at every batch size -- and rests on three rules
the model, the layers and the attention schemes keep:

* the trial axis is never flattened into a GEMM's row dimension (a fused 2D
  GEMM can pick a different kernel blocking for the larger row count and
  drift in the last bits -- observed on the wide ``lm_head`` projection);
  every matmul stays batched on the last two dimensions;
* reductions run over the last axis;
* every injector sees the exact ``corrupt`` offer sequence of a one-trial
  forward (same sites, same blocks, same per-trial array shapes), so its
  occurrence counting and element draws are unchanged.

The goldens under ``tests/fault/goldens/transformer_inference_*.jsonl`` pin
the records.  At-rest fault models corrupt the shared model fixture per trial
before the forward, which a stacked forward cannot express: the kernel
declines them (before touching any generator) and the scalar kernel runs
them trial by trial.
"""

from __future__ import annotations

import numpy as np

from repro.fault.runner import register_campaign_batch

# Bound at module level only because the repository benchmark asserts the
# binding (``perfbench/check_bench.py``); nothing here calls it.  The next
# change to the benchmark drops both.
from repro.fp.float16 import fp16_matmul  # noqa: F401


@register_campaign_batch("transformer_inference")
def _transformer_inference_batch(rngs: list, params: dict) -> list[dict] | None:
    """Transformer trials for a chunk of generators: one stacked forward.

    Per-trial fault planning draws on each trial's own generator in a fixed
    order (site, bit, occurrence per fault, then the injector seed), so a
    trial's record does not depend on the chunk it ran in.
    """
    from repro.fault.campaign import (
        _logit_scale,
        _transformer_fixture,
        _transformer_outcome,
        _validate_sites,
        faulted_errstate,
    )
    from repro.fault.dictionary import faultload_digest, get_fault_model, load_faultload
    from repro.fault.injector import FaultInjector, FaultRouter
    from repro.fault.models import FaultSite, FaultSpec

    model, ids, clean_logits, site_counts = _transformer_fixture(params)
    fault_model = str(params.get("fault_model", "seu"))
    model_params = dict(params.get("model_params", {}))
    replay_trials = None
    if "faultload" in params:
        faultload = load_faultload(params["faultload"])
        trial_indices = params.get("_trial_indices")
        if trial_indices is None:
            raise ValueError(
                "faultload replay requires the campaign runner to supply "
                "'_trial_indices'; run through repro.exec"
            )
        replay_trials = [faultload.specs_for(int(i)) for i in trial_indices]
        replay_models = {
            get_fault_model(s.fault_model) for specs in replay_trials for s in specs
        }
        if any(m.at_rest for m in replay_models):
            return None
        sites = sorted(
            {s.site for specs in replay_trials for s in specs}, key=lambda s: s.value
        )
        _validate_sites(sites, site_counts, params)
    else:
        if get_fault_model(fault_model).at_rest:
            return None
        sites = params.get("site", "linear")
        if isinstance(sites, str):
            sites = [sites]
        sites = [FaultSite(str(s)) for s in sites]
        _validate_sites(sites, site_counts, params)

    bits = [int(b) for b in params.get("bits", [12, 13, 14])]
    dtype = str(params.get("dtype", "fp16"))
    tol = float(params.get("correction_tol", 0.02))
    use_ber = "bit_error_rate" in params
    if use_ber:
        ber = float(params["bit_error_rate"])
        exposure_bits = 2.0 * model.num_parameters() * ids.shape[1] * 16.0

    injectors = []
    if replay_trials is not None:
        # Replay mode: the specs come verbatim from the artifact; the only
        # per-trial draw is the injector seed.
        for rng, specs in zip(rngs, replay_trials):
            injectors.append(
                FaultInjector(specs=list(specs), seed=int(rng.integers(2**31)))
            )
    else:
        for rng in rngs:
            n_faults = int(rng.poisson(ber * exposure_bits)) if use_ber else 1
            specs = []
            for _ in range(n_faults):
                site = sites[int(rng.integers(len(sites)))]
                # Drawing the occurrence over the probed per-site call count
                # spreads faults uniformly over layers/blocks and guarantees
                # they land.
                specs.append(
                    FaultSpec(
                        site=site,
                        bit=bits[int(rng.integers(len(bits)))],
                        dtype=dtype,
                        occurrence=int(rng.integers(site_counts[site])),
                        fault_model=fault_model,
                        model_params=model_params,
                    )
                )
            injectors.append(FaultInjector(specs=specs, seed=int(rng.integers(2**31))))

    n_trials = len(rngs)
    with faulted_errstate():
        _, logits, reports = model.forward_batched(
            np.broadcast_to(ids, (n_trials, *ids.shape)), FaultRouter(injectors)
        )
        # One stacked |faulty - clean| pass; the per-trial max over its own
        # slice is the whole-array max of a one-trial forward.
        deviations = np.abs(logits - clean_logits).reshape(n_trials, -1).max(axis=1)

    denom = _logit_scale(clean_logits)
    records = []
    for t, (injector, report) in enumerate(zip(injectors, reports)):
        record = _transformer_outcome(
            float(deviations[t]), denom, len(injector.records), report, tol
        )
        if replay_trials is not None:
            record["fault_digest"] = faultload_digest(replay_trials[t])
        records.append(record)
    return records
