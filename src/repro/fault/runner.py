"""Declarative Monte-Carlo campaign specs, the trial-kernel registry, and
per-trial iteration.

Every fault-injection campaign plugs in with a single registered function:

* :class:`CampaignSpec` -- a declarative description of one campaign (one
  grid point of an :class:`~repro.exec.spec.ExperimentSpec`): which
  registered trial kernel to run, the workload / fault-model / protection
  parameters it takes, the trial count and the root seed.  Specs round-trip
  losslessly through ``to_dict``/``from_dict`` and ``to_json``/``from_json``.
* a **trial-kernel registry** -- :func:`register_campaign` binds a name to a
  per-trial function ``trial(rng, params) -> record`` plus an aggregator that
  folds the per-trial records into the campaign's result object (a
  :class:`~repro.fault.metrics.CampaignResult` by default);
  :func:`register_campaign_batch` optionally attaches a batched kernel that
  produces the same records, byte for byte, for a chunk of trials.
* :func:`_iter_trial_records` -- runs a slice of trial indices, each trial on
  its own generator seeded by ``SeedSequence(spec.seed).spawn(n)[trial]``, so
  records are bit-identical regardless of backend, worker count or chunking.

Experiments are run by :mod:`repro.exec` (``run_experiment`` or
``python -m repro run``).
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from repro.fault.metrics import CampaignResult, TrialOutcome

#: A per-trial record: a JSON-serialisable mapping produced by a trial kernel.
TrialRecord = dict
TrialFn = Callable[[np.random.Generator, dict], TrialRecord]
#: A batched trial kernel: runs one chunk of trials (one generator per trial)
#: and returns the per-trial records in order -- or ``None`` to decline the
#: chunk (unsupported parameter combination), in which case the scalar kernel
#: runs trial by trial.  A kernel MUST decide to decline before drawing from
#: any of the generators, so the scalar fallback sees pristine streams.
BatchTrialFn = Callable[[Sequence[np.random.Generator], dict], "list[TrialRecord] | None"]
AggregateFn = Callable[[Sequence[TrialRecord], dict], Any]

#: Trials folded into one batched kernel call when no override is set.
DEFAULT_TRIAL_BATCH = 16

#: Environment knob for the batch size (inherited by pool / spawned workers).
TRIAL_BATCH_ENV = "REPRO_TRIAL_BATCH"


def trial_batch_size() -> int:
    """How many trials to fold into one batched kernel call.

    Read from ``REPRO_TRIAL_BATCH`` (``1`` disables batching and forces every
    trial through the scalar oracle path); defaults to
    :data:`DEFAULT_TRIAL_BATCH`.
    """
    raw = os.environ.get(TRIAL_BATCH_ENV, "").strip()
    if not raw:
        return DEFAULT_TRIAL_BATCH
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(
            f"{TRIAL_BATCH_ENV} must be a positive integer, got {raw!r}"
        ) from None
    if value < 1:
        raise ValueError(f"{TRIAL_BATCH_ENV} must be >= 1, got {value}")
    return value


# --------------------------------------------------------------------------- #
# Campaign specification
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class CampaignSpec:
    """Declarative description of one Monte-Carlo campaign.

    Attributes
    ----------
    campaign:
        Name of a registered trial kernel (see :func:`register_campaign`).
    n_trials:
        Number of independent trials to run.
    seed:
        Root seed.  Per-trial generators derive from
        ``SeedSequence(seed).spawn(n_trials)``, so the same spec yields the
        same trials no matter how they are sharded.
    params:
        Kernel-specific parameters (workload shape, fault model, protection
        scheme, thresholds ...).  Values must be JSON-serialisable.
    name:
        Optional human-readable label; defaults to the campaign name.
    """

    campaign: str
    n_trials: int
    seed: int = 0
    params: dict = field(default_factory=dict)
    name: str = ""

    def __post_init__(self) -> None:
        if not self.campaign:
            raise ValueError("campaign name must be non-empty")
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative (SeedSequence entropy)")

    @property
    def label(self) -> str:
        """The display name (explicit ``name`` or the campaign name)."""
        return self.name or self.campaign

    def to_dict(self) -> dict:
        """Plain-dict form (deep-copied via JSON, so mutation is safe)."""
        return {
            "campaign": self.campaign,
            "n_trials": self.n_trials,
            "seed": self.seed,
            "params": json.loads(json.dumps(self.params)),
            "name": self.name,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CampaignSpec":
        """Inverse of :meth:`to_dict` (unknown keys are rejected)."""
        known = {"campaign", "n_trials", "seed", "params", "name"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(f"unknown CampaignSpec fields: {sorted(unknown)}")
        return cls(
            campaign=str(data["campaign"]),
            n_trials=int(data["n_trials"]),
            seed=int(data.get("seed", 0)),
            # Deep-copied for symmetry with to_dict: the frozen spec must not
            # alias the caller's nested mutables.
            params=json.loads(json.dumps(data.get("params", {}))),
            name=str(data.get("name", "")),
        )

    def to_json(self) -> str:
        """Canonical (sorted-key) JSON form."""
        return _canonical_json(self.to_dict())

    @classmethod
    def from_json(cls, text: str) -> "CampaignSpec":
        """Inverse of :meth:`to_json`."""
        return cls.from_dict(json.loads(text))

    def trial_seeds(self) -> list[np.random.SeedSequence]:
        """The per-trial seed sequences (``SeedSequence(seed).spawn``)."""
        return np.random.SeedSequence(self.seed).spawn(self.n_trials)


# --------------------------------------------------------------------------- #
# Trial-kernel registry
# --------------------------------------------------------------------------- #
def default_aggregate(records: Sequence[TrialRecord], params: dict) -> CampaignResult:
    """Fold :class:`TrialOutcome`-shaped records into a :class:`CampaignResult`."""
    result = CampaignResult()
    for record in records:
        result.add(TrialOutcome.from_dict(record))
    return result


@dataclass(frozen=True)
class CampaignDefinition:
    """A registered campaign: per-trial kernel, record aggregator, and an
    optional batched kernel that runs a whole chunk of trials as one tensor
    program (same records, byte for byte, as the scalar kernel)."""

    name: str
    trial: TrialFn
    aggregate: AggregateFn = default_aggregate
    batch: BatchTrialFn | None = None
    #: Whether the kernel understands the ``fault_model`` / ``faultload``
    #: params (dictionary-driven injection); surfaced by ``list-campaigns``.
    accepts_fault_model: bool = False

    def run_batch(
        self,
        rngs: Sequence[np.random.Generator],
        params_json: str,
        indices: Sequence[int] | None = None,
    ) -> list[TrialRecord]:
        """Run one chunk of trials, preferring the batched kernel.

        ``params_json`` is the spec's params serialised once by the caller;
        every kernel invocation gets its own deep copy so a kernel that
        mutates nested params cannot leak state across trials or chunks.
        Falls back to the scalar kernel when no batched kernel is registered,
        when the chunk is a single trial (the oracle path), or when the
        batched kernel declines the parameter combination by returning
        ``None``.

        ``indices`` are the chunk's absolute trial indices.  They are only
        threaded into the params (as ``_trial_indices`` for the batched
        kernel, ``_trial_index`` per scalar trial) when the campaign replays
        a ``"faultload"`` artifact, which is keyed by absolute trial.
        """
        faultload_mode = indices is not None and "faultload" in json.loads(params_json)
        if self.batch is not None and len(rngs) > 1:
            batch_params = json.loads(params_json)
            if faultload_mode:
                batch_params["_trial_indices"] = list(indices)
            records = self.batch(list(rngs), batch_params)
            if records is not None:
                if len(records) != len(rngs):
                    raise RuntimeError(
                        f"batched kernel for campaign {self.name!r} returned "
                        f"{len(records)} records for {len(rngs)} trials"
                    )
                return list(records)
        records = []
        for position, rng in enumerate(rngs):
            params = json.loads(params_json)
            if faultload_mode:
                params["_trial_index"] = int(indices[position])
            records.append(self.trial(rng, params))
        return records


_REGISTRY: dict[str, CampaignDefinition] = {}


def register_campaign(
    name: str,
    aggregate: AggregateFn | None = None,
    accepts_fault_model: bool = False,
) -> Callable[[TrialFn], TrialFn]:
    """Decorator registering ``trial(rng, params) -> record`` under ``name``.

    The record must be a JSON-serialisable dict (it is persisted verbatim to
    the JSONL results file).  ``aggregate(records, params)`` builds the final
    result object; the default treats records as :class:`TrialOutcome` fields
    and returns a :class:`CampaignResult`.  ``accepts_fault_model`` marks
    kernels that honour the ``fault_model`` / ``faultload`` params.
    """

    def decorator(trial: TrialFn) -> TrialFn:
        if name in _REGISTRY:
            raise ValueError(f"campaign {name!r} is already registered")
        _REGISTRY[name] = CampaignDefinition(
            name=name,
            trial=trial,
            aggregate=aggregate or default_aggregate,
            accepts_fault_model=accepts_fault_model,
        )
        return trial

    return decorator


def register_campaign_batch(name: str) -> Callable[[BatchTrialFn], BatchTrialFn]:
    """Decorator attaching a batched kernel to an already-registered campaign.

    ``batch(rngs, params) -> records | None`` receives one generator per
    trial (the same ``SeedSequence``-derived streams the scalar kernel would
    see) and must return records byte-identical to running the scalar kernel
    per trial -- the parity is enforced by ``tests/fault/test_batched.py``.
    Returning ``None`` declines the chunk (before consuming any generator)
    and routes it through the scalar kernel.
    """

    def decorator(batch_fn: BatchTrialFn) -> BatchTrialFn:
        if name not in _REGISTRY:
            raise ValueError(
                f"campaign {name!r} is not registered; register the scalar "
                "kernel before its batched variant"
            )
        if _REGISTRY[name].batch is not None:
            raise ValueError(f"campaign {name!r} already has a batched kernel")
        _REGISTRY[name] = replace(_REGISTRY[name], batch=batch_fn)
        return batch_fn

    return decorator


def _ensure_builtin_campaigns() -> None:
    # The built-in kernels live in repro.fault.campaign (Monte-Carlo fault
    # injection) and repro.exec.costing (deterministic roofline costs), both
    # of which import this module for the decorator; import lazily to break
    # the cycle (and so spawned workers repopulate the registry on first use).
    import repro.exec.costing  # noqa: F401
    import repro.fault.campaign  # noqa: F401


def get_campaign(name: str) -> CampaignDefinition:
    """Look up a registered campaign definition by name."""
    if name not in _REGISTRY:
        _ensure_builtin_campaigns()
    try:
        return _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown campaign {name!r}; registered: {available_campaigns()}"
        ) from None


def available_campaigns() -> list[str]:
    """Sorted names of all registered campaigns."""
    _ensure_builtin_campaigns()
    return sorted(_REGISTRY)


def campaign_summaries() -> list[tuple[str, str]]:
    """Sorted ``(name, one-line docstring summary)`` pairs of all campaigns."""
    _ensure_builtin_campaigns()
    pairs = []
    for name in sorted(_REGISTRY):
        doc = (_REGISTRY[name].trial.__doc__ or "").strip()
        pairs.append((name, doc.splitlines()[0].strip() if doc else ""))
    return pairs


# --------------------------------------------------------------------------- #
# Worker entry point (top-level so it pickles under any start method)
# --------------------------------------------------------------------------- #
def _iter_trial_records(spec_dict: dict, indices: Sequence[int]):
    spec = CampaignSpec.from_dict(spec_dict)
    definition = get_campaign(spec.campaign)
    # spawn() children are prefix-stable, so deriving only up to the largest
    # index this batch needs yields the same per-trial seeds as spawning all
    # n_trials (see tests/properties/test_property_campaign.py).
    seeds = np.random.SeedSequence(spec.seed).spawn(max(indices) + 1)
    params_json = json.dumps(spec.params)
    # Each trial draws from its own generator, so chunking can never change
    # a trial's stream -- it only decides which trials share a kernel call.
    chunk = trial_batch_size() if definition.batch is not None else 1
    items = list(indices)
    for start in range(0, len(items), chunk):
        batch_indices = items[start : start + chunk]
        rngs = [np.random.default_rng(seeds[index]) for index in batch_indices]
        records = definition.run_batch(rngs, params_json, indices=batch_indices)
        for index, record in zip(batch_indices, records):
            yield index, record


def _run_trial_batch(spec_dict: dict, indices: Sequence[int]) -> list[tuple[int, TrialRecord]]:
    return list(_iter_trial_records(spec_dict, indices))


def _canonical_json(obj: Any) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _resume_key(spec_dict: dict) -> str:
    """Resume-identity of a spec: everything defining the trial *records*.

    Two fields are excluded: the cosmetic ``name`` label, and ``n_trials`` --
    per-trial seeds derive from prefix-stable ``SeedSequence.spawn`` streams,
    so trial ``i``'s record is identical under any trial count and a
    checkpoint written at one ``n_trials`` resumes (and extends) under
    another.  Adaptive campaigns rely on this: a point topped up past its
    initial count re-opens the same file.  Shrinking below the records
    already on disk is refused separately, by count, in
    :meth:`~repro.exec.checkpoint.TrialCheckpoint.load`.
    """
    data = {
        key: value
        for key, value in spec_dict.items()
        if key not in ("name", "n_trials")
    }
    return _canonical_json(data)
