"""The fault-model dictionary and replayable faultload artifacts.

Mirrors DAVOS's customizable fault dictionary and ``SBFI_FaultloadGenerator``:
instead of hard-wiring the SEU bit-flip into the injector, every way a value
can be corrupted is a registered :class:`FaultModel` strategy, selected per
:class:`~repro.fault.models.FaultSpec` by name (``fault_model``, default
``"seu"`` -- which reproduces the historical injector byte-for-byte).

Two halves:

* **Registry** -- ``@register_fault_model("name")`` binds a strategy with two
  operations: :meth:`FaultModel.materialize` pre-draws the fault plan of one
  trial (for faultload generation), and :meth:`FaultModel.apply` corrupts one
  offered tensor at injection time.  Built-ins beyond the SEU/BER pair:
  ``stuck_at_0``/``stuck_at_1`` (a bit forced to a value, persisting across
  re-reads of the site within a trial), ``multi_bit_burst`` (k adjacent bits
  of one word), ``row_line``/``col_line`` (a whole memory line of the offered
  tile), ``weights_at_rest`` (parameters corrupted before the forward pass),
  and ``intermittent`` (recurs across tile iterations with probability p).

* **Faultloads** -- a :class:`FaultloadGenerator` pre-materializes the whole
  campaign's fault plan once into a JSONL artifact (schema version, root
  seed, model, one ``FaultSpec`` list per trial).  A spec referencing the
  artifact by path (``"faultload": "fl.jsonl"``) replays the *identical*
  fault sequence under every protection scheme, executor backend and worker
  count -- the cross-scheme comparisons of the paper inject the same faults.

CLI: ``python -m repro faultload generate|describe`` and
``python -m repro list-fault-models``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from repro.fault.models import FaultSite, FaultSpec, InjectionRecord
from repro.fault.seeds import trial_seed
from repro.fp.bitflip import bit_width, flip_bit

#: On-disk faultload schema version this build reads and writes.
FAULTLOAD_SCHEMA_VERSION = 1


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _rep_dtype(dtype: str):
    return np.float16 if dtype == "fp16" else np.float32


def _resolve_index(
    spec: FaultSpec, array: np.ndarray, rng: np.random.Generator
) -> tuple[int, ...]:
    """The corrupted element: the pinned spec index, or a uniform draw.

    Replicates the historical injector draw order exactly (one flat-index
    draw, then unravel) -- the ``"seu"`` byte-parity contract rests on it.
    """
    if array.size == 0:
        raise ValueError("cannot inject a fault into an empty array")
    if spec.index is not None:
        index = tuple(spec.index)
        if len(index) != array.ndim:
            raise ValueError(
                f"fault index {index} has wrong rank for array of shape {array.shape}"
            )
        return index
    flat = int(rng.integers(array.size))
    return tuple(int(i) for i in np.unravel_index(flat, array.shape))


def _flip_record(
    spec: FaultSpec,
    array: np.ndarray,
    index: tuple[int, ...],
    bit: int,
    block,
) -> InjectionRecord:
    """Flip one bit of ``array[index]`` in place and record it."""
    original = float(array[index])
    array[index] = flip_bit(original, bit, _rep_dtype(spec.dtype))
    return InjectionRecord(
        site=spec.site,
        block=block,
        index=index,
        bit=bit,
        original=original,
        corrupted=float(array[index]),
    )


# --------------------------------------------------------------------------- #
# Strategy interface + registry
# --------------------------------------------------------------------------- #
class FaultModel:
    """One way a value can be corrupted: a strategy in the fault dictionary.

    Subclasses implement :meth:`apply` (corrupt one offered tensor) and may
    override :meth:`materialize` (pre-draw one trial's fault plan for a
    faultload artifact).  Class attributes describe the model's contract:

    * ``persistent`` -- the fault outlives its first application: the injector
      keeps offering matching sites to it for the rest of the trial
      (stuck-at bits, intermittent faults).
    * ``at_rest`` -- the fault corrupts stored parameters *before* the forward
      pass rather than freshly computed values; campaign kernels apply it to
      a weight tensor directly instead of routing it through ``corrupt``.
    * ``default_dtype`` -- representation the model corrupts when a spec does
      not pin one at materialization time.
    """

    name: str = ""
    persistent: bool = False
    at_rest: bool = False
    default_dtype: str = "fp16"

    # ------------------------------------------------------------------ #
    def materialize(
        self,
        rng: np.random.Generator,
        tensor_shape: tuple[int, ...] | None,
        params: dict,
    ) -> list[FaultSpec]:
        """Pre-draw one trial's fault plan.

        ``params`` carries the campaign-facing knobs: ``site`` (default
        ``"linear"``), ``dtype``, ``bits`` (bit positions to sample; a
        uniform draw over the representation width when absent), ``n_faults``
        (specs per trial, default 1), ``occurrence`` and ``model_params``.
        With a ``tensor_shape`` the element coordinates are pinned too;
        without one they stay ``None`` and are drawn at injection time.
        """
        site = FaultSite(str(params.get("site", "linear")))
        dtype = str(params.get("dtype", self.default_dtype))
        bits = params.get("bits")
        width = bit_width(_rep_dtype(dtype))
        specs = []
        for _ in range(int(params.get("n_faults", 1))):
            index = None
            if tensor_shape:
                flat = int(rng.integers(int(np.prod(tensor_shape))))
                index = tuple(int(i) for i in np.unravel_index(flat, tensor_shape))
            if bits:
                bit = int(bits[int(rng.integers(len(bits)))])
            else:
                bit = int(rng.integers(width))
            specs.append(
                FaultSpec(
                    site=site,
                    index=index,
                    bit=bit,
                    dtype=dtype,
                    occurrence=int(params.get("occurrence", 0)),
                    fault_model=self.name,
                    model_params=dict(params.get("model_params", {})),
                )
            )
        return specs

    def apply(
        self,
        spec: FaultSpec,
        array: np.ndarray,
        rng: np.random.Generator,
        state: dict,
        block,
    ) -> list[InjectionRecord]:
        """Corrupt ``array`` in place per ``spec``; return what was done.

        ``state`` is a per-pending-fault scratch dict that lives for the
        whole trial -- persistent models keep their drawn coordinates there
        so every re-application hits the same location.
        """
        raise NotImplementedError


_FAULT_MODELS: dict[str, FaultModel] = {}


def register_fault_model(name: str):
    """Decorator registering a :class:`FaultModel` subclass under ``name``."""

    def decorator(cls):
        if name in _FAULT_MODELS:
            raise ValueError(f"fault model {name!r} is already registered")
        instance = cls()
        instance.name = name
        _FAULT_MODELS[name] = instance
        return cls

    return decorator


def get_fault_model(name: str) -> FaultModel:
    """Look up a registered fault model; unknown names raise a clear error."""
    try:
        return _FAULT_MODELS[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r}; registered: {available_fault_models()}"
        ) from None


def available_fault_models() -> list[str]:
    """Sorted names of all registered fault models."""
    return sorted(_FAULT_MODELS)


def fault_model_summaries() -> list[tuple[str, str]]:
    """Sorted ``(name, one-line docstring summary)`` pairs of all models."""
    pairs = []
    for name in sorted(_FAULT_MODELS):
        doc = (type(_FAULT_MODELS[name]).__doc__ or "").strip()
        pairs.append((name, doc.splitlines()[0].strip() if doc else ""))
    return pairs


# --------------------------------------------------------------------------- #
# Built-in models
# --------------------------------------------------------------------------- #
@register_fault_model("seu")
class SingleEventUpset(FaultModel):
    """Single-event upset: one bit flip in one freshly computed element."""

    def apply(self, spec, array, rng, state, block):
        index = _resolve_index(spec, array, rng)
        width = bit_width(_rep_dtype(spec.dtype))
        bit = spec.bit if spec.bit is not None else int(rng.integers(width))
        return [_flip_record(spec, array, index, bit, block)]


@register_fault_model("ber")
class BitErrorRate(FaultModel):
    """Independent bit flips over the whole tensor at a bit-error rate.

    ``model_params``: ``bit_error_rate`` (required), ``min_errors`` (floor on
    the binomial draw, default 0).  Matches :func:`inject_bit_errors`.
    """

    def apply(self, spec, array, rng, state, block):
        from repro.fp.bitflip import random_bit_positions

        try:
            rate = float(spec.model_params["bit_error_rate"])
        except KeyError:
            raise ValueError(
                "fault model 'ber' requires model_params['bit_error_rate']"
            ) from None
        if not 0.0 <= rate <= 1.0:
            raise ValueError("bit_error_rate must be in [0, 1]")
        width = bit_width(_rep_dtype(spec.dtype))
        n_errors = int(rng.binomial(array.size * width, rate))
        n_errors = max(n_errors, int(spec.model_params.get("min_errors", 0)))
        n_errors = min(n_errors, array.size)
        records = []
        if n_errors == 0:
            return records
        for index, bit in random_bit_positions(rng, array.shape, n_errors, width=width):
            records.append(_flip_record(spec, array, index, bit, block))
        return records


def _force_bit(value: float, bit: int, stuck: int, dtype: str) -> float:
    """Value with one bit of its representation forced to ``stuck`` (0/1)."""
    rep = _rep_dtype(dtype)
    udtype = np.dtype(np.uint16 if rep is np.float16 else np.uint32)
    bits = np.asarray(value, dtype=rep).view(udtype)
    mask = udtype.type(1) << udtype.type(bit)
    forced = np.bitwise_or(bits, mask) if stuck else np.bitwise_and(bits, np.bitwise_not(mask))
    return float(forced.view(rep))


class _StuckAt(FaultModel):
    persistent = True
    stuck = 0

    def apply(self, spec, array, rng, state, block):
        if "flat" not in state:
            index = _resolve_index(spec, array, rng)
            state["flat"] = int(np.ravel_multi_index(index, array.shape))
            width = bit_width(_rep_dtype(spec.dtype))
            state["bit"] = spec.bit if spec.bit is not None else int(rng.integers(width))
        # The stuck cell is a flat memory position: re-reads of the same site
        # see the same element even if the offered tile's shape varies.
        index = tuple(
            int(i) for i in np.unravel_index(state["flat"] % array.size, array.shape)
        )
        bit = state["bit"]
        original = float(array[index])
        forced = _force_bit(original, bit, self.stuck, spec.dtype)
        if forced == original:
            return []  # bit already at the stuck value: nothing changed
        array[index] = forced
        return [
            InjectionRecord(
                site=spec.site,
                block=block,
                index=index,
                bit=bit,
                original=original,
                corrupted=float(array[index]),
            )
        ]


@register_fault_model("stuck_at_0")
class StuckAt0(_StuckAt):
    """Stuck-at-0: one bit forced low on every re-read of the site."""

    stuck = 0


@register_fault_model("stuck_at_1")
class StuckAt1(_StuckAt):
    """Stuck-at-1: one bit forced high on every re-read of the site."""

    stuck = 1


@register_fault_model("multi_bit_burst")
class MultiBitBurst(FaultModel):
    """Multi-bit upset: k adjacent bits of one word flip together.

    ``model_params``: ``burst_len`` (adjacent bits, default 2).  The spec's
    ``bit`` is the burst's lowest bit; the burst clips at the word width.
    """

    def apply(self, spec, array, rng, state, block):
        index = _resolve_index(spec, array, rng)
        width = bit_width(_rep_dtype(spec.dtype))
        burst = int(spec.model_params.get("burst_len", 2))
        if burst < 1:
            raise ValueError("burst_len must be >= 1")
        start = spec.bit if spec.bit is not None else int(rng.integers(width))
        return [
            _flip_record(spec, array, index, b, block)
            for b in range(start, min(start + burst, width))
        ]


class _MemoryLine(FaultModel):
    #: Axis of the offered tile the corrupted line runs along.
    line_axis = -1

    def apply(self, spec, array, rng, state, block):
        if array.size == 0:
            raise ValueError("cannot inject a fault into an empty array")
        width = bit_width(_rep_dtype(spec.dtype))
        if array.ndim == 1:
            line = [(int(i),) for i in range(array.shape[0])]
        else:
            vary = array.ndim + self.line_axis
            fixed = {
                axis: int(rng.integers(array.shape[axis]))
                for axis in range(array.ndim)
                if axis != vary
            }
            line = []
            for position in range(array.shape[vary]):
                line.append(
                    tuple(
                        position if axis == vary else fixed[axis]
                        for axis in range(array.ndim)
                    )
                )
        bit = spec.bit if spec.bit is not None else int(rng.integers(width))
        return [_flip_record(spec, array, index, bit, block) for index in line]


@register_fault_model("row_line")
class RowLine(_MemoryLine):
    """Memory-line fault: one whole row of the offered tile flips a bit."""

    line_axis = -1


@register_fault_model("col_line")
class ColLine(_MemoryLine):
    """Memory-line fault: one whole column of the offered tile flips a bit."""

    line_axis = -2


@register_fault_model("weights_at_rest")
class WeightsAtRest(FaultModel):
    """Parameter corruption at rest: a weight bit flips before the forward.

    Campaign kernels apply this model to a stored weight tensor directly (it
    never rides the ``corrupt`` offer path); the paper's ABFT weight
    checksums -- encoded at initialisation from clean weights -- are what
    makes the stale parameter detectable.
    """

    at_rest = True
    default_dtype = "fp32"

    def apply(self, spec, array, rng, state, block):
        index = _resolve_index(spec, array, rng)
        width = bit_width(_rep_dtype(spec.dtype))
        bit = spec.bit if spec.bit is not None else int(rng.integers(width))
        return [_flip_record(spec, array, index, bit, block)]


@register_fault_model("intermittent")
class Intermittent(FaultModel):
    """Intermittent fault: recurs across tile iterations with probability p.

    ``model_params``: ``p`` (re-fire probability per matching offer, default
    0.5).  The first matching offer always fires (so every trial injects at
    least once); each later matching offer fires independently with
    probability ``p``, drawing a fresh element unless the spec pins one.
    """

    persistent = True

    def apply(self, spec, array, rng, state, block):
        p = float(spec.model_params.get("p", 0.5))
        if not 0.0 <= p <= 1.0:
            raise ValueError("intermittent fault probability p must be in [0, 1]")
        first = not state.get("fired")
        if not first and not (float(rng.random()) < p):
            return []
        state["fired"] = True
        index = _resolve_index(spec, array, rng)
        width = bit_width(_rep_dtype(spec.dtype))
        bit = spec.bit if spec.bit is not None else int(rng.integers(width))
        return [_flip_record(spec, array, index, bit, block)]


# --------------------------------------------------------------------------- #
# Faultload artifacts
# --------------------------------------------------------------------------- #
def faultload_digest(specs: list[FaultSpec]) -> str:
    """Stable short digest of one trial's fault plan.

    Campaign records carry it in faultload-replay mode, so two runs injected
    the identical ``FaultSpec`` sequence iff their digest streams match --
    the cross-scheme / cross-backend replay tests compare exactly this.
    """
    payload = _canonical([spec.to_dict() for spec in specs])
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


@dataclass(frozen=True)
class Faultload:
    """A pre-materialized, replayable fault plan: one spec list per trial."""

    header: dict
    trials: tuple[tuple[FaultSpec, ...], ...]

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def model(self) -> str:
        return str(self.header.get("model", ""))

    def specs_for(self, trial: int) -> list[FaultSpec]:
        """The fault plan of one trial (raises IndexError past ``n_trials``)."""
        if not 0 <= trial < len(self.trials):
            raise IndexError(
                f"faultload holds trials 0..{len(self.trials) - 1}, got {trial}"
            )
        return list(self.trials[trial])

    def digest_for(self, trial: int) -> str:
        return faultload_digest(self.specs_for(trial))

    # ------------------------------------------------------------------ #
    def to_jsonl(self) -> str:
        """Canonical JSONL form: one header line + one line per trial."""
        lines = [_canonical({"faultload": self.header})]
        for trial, specs in enumerate(self.trials):
            lines.append(
                _canonical({"trial": trial, "specs": [s.to_dict() for s in specs]})
            )
        return "\n".join(lines) + "\n"

    @classmethod
    def from_jsonl(cls, text: str) -> "Faultload":
        """Inverse of :meth:`to_jsonl`, validating schema version and shape."""
        lines = [line for line in text.splitlines() if line.strip()]
        if not lines:
            raise ValueError("faultload artifact is empty")
        try:
            head = json.loads(lines[0])
        except json.JSONDecodeError as exc:
            raise ValueError(f"faultload header is not valid JSON: {exc}") from None
        if not isinstance(head, dict) or "faultload" not in head:
            raise ValueError(
                'faultload artifact must open with a {"faultload": {...}} header line'
            )
        header = head["faultload"]
        version = header.get("schema_version")
        if version != FAULTLOAD_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported faultload schema version {version!r}; "
                f"supported: [{FAULTLOAD_SCHEMA_VERSION}]"
            )
        n_trials = int(header.get("n_trials", len(lines) - 1))
        by_trial: dict[int, tuple[FaultSpec, ...]] = {}
        for line in lines[1:]:
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"faultload trial line is not valid JSON: {exc}") from None
            trial = int(data["trial"])
            if trial in by_trial:
                raise ValueError(f"faultload repeats trial {trial}")
            by_trial[trial] = tuple(
                FaultSpec.from_dict(spec) for spec in data.get("specs", [])
            )
        missing = sorted(set(range(n_trials)) - set(by_trial))
        extra = sorted(set(by_trial) - set(range(n_trials)))
        if missing or extra:
            raise ValueError(
                f"faultload declares {n_trials} trials but is missing "
                f"{missing} and has extra {extra}"
            )
        return cls(header=header, trials=tuple(by_trial[t] for t in range(n_trials)))

    def write(self, path: str | Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(self.to_jsonl())
        return path


@dataclass(frozen=True)
class FaultloadGenerator:
    """Pre-materializes a reproducible faultload (DAVOS-style SBFI generator).

    Trial ``i`` draws from ``SeedSequence(seed, spawn_key=(i,))`` (identical
    to ``SeedSequence(seed).spawn(n)[i]`` for any ``n > i``) -- the same
    derivation the campaign runner uses -- so generating the artifact twice
    (any machine, any chunking) yields identical bytes.
    """

    model: str
    n_trials: int
    seed: int = 0
    site: str = "linear"
    dtype: str | None = None
    bits: tuple[int, ...] | None = None
    n_faults: int = 1
    occurrence: int = 0
    shape: tuple[int, ...] | None = None
    model_params: dict | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.n_trials < 1:
            raise ValueError("n_trials must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative (SeedSequence entropy)")
        get_fault_model(self.model)  # unknown names fail here, not per trial

    def generate(self) -> Faultload:
        model = get_fault_model(self.model)
        params = {
            "site": self.site,
            "dtype": self.dtype or model.default_dtype,
            "n_faults": self.n_faults,
            "occurrence": self.occurrence,
            "model_params": dict(self.model_params or {}),
        }
        if self.bits:
            params["bits"] = [int(b) for b in self.bits]
        rngs = (np.random.default_rng(trial_seed(self.seed, t)) for t in range(self.n_trials))
        trials = tuple(tuple(model.materialize(rng, self.shape, params)) for rng in rngs)
        header = {
            "schema_version": FAULTLOAD_SCHEMA_VERSION,
            "model": self.model,
            "model_params": dict(self.model_params or {}),
            "seed": self.seed,
            "n_trials": self.n_trials,
            "site": self.site,
            "dtype": params["dtype"],
            "n_faults": self.n_faults,
            "occurrence": self.occurrence,
            "bits": [int(b) for b in self.bits] if self.bits else None,
            "shape": list(self.shape) if self.shape else None,
            "name": self.name,
        }
        return Faultload(header=header, trials=trials)


#: Per-process faultload cache keyed by (resolved path, mtime_ns, size) --
#: every trial of a replay campaign reads the same artifact, and workers load
#: it once instead of per trial.
_FAULTLOAD_CACHE: dict[tuple, Faultload] = {}
_FAULTLOAD_CACHE_LIMIT = 8


def load_faultload(path: str | Path) -> Faultload:
    """Load (and cache) a faultload artifact from disk."""
    path = Path(path)
    try:
        stat = path.stat()
    except FileNotFoundError:
        raise ValueError(f"faultload artifact {path} does not exist") from None
    key = (str(path.resolve()), stat.st_mtime_ns, stat.st_size)
    hit = _FAULTLOAD_CACHE.get(key)
    if hit is not None:
        return hit
    faultload = Faultload.from_jsonl(path.read_text())
    while len(_FAULTLOAD_CACHE) >= _FAULTLOAD_CACHE_LIMIT:
        _FAULTLOAD_CACHE.pop(next(iter(_FAULTLOAD_CACHE)))
    _FAULTLOAD_CACHE[key] = faultload
    return faultload
