"""The fault injector used by the protected kernels, plus BER-style corruption.

The injector is passed into a kernel; at every protected computation step the
kernel offers its freshly produced tensor to :meth:`FaultInjector.corrupt`,
which applies any pending :class:`FaultSpec` matching that site (and block),
records what it did, and returns.  Fault-free runs simply use an un-armed
injector (or ``None``), so protection code paths are identical with and
without faults.

Kernels run over a leading *trial* axis and never see an injector directly:
a :class:`FaultRouter` fans each stacked offer out to every trial's own
injector on that trial's slice.  A single forward is the one-trial case
(:meth:`FaultRouter.for_trial`).

*How* a matching tensor is corrupted is delegated to the spec's registered
fault model (:mod:`repro.fault.dictionary`); the default ``"seu"`` model
reproduces the historical single-bit-flip behaviour byte-for-byte.  Models
flagged ``persistent`` (stuck-at bits, intermittent faults) keep receiving
matching offers for the rest of the trial instead of retiring after their
first application.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fp.bitflip import bit_width, flip_bit, random_bit_positions
from repro.fault.models import FaultSite, FaultSpec, InjectionRecord


@dataclass
class _PendingFault:
    spec: FaultSpec
    remaining_skips: int
    model: object = None
    applied: bool = False
    state: dict = field(default_factory=dict)


@dataclass
class FaultInjector:
    """Applies planned faults to kernel intermediates.

    Parameters
    ----------
    specs:
        Faults to apply.  Under the paper's SEU assumption each detection /
        correction cycle sees at most one fault, but the injector supports an
        arbitrary list so multi-error scenarios can be studied too.  Each
        spec's ``fault_model`` selects the corruption strategy; unknown names
        fail here at construction, not mid-kernel.
    seed:
        Seed for the generator that draws unspecified element/bit positions.
    """

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int | None = None
    records: list[InjectionRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        from repro.fault.dictionary import get_fault_model

        self._rng = np.random.default_rng(self.seed)
        self._pending = [
            _PendingFault(
                spec=s,
                remaining_skips=s.occurrence,
                model=get_fault_model(s.fault_model),
            )
            for s in self.specs
        ]

    # ------------------------------------------------------------------ #
    @classmethod
    def single_bit_flip(
        cls,
        site: FaultSite,
        seed: int | None = None,
        block: tuple[int, int] | None = None,
        index: tuple[int, ...] | None = None,
        bit: int | None = None,
        dtype: str = "fp16",
        occurrence: int = 0,
        fault_model: str = "seu",
        model_params: dict | None = None,
    ) -> "FaultInjector":
        """Convenience constructor for one planned fault (SEU by default)."""
        spec = FaultSpec(
            site=site,
            block=block,
            index=index,
            bit=bit,
            dtype=dtype,
            occurrence=occurrence,
            fault_model=fault_model,
            model_params=dict(model_params or {}),
        )
        return cls(specs=[spec], seed=seed)

    @classmethod
    def inert(cls) -> "FaultInjector":
        """An injector with no planned faults (fault-free run)."""
        return cls(specs=[])

    # ------------------------------------------------------------------ #
    @property
    def armed(self) -> bool:
        """Whether any planned fault can still fire.

        One-shot faults disarm after applying; persistent models (stuck-at,
        intermittent) stay armed for the whole trial so every later matching
        offer reaches them.
        """
        return any(not p.applied or p.model.persistent for p in self._pending)

    def pending_at(self, sites) -> bool:
        """Whether a planned fault that can still fire targets one of ``sites``."""
        return any(
            p.spec.site in sites
            for p in self._pending
            if not p.applied or p.model.persistent
        )

    @property
    def applied_count(self) -> int:
        """Number of faults injected so far."""
        return len(self.records)

    def reset(self) -> None:
        """Re-arm all planned faults and clear the applied records."""
        from repro.fault.dictionary import get_fault_model

        self.records.clear()
        self._pending = [
            _PendingFault(
                spec=s,
                remaining_skips=s.occurrence,
                model=get_fault_model(s.fault_model),
            )
            for s in self.specs
        ]
        self._rng = np.random.default_rng(self.seed)

    # ------------------------------------------------------------------ #
    def corrupt(
        self,
        site: FaultSite,
        array: np.ndarray,
        block: tuple[int, int] | None = None,
    ) -> list[InjectionRecord]:
        """Apply pending faults matching ``site`` (and ``block``) to ``array``.

        The array is modified in place.  Returns the records of the faults
        applied by this call (empty for fault-free invocations).
        """
        applied_now: list[InjectionRecord] = []
        if not self._pending:
            return applied_now
        array = np.asarray(array)
        for pending in self._pending:
            spec = pending.spec
            if spec.site != site:
                continue
            if pending.applied and not pending.model.persistent:
                continue
            if spec.block is not None and block is not None and tuple(spec.block) != tuple(block):
                continue
            if not pending.applied and pending.remaining_skips > 0:
                pending.remaining_skips -= 1
                continue
            records = pending.model.apply(spec, array, self._rng, pending.state, block)
            pending.applied = True
            self.records.extend(records)
            applied_now.extend(records)
        return applied_now


class FaultRouter:
    """Routes one stacked ``corrupt`` offer to every trial's own injector.

    Kernel intermediates have shape ``(n_trials, ...)`` with trial ``t``
    owning slice ``array[t]`` -- exactly the array a single-trial forward
    offers, so each injector's element draws, occurrence counting and records
    do not depend on how many trials share the stack.

    Injectors duck-type :class:`FaultInjector`: ``corrupt``, ``armed`` and
    ``pending_at``.
    """

    def __init__(self, injectors):
        # Offers only reach injectors that still have un-applied faults: a
        # drained injector's `corrupt` is a no-op by contract (applied
        # pendings are skipped), so dropping it from the fan-out changes
        # nothing while removing most of the per-offer Python cost (one
        # planned fault per trial is the common case).
        self._active = [(t, inj) for t, inj in enumerate(injectors) if inj.armed]

    @classmethod
    def for_trial(cls, injector) -> "FaultRouter":
        """The router of a one-trial stack; ``None`` means a fault-free run."""
        return cls([] if injector is None else [injector])

    def corrupt(self, site: FaultSite, array: np.ndarray, block=None) -> None:
        if not self._active:
            return
        still_armed = []
        for t, injector in self._active:
            injector.corrupt(site, array[t], block)
            if injector.armed:
                still_armed.append((t, injector))
        self._active = still_armed

    def pending_at(self, sites) -> bool:
        """Whether any trial's injector may still fire at one of ``sites``.

        A kernel may skip its offers at ``sites`` when this is false:
        occurrence counting is per site, so offers no pending fault matches
        change no injector's state.
        """
        return any(injector.pending_at(sites) for _, injector in self._active)


def inject_bit_errors(
    array: np.ndarray,
    bit_error_rate: float,
    rng: np.random.Generator,
    dtype: str = "fp16",
    min_errors: int = 0,
) -> list[InjectionRecord]:
    """Corrupt ``array`` in place with independent bit flips at a given BER.

    The number of flipped bits is drawn from a binomial distribution over all
    bits of the tensor (``size * width``), matching the "computational bit
    error rate" sweeps of Figure 12.  ``min_errors`` can force at least that
    many flips so coverage statistics are defined even at low rates.
    """
    if not 0.0 <= bit_error_rate <= 1.0:
        raise ValueError("bit_error_rate must be in [0, 1]")
    rep_dtype = np.float16 if dtype == "fp16" else np.float32
    width = bit_width(rep_dtype)
    total_bits = array.size * width
    n_errors = int(rng.binomial(total_bits, bit_error_rate))
    n_errors = max(n_errors, min_errors)
    n_errors = min(n_errors, array.size)
    records: list[InjectionRecord] = []
    if n_errors == 0:
        return records
    for index, bit in random_bit_positions(rng, array.shape, n_errors, width=width):
        original = float(array[index])
        corrupted = flip_bit(original, bit, rep_dtype)
        array[index] = corrupted
        records.append(
            InjectionRecord(
                site=FaultSite.GEMM_QK,
                block=None,
                index=index,
                bit=bit,
                original=original,
                corrupted=float(array[index]),
            )
        )
    return records
