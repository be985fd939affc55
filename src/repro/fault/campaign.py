"""Monte-Carlo fault-injection campaigns (Figures 12 and 14).

Each campaign builds a realistic attention-shaped workload, injects faults
according to the configured model (bit-error rate or single-event upset),
applies one of the protection schemes, and aggregates detection / correction /
false-alarm statistics into a :class:`repro.fault.metrics.CampaignResult` or a
per-threshold sweep table.

Every campaign is implemented as a per-trial kernel registered on
:mod:`repro.fault.runner` (``trial(rng, params) -> record``), so all of them
can be sharded across workers, checkpointed and resumed, and driven from
declarative spec files via ``python -m repro run``.  The original entry
points below are thin wrappers that build an
:class:`~repro.exec.spec.ExperimentSpec` and run it in-process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import AttentionConfig
from repro.core.snvr import exp_checksum_propagate, strided_products
from repro.core.strided_abft import StridedABFT
from repro.exec.engine import run_experiment
from repro.exec.spec import ExperimentSpec
from repro.fault.metrics import CampaignResult, TrialOutcome
from repro.fault.runner import register_campaign, register_campaign_batch
from repro.fp.bitflip import flip_bit
from repro.fp.float16 import fp16_matmul
from repro.gemm.checksum import (
    encode_column_checksums,
    verify_column_checksums,
    verify_strided_checksums,
    verify_strided_checksums_stacked,
)


def faulted_errstate():
    """Floating-point error state for a computation that carries injected faults.

    A flipped exponent bit may drive any downstream intermediate to inf or
    NaN; that is the outcome a trial measures, not a numerical bug, so those
    warnings are silenced around the faulted computation only.  Fault-free
    computations (fixtures, clean oracles) keep the default state.
    """
    return np.errstate(all="ignore")


# --------------------------------------------------------------------------- #
# Figure 12 (left): error coverage of tensor vs element checksums under BER
# --------------------------------------------------------------------------- #
def _coverage_params(params: dict) -> tuple[str, float, int, int, int, int, float]:
    """``(scheme, bit_error_rate, rows, cols, depth, stride, rtol)`` of a coverage trial."""
    scheme = params.get("scheme", "tensor")
    if scheme not in ("tensor", "element"):
        raise ValueError("scheme must be 'tensor' or 'element'")
    return (
        scheme,
        float(params["bit_error_rate"]),
        int(params.get("rows", 128)),
        int(params.get("cols", 128)),
        int(params.get("depth", 64)),
        int(params.get("stride", 8)),
        float(params.get("rtol", 0.02)),
    )


def _inject_bursts(rng, faulty: np.ndarray, bit_error_rate: float, depth: int, stride: int) -> list:
    """Draw one trial's burst events and flip their bits in ``faulty`` (rows x cols) in place."""
    rows, cols = faulty.shape
    compute_bits = rows * cols * depth * 2 * 16
    n_events = max(1, int(rng.poisson(bit_error_rate * compute_bits)))
    events: list[list[tuple[int, int]]] = []
    for _ in range(n_events):
        row = int(rng.integers(rows))
        start = int(rng.integers(cols))
        length = int(min(1 + rng.geometric(0.6), stride, cols - start))
        positions = [(row, start + offset) for offset in range(length)]
        for pos in positions:
            bit = int(rng.integers(8, 16))  # high mantissa / exponent / sign
            faulty[pos] = flip_bit(float(faulty[pos]), bit, np.float16)
        events.append(positions)
    return events


def _coverage_record(events: list, reference: np.ndarray, faulty: np.ndarray, rtol: float, stride: int) -> dict:
    """A verified trial's record: an event is corrected when all its elements are back near the reference."""
    noise_floor = rtol * float(np.abs(reference).mean()) * stride
    corrected_events = 0
    for positions in events:
        if all(abs(faulty[pos] - reference[pos]) <= noise_floor for pos in positions):
            corrected_events += 1
    rel_err = float(
        np.max(np.abs(faulty - reference)) / max(np.max(np.abs(reference)), 1e-12)
    )
    return TrialOutcome(
        injected=len(events),
        detected=len(events),
        corrected=corrected_events,
        output_rel_error=rel_err,
    ).to_dict()


@register_campaign("abft_error_coverage")
def _abft_error_coverage_trial(rng: np.random.Generator, params: dict) -> dict:
    """One coverage trial: burst fault events against one ABFT scheme."""
    scheme, bit_error_rate, rows, cols, depth, stride, rtol = _coverage_params(params)
    atol = 1e-5

    q = rng.standard_normal((rows, depth)).astype(np.float32)
    k = rng.standard_normal((cols, depth)).astype(np.float32)
    reference = fp16_matmul(q, k.T)
    corrupted = reference.copy()

    if scheme == "tensor":
        abft = StridedABFT(AttentionConfig(seq_len=rows, head_dim=depth, checksum_stride=stride))
        checksums = abft.score_block_checksums(q, k, scale=1.0)
    else:
        ca1, ca2 = encode_column_checksums(q)
        col_check1 = fp16_matmul(ca1[None, :], k.T)[0]
        col_check2 = fp16_matmul(ca2[None, :], k.T)[0]

    events = _inject_bursts(rng, corrupted, bit_error_rate, depth, stride)

    if scheme == "tensor":
        verify_strided_checksums(
            corrupted, checksums.check1, checksums.check2, stride=stride, atol=atol, rtol=rtol
        )
    else:
        verify_column_checksums(corrupted, col_check1, col_check2, atol=atol, rtol=rtol)
    return _coverage_record(events, reference, corrupted, rtol, stride)


@register_campaign_batch("abft_error_coverage")
def _abft_error_coverage_batch(rngs: list, params: dict) -> list[dict]:
    """Batched coverage trials: the GEMMs and the strided verify run stacked over trials.

    Each trial draws from its own generator in the scalar kernel's exact
    order (q, then k, then the event stream), so the records are byte
    identical to running the scalar kernel per trial.  Verification draws
    nothing, so every trial's events are drawn first and the whole stack is
    then verified in one call (the element scheme still verifies per trial).
    """
    scheme, bit_error_rate, rows, cols, depth, stride, rtol = _coverage_params(params)
    atol = 1e-5

    qs = np.stack([rng.standard_normal((rows, depth)).astype(np.float32) for rng in rngs])
    ks = np.stack([rng.standard_normal((cols, depth)).astype(np.float32) for rng in rngs])
    references = fp16_matmul(qs, ks.transpose(0, 2, 1))
    corrupted = references.copy()
    trial_events = [
        _inject_bursts(rng, faulty, bit_error_rate, depth, stride)
        for rng, faulty in zip(rngs, corrupted)
    ]

    if scheme == "tensor":
        abft = StridedABFT(AttentionConfig(seq_len=rows, head_dim=depth, checksum_stride=stride))
        checksums = abft.score_block_checksums(qs, ks, scale=1.0)
        verify_strided_checksums_stacked(
            corrupted, checksums.check1, checksums.check2, stride=stride, atol=atol, rtol=rtol
        )
    else:
        for q, k, faulty in zip(qs, ks, corrupted):
            ca1, ca2 = encode_column_checksums(q)
            col_check1 = fp16_matmul(ca1[None, :], k.T)[0]
            col_check2 = fp16_matmul(ca2[None, :], k.T)[0]
            verify_column_checksums(faulty, col_check1, col_check2, atol=atol, rtol=rtol)
    return [
        _coverage_record(events, reference, faulty, rtol, stride)
        for events, reference, faulty in zip(trial_events, references, corrupted)
    ]


def abft_error_coverage(
    bit_error_rate: float,
    n_trials: int = 50,
    scheme: str = "tensor",
    rows: int = 128,
    cols: int = 128,
    depth: int = 64,
    stride: int = 8,
    seed: int = 0,
    rtol: float = 0.02,
) -> CampaignResult:
    """Fraction of fault events fully corrected by one ABFT scheme (Figure 12, left).

    Soft errors in a computing unit corrupt the run of output elements that
    the faulty lane produces, so each fault event is modelled as a short burst
    of corrupted elements within one output row (1-8 consecutive positions,
    geometrically distributed).  The number of events per protected block
    follows a Poisson law whose mean is the bit-error rate times the number of
    operand bits processed while producing the block
    (``rows * cols * depth * 2 * 16``).

    * The traditional *element* checksum keeps a single checksum column per
      row and can only correct an event that corrupted exactly one element.
    * The *tensor* (strided) checksum keeps 8 interleaved checksum columns per
      row and corrects any burst whose elements fall in distinct stride
      classes -- the "up to 8x" coverage improvement of Section 3.3.

    Coverage is the fraction of fault events whose every corrupted element was
    restored to within the checksum noise floor.
    """
    if scheme not in ("tensor", "element"):
        raise ValueError("scheme must be 'tensor' or 'element'")
    spec = ExperimentSpec(
        campaign="abft_error_coverage",
        n_trials=n_trials,
        seed=seed,
        params={
            "bit_error_rate": bit_error_rate,
            "scheme": scheme,
            "rows": rows,
            "cols": cols,
            "depth": depth,
            "stride": stride,
            "rtol": rtol,
        },
    )
    return run_experiment(spec).result


# --------------------------------------------------------------------------- #
# Figure 12 (right): detection / false-alarm rate vs relative threshold
# --------------------------------------------------------------------------- #
@dataclass
class ThresholdSweepPoint:
    """Detection and false-alarm rates measured at one relative threshold."""

    threshold: float
    detection_rate: float
    false_alarm_rate: float


def threshold_sweep_aggregate(records: list[dict], params: dict) -> list[ThresholdSweepPoint]:
    """Fold per-trial peak residuals into detection / false-alarm curves.

    Each record carries the trial's largest clean-run and faulty-run relative
    residual; a trial alarms at a threshold iff that peak exceeds it, which is
    exactly the ``np.any(residual > threshold)`` test of the original sweeps.
    """
    _require_thresholds(params)
    points = []
    for threshold in params["thresholds"]:
        false_alarms = sum(1 for r in records if r["max_clean_residual"] > threshold)
        detections = sum(1 for r in records if r["max_faulty_residual"] > threshold)
        points.append(
            ThresholdSweepPoint(
                threshold=float(threshold),
                detection_rate=detections / len(records),
                false_alarm_rate=false_alarms / len(records),
            )
        )
    return points


def _require_thresholds(params: dict) -> None:
    if not params.get("thresholds"):
        raise ValueError("sweep campaigns require a non-empty 'thresholds' param")


#: Sentinel for a non-finite residual: a flip that drives the verification
#: arithmetic to inf/NaN is trivially detectable (an isfinite check fires
#: before any threshold compare), so it alarms at every threshold -- and the
#: JSONL checkpoint stays valid JSON (NaN/Infinity are not RFC 8259).
_NONFINITE_RESIDUAL = 1e300


def _peak_residual(values: np.ndarray) -> float:
    peak = float(np.max(values))
    return peak if np.isfinite(peak) else _NONFINITE_RESIDUAL


@register_campaign("abft_detection_sweep", aggregate=threshold_sweep_aggregate)
def _abft_detection_trial(rng: np.random.Generator, params: dict) -> dict:
    """One sweep trial: clean and single-bit-flip residuals of strided ABFT."""
    _require_thresholds(params)  # fail on trial 0, not after the whole campaign
    rows = int(params.get("rows", 64))
    cols = int(params.get("cols", 64))
    depth = int(params.get("depth", 64))
    stride = int(params.get("stride", 8))
    cfg = AttentionConfig(seq_len=rows, head_dim=depth, checksum_stride=stride)
    abft = StridedABFT(cfg)

    q = rng.standard_normal((rows, depth)).astype(np.float32)
    k = rng.standard_normal((cols, depth)).astype(np.float32)
    scores = fp16_matmul(q, k.T)
    checksums = abft.score_block_checksums(q, k, scale=1.0)
    # The sweep reproduces the paper's normalisation: residuals are taken
    # relative to the checksum value itself, which is why small thresholds
    # alarm on round-off (the checksum is a signed sum and can be small)
    # and the optimum sits near the middle of the sweep (0.48 on the A100).
    reference = np.abs(np.asarray(checksums.check1, dtype=np.float64)) + 1e-6
    clean_res = np.abs(abft.residuals(scores, checksums)) / reference

    corrupted = scores.copy()
    idx = (int(rng.integers(rows)), int(rng.integers(cols)))
    bit = int(rng.integers(10, 16))  # a consequential (exponent / sign) bit flip
    corrupted[idx] = flip_bit(float(corrupted[idx]), bit, np.float16)
    faulty_res = np.abs(abft.residuals(corrupted, checksums)) / reference
    return {
        "max_clean_residual": _peak_residual(clean_res),
        "max_faulty_residual": _peak_residual(faulty_res),
    }


def abft_detection_sweep(
    thresholds: list[float],
    n_trials: int = 50,
    rows: int = 64,
    cols: int = 64,
    depth: int = 64,
    stride: int = 8,
    seed: int = 0,
) -> list[ThresholdSweepPoint]:
    """Strided-ABFT detection vs false-alarm trade-off over the threshold sweep.

    For every trial a score block is computed twice: once clean (false-alarm
    measurement -- any residual beyond the threshold is a false positive,
    caused purely by FP16 round-off between the checksum GEMM and the strided
    re-accumulation) and once with a single random bit flip injected
    (detection measurement).
    """
    spec = ExperimentSpec(
        campaign="abft_detection_sweep",
        n_trials=n_trials,
        seed=seed,
        params={
            "thresholds": [float(t) for t in thresholds],
            "rows": rows,
            "cols": cols,
            "depth": depth,
            "stride": stride,
        },
    )
    return run_experiment(spec).result


# --------------------------------------------------------------------------- #
# Figure 14 (left): SNVR detection / false-alarm rate vs relative threshold
# --------------------------------------------------------------------------- #
@register_campaign("snvr_detection_sweep", aggregate=threshold_sweep_aggregate)
def _snvr_detection_trial(rng: np.random.Generator, params: dict) -> dict:
    """One sweep trial: clean and faulty deviations of the EXP verification."""
    _require_thresholds(params)  # fail on trial 0, not after the whole campaign
    rows = int(params.get("rows", 64))
    cols = int(params.get("cols", 64))
    depth = int(params.get("depth", 64))
    stride = int(params.get("stride", 8))
    cfg = AttentionConfig(seq_len=rows, head_dim=depth, checksum_stride=stride)
    abft = StridedABFT(cfg)
    scale = cfg.effective_scale

    q = rng.standard_normal((rows, depth)).astype(np.float32)
    k = rng.standard_normal((cols, depth)).astype(np.float32)
    scores = fp16_matmul(q, k.T) * np.float32(scale)
    checksums = abft.score_block_checksums(q, k, scale)
    row_max = scores.max(axis=1)
    probs = np.exp(scores - row_max[:, None]).astype(np.float32)
    p_check = exp_checksum_propagate(checksums.check1, row_max, checksums.class_counts)
    clean_dev = np.abs(strided_products(probs, stride) - p_check) / np.abs(p_check)

    corrupted = probs.copy()
    idx = (int(rng.integers(rows)), int(rng.integers(cols)))
    bit = int(rng.integers(8, 16))  # a consequential (high-order) bit flip
    corrupted[idx] = flip_bit(float(corrupted[idx]), bit, np.float16)
    faulty_dev = np.abs(strided_products(corrupted, stride) - p_check) / np.abs(p_check)
    return {
        "max_clean_residual": _peak_residual(clean_dev),
        "max_faulty_residual": _peak_residual(faulty_dev),
    }


def snvr_detection_sweep(
    thresholds: list[float],
    n_trials: int = 50,
    rows: int = 64,
    cols: int = 64,
    depth: int = 64,
    stride: int = 8,
    seed: int = 0,
) -> list[ThresholdSweepPoint]:
    """Detection / false-alarm sweep of the unified EXP product verification.

    The checksum is propagated through the max subtraction and exponentiation
    (checksum reuse); the clean-run relative deviation of the strided products
    from the propagated checksum gives the false-alarm curve, a single bit
    flip in the probability block gives the detection curve.
    """
    spec = ExperimentSpec(
        campaign="snvr_detection_sweep",
        n_trials=n_trials,
        seed=seed,
        params={
            "thresholds": [float(t) for t in thresholds],
            "rows": rows,
            "cols": cols,
            "depth": depth,
            "stride": stride,
        },
    )
    return run_experiment(spec).result


# --------------------------------------------------------------------------- #
# Figure 14 (right): error distribution after restriction
# --------------------------------------------------------------------------- #
@register_campaign("restriction_error_distribution")
def _restriction_trial(rng: np.random.Generator, params: dict) -> dict:
    """One restriction trial: corrupt softmax numerator/denominator, restrict."""
    method = params.get("method", "selective")
    if method not in ("selective", "traditional"):
        raise ValueError("method must be 'selective' or 'traditional'")
    seq_len = int(params.get("seq_len", 256))
    head_dim = int(params.get("head_dim", 64))
    block_size = int(params.get("block_size", 16))
    peakedness = float(params.get("peakedness", 4.0))
    n_blocks = -(-seq_len // block_size)

    q = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    k = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    v = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    scale = peakedness / np.sqrt(head_dim)
    scores = (q @ k.T).astype(np.float32) * np.float32(scale)
    row_max = scores.max(axis=1)
    probs = np.exp(scores - row_max[:, None]).astype(np.float32)
    rowsum = probs.sum(axis=1)
    reference = (probs / rowsum[:, None]) @ v

    # SNVR lower bound: per-block local maxima relative to the global max.
    block_maxes = np.stack(
        [scores[:, b * block_size : (b + 1) * block_size].max(axis=1) for b in range(n_blocks)],
        axis=0,
    )
    lower_bound = np.exp(block_maxes - row_max[None, :]).sum(axis=0)

    row = int(rng.integers(seq_len))
    corrupt_numerator = bool(rng.integers(2))
    corrupted_probs = probs.copy()
    corrupted_rowsum = rowsum.copy()
    detected = False
    if corrupt_numerator:
        col = int(rng.integers(seq_len))
        bit = int(rng.integers(8, 16))
        corrupted_probs[row, col] = flip_bit(float(probs[row, col]), bit, np.float16)
        corrupted_rowsum = corrupted_probs.sum(axis=1)
    else:
        bit = int(rng.integers(18, 31))
        corrupted_rowsum[row] = flip_bit(float(rowsum[row]), bit, np.float32)

    if method == "selective":
        if corrupt_numerator:
            # Checksum reuse pinpoints the corrupted stride class; the
            # exponentiation is recomputed from the (uncorrupted) scores.
            delta = np.abs(corrupted_probs[row] - probs[row])
            if np.any(delta > 0.02 * max(float(probs[row].max()), 1e-6)):
                detected = True
                corrupted_probs[row] = probs[row]
                corrupted_rowsum = corrupted_probs.sum(axis=1)
        else:
            bad = (
                (corrupted_rowsum < lower_bound)
                | (corrupted_rowsum > seq_len)
                | ~np.isfinite(corrupted_rowsum)
            )
            detected = bool(bad[row])
            corrupted_rowsum = np.where(bad, lower_bound, corrupted_rowsum)
        normalised = corrupted_probs / corrupted_rowsum[:, None]
    else:
        # A flipped denominator may be zero or subnormal; the resulting
        # inf/NaN probabilities are the modelled outcome the clamp restricts.
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            raw = corrupted_probs / corrupted_rowsum[:, None]
        normalised = np.clip(raw, 0.0, 1.0)
        # The clamp "detects" a fault only if it actually restricted a value
        # (NaNs compare unequal to themselves and so count as restricted).
        detected = bool(np.any(normalised != raw))

    output = normalised @ v
    denom = max(float(np.abs(reference[row]).max()), 1e-12)
    abs_err = float(np.abs(output[row] - reference[row]).max())
    if not np.isfinite(abs_err):
        abs_err = 10.0 * denom  # a corrupted normaliser of zero yields inf/nan output
    rel_err = min(abs_err / denom, 10.0)
    return TrialOutcome(
        injected=1,
        detected=int(detected),
        corrected=int(rel_err < 0.02),
        output_rel_error=rel_err,
    ).to_dict()


def restriction_error_distribution(
    method: str = "selective",
    n_trials: int = 100,
    seq_len: int = 256,
    head_dim: int = 64,
    block_size: int = 16,
    peakedness: float = 4.0,
    seed: int = 0,
) -> CampaignResult:
    """Residual output error after restricting a corrupted softmax value (Fig. 14, right).

    Each trial builds a peaked attention row (realistic attention concentrates
    its mass on a few positions), corrupts either the softmax numerator (one
    exponentiation result) or the denominator (the reduce-sum result) with a
    consequential bit flip, applies the chosen restriction scheme and records
    the relative error of that row of the attention output.

    * ``"selective"`` (SNVR): numerator errors are pinpointed by the reused
      strided checksum and recomputed exactly; an out-of-range denominator is
      replaced by the theoretical lower-bound approximation
      ``sum_k exp(m_ik - m_i)`` accumulated over the kernel's key blocks.
    * ``"traditional"``: only the final normalised probabilities are clamped
      to their theoretical [0, 1] range, so numerator and in-range denominator
      corruptions pass through and spread the error distribution.

    Parameters
    ----------
    peakedness:
        Scale factor applied to the scores to concentrate the softmax (the
        paper's models attend sharply; a flat softmax makes the lower-bound
        approximation pessimistic).
    block_size:
        Size of the key blocks whose local maxima feed the SNVR lower bound.
    """
    if method not in ("selective", "traditional"):
        raise ValueError("method must be 'selective' or 'traditional'")
    spec = ExperimentSpec(
        campaign="restriction_error_distribution",
        n_trials=n_trials,
        seed=seed,
        params={
            "method": method,
            "seq_len": seq_len,
            "head_dim": head_dim,
            "block_size": block_size,
            "peakedness": peakedness,
        },
    )
    return run_experiment(spec).result


# --------------------------------------------------------------------------- #
# Pipeline-stage resilience of the fused kernel (examples/fault_injection_*)
# --------------------------------------------------------------------------- #
#: Pipeline stages whose values live in FP16 registers (the two GEMM-adjacent
#: stages); the reductions and normalisation accumulate in FP32.
_FP16_SITES = {"gemm_qk", "subtract_exp"}

#: Default consequential bit positions per representation (high mantissa
#: through sign), matching the paper's SEU model.
_DEFAULT_BITS = {"fp16": [8, 10, 12, 13, 14, 15], "fp32": [20, 23, 26, 28, 30, 31]}


def _resolve_faultload_trial(params: dict):
    """The (faultload, trial specs, digest) of a replay trial, or ``None``.

    Replay campaigns reference a pre-materialized artifact via the
    ``"faultload"`` param; the runner threads the absolute trial index in as
    ``"_trial_index"`` so chunking / worker count cannot shift which specs a
    trial replays.
    """
    if "faultload" not in params:
        return None
    from repro.fault.dictionary import faultload_digest, load_faultload

    faultload = load_faultload(params["faultload"])
    trial_index = params.get("_trial_index")
    if trial_index is None:
        raise ValueError(
            "faultload replay requires the campaign runner to supply "
            "'_trial_index'; run through repro.exec"
        )
    specs = faultload.specs_for(int(trial_index))
    return faultload, specs, faultload_digest(specs)


@register_campaign("efta_site_resilience", accepts_fault_model=True)
def _efta_site_trial(rng: np.random.Generator, params: dict) -> dict:
    """One fault trial against a chosen stage of the fused protected kernel."""
    # Imported here so spec-driven campaigns only pay for the fused kernel
    # when this workload is actually selected.
    from repro.attention.standard import standard_attention
    from repro.core.efta_optimized import EFTAttentionOptimized
    from repro.fault.dictionary import get_fault_model
    from repro.fault.injector import FaultInjector
    from repro.fault.models import FaultSite

    replay = _resolve_faultload_trial(params)
    fault_model = str(params.get("fault_model", "seu"))
    model_params = dict(params.get("model_params", {}))
    trial_models = [s.fault_model for s in replay[1]] if replay else [fault_model]
    for name in trial_models:
        if get_fault_model(name).at_rest:
            raise ValueError(
                f"fault model {name!r} corrupts parameters at rest; the "
                "fused attention kernel has no stored weights -- use the "
                "'transformer_inference' campaign"
            )

    seq_len = int(params.get("seq_len", 192))
    head_dim = int(params.get("head_dim", 64))
    block_size = int(params.get("block_size", 64))

    q = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    k = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    v = rng.standard_normal((seq_len, head_dim)).astype(np.float32)
    reference = standard_attention(q, k, v)

    config = AttentionConfig(seq_len=seq_len, head_dim=head_dim, block_size=block_size)
    attention = EFTAttentionOptimized(config)
    if replay is not None:
        _, specs, fault_digest = replay
        injector = FaultInjector(specs=list(specs), seed=int(rng.integers(2**31)))
    else:
        site = FaultSite(params["site"])
        # dtype and bit positions default per fault site, so a sweep grid can
        # vary `site` alone without re-deriving the representation for each.
        # Specs that pin `bits` without `dtype` keep the historical fp16
        # default: their bit positions were chosen for that representation,
        # and resumed pre-existing checkpoints must not mix fault models.
        if "dtype" in params:
            dtype = str(params["dtype"])
        elif "bits" in params:
            dtype = "fp16"
        else:
            dtype = "fp16" if site.value in _FP16_SITES else "fp32"
        bits = [int(b) for b in params.get("bits", _DEFAULT_BITS.get(dtype, _DEFAULT_BITS["fp16"]))]
        bit = bits[int(rng.integers(len(bits)))]
        # The normalisation runs once per row block (not per inner iteration),
        # so it is matched without a block constraint.
        block = None if site == FaultSite.NORMALIZE else (0, 1)
        injector = FaultInjector.single_bit_flip(
            site,
            seed=int(rng.integers(2**31)),
            bit=bit,
            dtype=dtype,
            block=block,
            fault_model=fault_model,
            model_params=model_params,
        )
    with faulted_errstate():
        output, report = attention(q, k, v, injector=injector)
        rel_err = float(np.abs(output - reference).max() / np.abs(reference).max())
    # The historical SEU path reports `injected=1` (one planned fault) even
    # when the pinned block never executes; other models count what landed.
    if replay is None and fault_model == "seu":
        injected = 1
    else:
        injected = len(injector.records)
    record = TrialOutcome(
        injected=injected,
        detected=int(report.detected_any),
        corrected=int(report.total_corrections > 0),
        output_rel_error=rel_err,
    ).to_dict()
    if replay is not None:
        record["fault_digest"] = fault_digest
    return record


# --------------------------------------------------------------------------- #
# Transformer-level campaign: inject during a full TransformerModel forward
# --------------------------------------------------------------------------- #
#: Per-worker LRU cache of (model, token ids, clean logits, site counts)
#: fixtures keyed by the workload parameters; bounded so grid sweeps over
#: many models stay small.  Insertion order doubles as recency order: hits
#: re-insert the entry at the back, and only the front (least recently used)
#: entry is evicted when the cache is full.
_TRANSFORMER_FIXTURES: dict[tuple, tuple] = {}
_TRANSFORMER_FIXTURE_LIMIT = 16


class _SiteProbe:
    """Injector stand-in that counts injection opportunities per fault site.

    Duck-types the :class:`~repro.fault.injector.FaultInjector` surface the
    kernels and the :class:`~repro.fault.injector.FaultRouter` touch
    (``corrupt``, ``armed``, ``pending_at``, ``applied_count``, ``records``)
    but never corrupts anything; one probed forward yields the exact number
    of ``corrupt`` calls each site sees under a given scheme, which bounds
    the ``occurrence`` draw so every planned fault actually lands.  It stays
    armed and pending at every site, so no kernel skips an offer it would
    make to a real injector.
    """

    applied_count = 0
    armed = True

    def __init__(self) -> None:
        from collections import Counter

        self.counts = Counter()
        self.records: list = []

    def corrupt(self, site, tensor, block=None) -> None:
        self.counts[site] += 1

    def pending_at(self, sites) -> bool:
        return True


def _transformer_fixture(params: dict) -> tuple:
    """Deterministically build (or fetch) the trial's model and clean oracle.

    The model, the prompt, the fault-free logits and the per-site injection
    opportunity counts depend only on ``params`` (never on the trial RNG), so
    every trial of a campaign -- on any worker -- sees the identical workload
    and the per-trial randomness is confined to the injected faults.
    """
    from repro.transformer.configs import get_config
    from repro.transformer.model import TransformerModel

    key = (
        str(params.get("model", "GPT2")),
        str(params.get("scheme", "efta_unified")),
        int(params.get("hidden_dim", 32)),
        int(params.get("num_layers", 2)),
        int(params.get("seq_len", 16)),
        int(params.get("attention_block_size", 16)),
        int(params.get("model_seed", 0)),
    )
    if key in _TRANSFORMER_FIXTURES:
        # Touch: re-insert at the back so round-robin sweeps keep hot entries.
        fixture = _TRANSFORMER_FIXTURES.pop(key)
        _TRANSFORMER_FIXTURES[key] = fixture
        return fixture
    name, scheme, hidden_dim, num_layers, seq_len, block_size, model_seed = key
    config = get_config(name).scaled(hidden_dim=hidden_dim, num_layers=num_layers)
    model = TransformerModel(
        config, seed=model_seed, attention_block_size=block_size, scheme=scheme
    )
    ids = np.random.default_rng(model_seed + 1).integers(
        0, config.vocab_size, size=(1, seq_len)
    )
    probe = _SiteProbe()
    clean_logits = model(ids, injector=probe).logits
    while len(_TRANSFORMER_FIXTURES) >= _TRANSFORMER_FIXTURE_LIMIT:
        # Evict only the least recently used entry (front of the dict), not
        # the whole cache: wiping everything made any sweep with more than
        # `limit` distinct workloads per worker rebuild the model and the
        # clean-logit oracle on nearly every trial.
        _TRANSFORMER_FIXTURES.pop(next(iter(_TRANSFORMER_FIXTURES)))
    _TRANSFORMER_FIXTURES[key] = (model, ids, clean_logits, dict(probe.counts))
    return _TRANSFORMER_FIXTURES[key]


def _weight_tensors(model) -> list[tuple[str, np.ndarray]]:
    """The model's linear weight matrices, in a deterministic order.

    The ``weights_at_rest`` fault model draws its target from this list; the
    order (per block: QKV + output projections, then the FFN pair; LM head
    last) is part of the campaign's reproducibility surface.
    """
    tensors: list[tuple[str, np.ndarray]] = []
    for b, block in enumerate(model.blocks):
        for name in ("q_proj", "k_proj", "v_proj", "out_proj"):
            tensors.append((f"blocks[{b}].attention.{name}", getattr(block.attention, name).weight))
        for name in ("fc_in", "fc_out"):
            tensors.append((f"blocks[{b}].ffn.{name}", getattr(block.ffn, name).weight))
    if model.lm_head is not None:
        tensors.append(("lm_head", model.lm_head.weight))
    return tensors


def _logit_scale(clean_logits: np.ndarray) -> float:
    """The fault-free logits' peak magnitude: the relative-error denominator."""
    return max(float(np.abs(clean_logits).max()), 1e-12)


def _transformer_outcome(deviation: float, denom: float, applied: int, report, tol: float) -> dict:
    """Fold one faulty forward into the campaign's TrialOutcome record.

    ``deviation`` is the forward's peak ``|faulty - clean|`` logit deviation
    and ``denom`` the :func:`_logit_scale` of the clean logits.
    """
    if not np.isfinite(deviation):
        deviation = 10.0 * denom
    rel_err = min(deviation / denom, 10.0)
    return TrialOutcome(
        injected=applied,
        detected=int(report.total_detections),
        corrected=applied if rel_err < tol else 0,
        false_alarm=bool(applied == 0 and report.detected_any),
        output_rel_error=rel_err if applied else 0.0,
    ).to_dict()


def _run_at_rest_trial(rng, model, ids, clean_logits, tol: float, specs) -> dict:
    """Corrupt stored weights per ``specs``, run the forward, restore exactly.

    Weight checksums were encoded from clean parameters at model init, so an
    at-rest flip is exactly what the paper's linear ABFT detects.  The model
    fixture is shared across trials: restoration writes back each record's
    original value (a float32/float16 round-trip, so bit exact).
    """
    from repro.fault.dictionary import get_fault_model

    tensors = _weight_tensors(model)
    apply_rng = np.random.default_rng(int(rng.integers(2**31)))
    applied: list[tuple[np.ndarray, list]] = []
    try:
        for spec in specs:
            fmodel = get_fault_model(spec.fault_model)
            weight = tensors[int(rng.integers(len(tensors)))][1]
            records = fmodel.apply(spec, weight, apply_rng, {}, None)
            applied.append((weight, records))
        with faulted_errstate():
            output = model(ids, injector=None)
    finally:
        for weight, records in reversed(applied):
            for record in reversed(records):
                weight[record.index] = record.original
    n_injected = sum(len(records) for _, records in applied)
    with faulted_errstate():
        deviation = float(np.abs(output.logits - clean_logits).max())
    return _transformer_outcome(
        deviation, _logit_scale(clean_logits), n_injected, output.report, tol
    )


def _validate_sites(sites, site_counts, params: dict) -> None:
    missing = [s.value for s in sites if not site_counts.get(s)]
    if missing:
        executed = sorted(s.value for s in site_counts)
        raise ValueError(
            f"sites {missing} never execute under scheme "
            f"{params.get('scheme', 'efta_unified')!r}; available: {executed}"
        )


@register_campaign("transformer_inference", accepts_fault_model=True)
def _transformer_inference_trial(rng: np.random.Generator, params: dict) -> dict:
    """One fault-injection trial against a full Transformer forward pass.

    Parameters (all optional, JSON-serialisable):

    * ``model`` -- Figure-15 configuration name (``"GPT2"``, ``"BERT-Base"``,
      ``"BERT-Large"``, ``"T5-Small"``); the architecture is scaled down to
      ``hidden_dim`` x ``num_layers`` so a trial stays cheap.
    * ``scheme`` -- protection-scheme registry name the model runs under
      (``"none"``, ``"efta"``, ``"efta_unified"``, ``"decoupled"``).
    * ``bit_error_rate`` -- faults per computed bit; the number of faults per
      forward is Poisson with mean ``BER * 2 * params * seq_len * 16`` (one
      16-bit operand pair per MAC).  Zero-fault trials measure false alarms.
      Without it, exactly one fault is injected (the SEU model).
    * ``site`` -- fault site name (:class:`~repro.fault.models.FaultSite`), or
      a list to sample from.  Default ``"linear"`` (present in all schemes).
      Sites the scheme never executes are rejected.
    * ``bits`` -- bit positions to sample; ``dtype`` -- ``"fp16"``/``"fp32"``.
    * ``fault_model`` -- registered fault-model name applied to each spec
      (default ``"seu"``); ``model_params`` -- its knobs.  The
      ``weights_at_rest`` model corrupts a stored weight matrix before the
      forward instead of a freshly computed value.
    * ``faultload`` -- path to a pre-materialized faultload artifact; the
      trial replays its pinned ``FaultSpec`` list verbatim (the same faults
      under every scheme / backend) and records its ``fault_digest``.
    * ``correction_tol`` -- relative logit deviation below which the faulty
      forward counts as corrected (default 0.02).

    The record is a :class:`~repro.fault.metrics.TrialOutcome`: detection from
    the scheme's report, correction from comparing the faulty logits to the
    fault-free oracle.  Computational faults run through the batch kernel
    (:mod:`repro.fault.batched`) on a one-trial chunk; only at-rest faults,
    which corrupt the shared model fixture, run here.
    """
    from repro.fault.dictionary import get_fault_model
    from repro.fault.models import FaultSite, FaultSpec

    tol = float(params.get("correction_tol", 0.02))
    replay = _resolve_faultload_trial(params)
    if replay is not None:
        _, specs, fault_digest = replay
        at_rest = [get_fault_model(s.fault_model).at_rest for s in specs]
        if not any(at_rest):
            params = {**params, "_trial_indices": [params["_trial_index"]]}
            return _batched._transformer_inference_batch([rng], params)[0]
        if not all(at_rest):
            raise ValueError(
                "faultload mixes at-rest and computational fault models; "
                "generate separate artifacts"
            )
        model, ids, clean_logits, _ = _transformer_fixture(params)
        record = _run_at_rest_trial(rng, model, ids, clean_logits, tol, specs)
        record["fault_digest"] = fault_digest
        return record

    fault_model = str(params.get("fault_model", "seu"))
    fmodel = get_fault_model(fault_model)
    if not fmodel.at_rest:
        # Computational faults: the stacked forward on a one-trial chunk.
        return _batched._transformer_inference_batch([rng], params)[0]

    model, ids, clean_logits, _ = _transformer_fixture(params)
    bits = [int(b) for b in params.get("bits", [26, 28, 30])]
    dtype = str(params.get("dtype", fmodel.default_dtype))
    n_faults = 1
    if "bit_error_rate" in params:
        ber = float(params["bit_error_rate"])
        exposure_bits = 2.0 * model.num_parameters() * ids.shape[1] * 16.0
        n_faults = int(rng.poisson(ber * exposure_bits))
    specs = [
        FaultSpec(
            site=FaultSite.LINEAR,
            bit=bits[int(rng.integers(len(bits)))],
            dtype=dtype,
            fault_model=fault_model,
            model_params=dict(params.get("model_params", {})),
        )
        for _ in range(n_faults)
    ]
    return _run_at_rest_trial(rng, model, ids, clean_logits, tol, specs)


# The transformer kernel body lives in its own module (it pulls in the whole
# model stack); importing it here attaches it to the registry entry created
# above whenever the campaign kernels are loaded.
from repro.fault import batched as _batched  # noqa: E402
