"""Throughput benchmark harness: trials/sec per kernel, scalar vs batched.

Every benchmark case pins a small campaign configuration and times it twice
through the real execution engine (``repro.exec``): once with
``REPRO_TRIAL_BATCH=1`` (the scalar oracle path, every trial its own kernel
call) and once with the requested batch size (the stacked tensor-program
path).  The per-case trials/sec pair and their ratio land in a
``BENCH_<n>.json`` file, giving the repo a measured performance trajectory:
each PR commits a new snapshot, and CI's ``bench-smoke`` job fails if the
batched path regresses below loose per-campaign floors on the pinned config.

Both paths produce byte-identical JSONL records (see
``tests/fault/test_batched.py``), so the ratio is a pure execution-speed
measurement, not a numerics trade-off.

Usage::

    python -m repro bench --out BENCH_1.json          # full pinned suite
    python -m repro bench --smoke --out bench.json    # tiny CI configuration
    python -m repro bench --validate BENCH_1.json     # schema check only
    python benchmarks/bench_throughput.py [...]       # same entry point
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence

#: Bumped whenever the payload layout changes; validators pin it.
BENCH_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchCase:
    """One pinned campaign configuration to time."""

    name: str
    campaign: str
    n_trials: int
    params: dict = field(default_factory=dict)
    seed: int = 0


def default_cases() -> list[BenchCase]:
    """The full pinned suite: every campaign with a batched kernel, on a small
    fixed workload (the scalar-only campaigns have no second path to time)."""
    return [
        # Monte-Carlo fault campaigns run deliberately scaled-down models, so
        # the regime that matters is small tensors where per-trial Python and
        # kernel-call overhead dominates -- which is exactly what batching
        # removes.  Larger hidden/seq sizes shift time into shared elementwise
        # ops (fp64 tanh in gelu) and the ratio shrinks; see README.
        BenchCase(
            name="transformer_inference/none",
            campaign="transformer_inference",
            n_trials=256,
            params={"scheme": "none", "hidden_dim": 16, "seq_len": 8},
        ),
        # Protected schemes ride the stacked path too: the fused EFTA kernel
        # (unified verification -- the paper's headline configuration), and
        # the decoupled ABFT+DMR baseline.
        BenchCase(
            name="transformer_inference/efta_unified",
            campaign="transformer_inference",
            n_trials=256,
            params={"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8},
        ),
        BenchCase(
            name="transformer_inference/decoupled",
            campaign="transformer_inference",
            n_trials=128,
            params={"scheme": "decoupled", "hidden_dim": 16, "seq_len": 8},
        ),
        BenchCase(
            name="abft_error_coverage/tensor",
            campaign="abft_error_coverage",
            n_trials=128,
            params={"bit_error_rate": 1e-7, "rows": 64, "cols": 64, "depth": 32},
        ),
        BenchCase(
            name="abft_error_coverage/element",
            campaign="abft_error_coverage",
            n_trials=128,
            params={
                "scheme": "element",
                "bit_error_rate": 1e-7,
                "rows": 64,
                "cols": 64,
                "depth": 32,
            },
        ),
    ]


def smoke_cases() -> list[BenchCase]:
    """A tiny three-case configuration for the CI ``bench-smoke`` job."""
    return [
        BenchCase(
            name="transformer_inference/none",
            campaign="transformer_inference",
            n_trials=64,
            params={"scheme": "none", "hidden_dim": 16, "seq_len": 8},
        ),
        BenchCase(
            name="transformer_inference/efta_unified",
            campaign="transformer_inference",
            n_trials=64,
            params={"scheme": "efta_unified", "hidden_dim": 16, "seq_len": 8},
        ),
        BenchCase(
            name="abft_error_coverage/tensor",
            campaign="abft_error_coverage",
            n_trials=32,
            params={"bit_error_rate": 1e-7, "rows": 32, "cols": 32, "depth": 16},
        ),
    ]


# --------------------------------------------------------------------------- #
# Measurement
# --------------------------------------------------------------------------- #
def _time_once(case: BenchCase, executor: str) -> float:
    from repro.exec.engine import ExperimentRunner
    from repro.exec.spec import ExperimentSpec
    from repro.fault.runner import CampaignSpec

    spec = ExperimentSpec.from_campaign(
        CampaignSpec(
            campaign=case.campaign, n_trials=case.n_trials, seed=case.seed, params=case.params
        )
    )
    start = time.perf_counter()
    ExperimentRunner(spec, executor=executor).run()
    return time.perf_counter() - start


def _time_path(case: BenchCase, batch: int, executor: str, repeats: int) -> dict:
    from repro.fault.runner import TRIAL_BATCH_ENV

    previous = os.environ.get(TRIAL_BATCH_ENV)
    os.environ[TRIAL_BATCH_ENV] = str(batch)
    try:
        best = min(_time_once(case, executor) for _ in range(max(1, repeats)))
    finally:
        if previous is None:
            os.environ.pop(TRIAL_BATCH_ENV, None)
        else:
            os.environ[TRIAL_BATCH_ENV] = previous
    return {
        "seconds": best,
        "trials_per_sec": case.n_trials / best if best > 0 else float("inf"),
    }


def run_benchmark(
    cases: Sequence[BenchCase] | None = None,
    batch: int = 32,
    repeats: int = 3,
    executor: str = "serial",
    bench_id: int = 1,
) -> dict:
    """Time every case scalar vs batched and return the ``BENCH_*`` payload."""
    if batch < 2:
        raise ValueError("batch must be >= 2 (1 is the scalar baseline)")
    cases = list(default_cases() if cases is None else cases)
    if not cases:
        raise ValueError("no benchmark cases selected")
    results = []
    for case in cases:
        # One untimed warm-up run populates the per-worker fixture caches and
        # BLAS thread pools, so neither timed path pays first-use costs.
        _time_path(case, batch=batch, executor=executor, repeats=1)
        scalar = _time_path(case, batch=1, executor=executor, repeats=repeats)
        batched = _time_path(case, batch=batch, executor=executor, repeats=repeats)
        results.append(
            {
                "name": case.name,
                "campaign": case.campaign,
                "n_trials": case.n_trials,
                "seed": case.seed,
                "params": json.loads(json.dumps(case.params)),
                "scalar": scalar,
                "batched": batched,
                "speedup": scalar["seconds"] / batched["seconds"],
            }
        )
    import numpy

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "bench_id": int(bench_id),
        "created": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "executor": executor,
        "trial_batch": int(batch),
        "repeats": int(repeats),
        "host": {
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "platform": platform.platform(),
            "cpus": os.cpu_count(),
        },
        "cases": results,
    }


# --------------------------------------------------------------------------- #
# Validation
# --------------------------------------------------------------------------- #
def validate_bench_payload(data: object) -> list[str]:
    """Schema-check one ``BENCH_*.json`` payload; returns the problems found."""
    problems: list[str] = []
    if not isinstance(data, dict):
        return [f"payload must be a JSON object, got {type(data).__name__}"]
    if data.get("schema_version") != BENCH_SCHEMA_VERSION:
        problems.append(
            f"schema_version must be {BENCH_SCHEMA_VERSION}, got {data.get('schema_version')!r}"
        )
    for key, kind in [
        ("bench_id", int),
        ("created", str),
        ("executor", str),
        ("trial_batch", int),
        ("repeats", int),
        ("host", dict),
        ("cases", list),
    ]:
        if not isinstance(data.get(key), kind):
            problems.append(f"missing or mistyped field {key!r} (want {kind.__name__})")
    cases = data.get("cases")
    if isinstance(cases, list):
        if not cases:
            problems.append("cases must be non-empty")
        for i, case in enumerate(cases):
            if not isinstance(case, dict):
                problems.append(f"cases[{i}] must be an object")
                continue
            for key, kind in [
                ("name", str),
                ("campaign", str),
                ("n_trials", int),
                ("seed", int),
                ("params", dict),
                ("scalar", dict),
                ("batched", dict),
                ("speedup", (int, float)),
            ]:
                if not isinstance(case.get(key), kind):
                    problems.append(f"cases[{i}] missing or mistyped field {key!r}")
            for path in ("scalar", "batched"):
                timing = case.get(path)
                if not isinstance(timing, dict):
                    continue
                for key in ("seconds", "trials_per_sec"):
                    value = timing.get(key)
                    if not isinstance(value, (int, float)) or value <= 0:
                        problems.append(f"cases[{i}].{path}.{key} must be a positive number")
    return problems


def check_speedups(data: dict, requirements: dict[str, float]) -> list[str]:
    """Check per-campaign minimum speedups; returns human-readable failures.

    A requirement applies to every case of that campaign; unknown campaigns
    in ``requirements`` are reported as failures (a silently missing case
    would otherwise pass the gate).
    """
    failures: list[str] = []
    by_campaign: dict[str, list[dict]] = {}
    for case in data.get("cases", []):
        by_campaign.setdefault(case.get("campaign", ""), []).append(case)
    for campaign, minimum in requirements.items():
        cases = by_campaign.get(campaign)
        if not cases:
            failures.append(f"no benchmark case for campaign {campaign!r}")
            continue
        for case in cases:
            speedup = float(case.get("speedup", 0.0))
            if speedup < minimum:
                failures.append(
                    f"{case.get('name', campaign)}: speedup {speedup:.2f}x "
                    f"below required {minimum:.2f}x"
                )
    return failures


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #
def _parse_check(text: str) -> tuple[str, float]:
    campaign, sep, minimum = text.partition(":")
    if not sep or not campaign:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not CAMPAIGN:MIN_SPEEDUP (e.g. transformer_inference:3.0)"
        )
    try:
        return campaign, float(minimum)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{minimum!r} is not a number") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro bench",
        description="Measure trials/sec per kernel, scalar vs batched, and "
        "write a BENCH_<n>.json performance snapshot.",
    )
    parser.add_argument(
        "--out", default="BENCH_1.json", metavar="PATH", help="output JSON file"
    )
    parser.add_argument(
        "--batch",
        type=int,
        default=32,
        metavar="N",
        help="trial batch size of the batched path (default: 32)",
    )
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        metavar="N",
        help="timed repetitions per path; the best is kept (default: 3)",
    )
    parser.add_argument(
        "--executor", default="serial", help="execution backend to time (default: serial)"
    )
    parser.add_argument(
        "--smoke", action="store_true", help="run the tiny CI configuration"
    )
    parser.add_argument(
        "--campaign",
        action="append",
        default=[],
        metavar="NAME",
        help="only time cases of this campaign; repeatable",
    )
    parser.add_argument(
        "--check",
        action="append",
        default=[],
        type=_parse_check,
        metavar="CAMPAIGN:MIN",
        help="fail (exit 1) unless every case of CAMPAIGN reaches MIN "
        "speedup; repeatable",
    )
    parser.add_argument(
        "--validate",
        default=None,
        metavar="PATH",
        help="schema-check an existing BENCH_*.json and exit (no timing)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.validate is not None:
        try:
            data = json.loads(Path(args.validate).read_text())
        except (OSError, ValueError) as exc:
            print(f"error: cannot read {args.validate}: {exc}", file=sys.stderr)
            return 1
        problems = validate_bench_payload(data)
        for problem in problems:
            print(f"error: {args.validate}: {problem}", file=sys.stderr)
        if not problems:
            print(f"{args.validate}: valid BENCH schema v{BENCH_SCHEMA_VERSION}")
        return 1 if problems else 0

    cases = smoke_cases() if args.smoke else default_cases()
    if args.campaign:
        cases = [case for case in cases if case.campaign in args.campaign]
        if not cases:
            parser.error(f"no benchmark cases match --campaign {args.campaign}")
    out = Path(args.out)
    stem_digits = "".join(ch for ch in out.stem if ch.isdigit())
    payload = run_benchmark(
        cases,
        batch=args.batch,
        repeats=args.repeats,
        executor=args.executor,
        bench_id=int(stem_digits) if stem_digits else 1,
    )
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    for case in payload["cases"]:
        print(
            f"{case['name']:45s} scalar {case['scalar']['trials_per_sec']:9.1f}/s  "
            f"batched {case['batched']['trials_per_sec']:9.1f}/s  "
            f"speedup {case['speedup']:.2f}x"
        )
    print(f"wrote {out}")

    failures = check_speedups(payload, dict(args.check))
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
