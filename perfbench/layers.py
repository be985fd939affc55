"""Which program functions the traced run wraps, and the per-layer metrics.

Each entry wraps the public entry points of one ``src/repro`` layer at every
binding its callers use (see :meth:`spans.Tracer.patch_function`).  The span
names are the metric prefixes: ``fp.matmul`` spans give ``fp.matmul.calls``
and ``fp.matmul.s``, and so on.  README.md maps each metric to the end-to-end
metric it should move.
"""

from __future__ import annotations

import inspect
from statistics import median

import numpy as np

from spans import NAME, PARENT, Tracer, layer_totals, root_coverage

#: Per-layer metric names and units, in output order.  ``s`` metrics are
#: seconds per workload run, counts are per workload run, unless the name
#: says otherwise (``*_per_*``, ``*_ratio``, percentiles).
PER_LAYER_METRICS: dict[str, str] = {
    "exec.engine.self_s": "s",
    "exec.executor.wait_s": "s",
    "exec.dispatch.batches": "count",
    "exec.dispatch.trials_per_batch": "count",
    "exec.seed.spawned_per_trial": "count",
    "exec.worker.cpu_s": "s",
    "exec.progress.s": "s",
    "exec.adaptive.s": "s",
    "exec.adaptive.rounds": "count",
    "store.append.calls": "count",
    "store.append.s": "s",
    "store.append.p50_us": "us",
    "store.append.p99_us": "us",
    "store.canonical.s": "s",
    "store.progress.s": "s",
    "store.lifecycle.s": "s",
    "store.bytes_per_trial": "bytes",
    "store.read.s": "s",
    "fault.kernel.calls": "count",
    "fault.kernel.self_s": "s",
    "fault.kernel.trials_per_call": "count",
    "fault.kernel.decline_ratio": "ratio",
    "fault.inject.calls": "count",
    "fault.inject.s": "s",
    "fault.inject.applied_ratio": "ratio",
    "fault.fixture.builds": "count",
    "fault.fixture.s": "s",
    "transformer.gelu.s": "s",
    "transformer.layernorm.s": "s",
    "core.attention.calls": "count",
    "core.attention.self_s": "s",
    "core.snvr.s": "s",
    "core.dmr.s": "s",
    "core.strided_abft.s": "s",
    "gemm.verify.calls": "count",
    "gemm.verify.s": "s",
    "gemm.verify.trials_per_call": "count",
    "gemm.encode.s": "s",
    "fp.matmul.calls": "count",
    "fp.matmul.s": "s",
    "fp.matmul.flops": "flop",
    "fp.matmul.bytes": "bytes",
    "fp.bitflip.calls": "count",
    "attention.flash.s": "s",
    "trace.overhead_pct": "pct",
    "trace.unattributed_s": "s",
}


def _public_functions(module, names=None):
    for name, value in vars(module).items():
        if name.startswith("_") or not inspect.isfunction(value):
            continue
        if value.__module__ != module.__name__:
            continue
        if names is None or name in names:
            yield value


def _own_methods(cls, names):
    """The ``names`` that ``cls`` itself defines as plain methods."""
    return [name for name in names if inspect.isfunction(vars(cls).get(name))]


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


def install(tracer: Tracer) -> None:
    """Wrap every traced layer entry point (the tracer starts disabled)."""
    import repro.attention.flash as flash
    import repro.core.dmr as dmr
    import repro.core.schemes as schemes
    import repro.core.snvr as snvr
    import repro.core.strided_abft as strided_abft
    import repro.exec.adaptive as adaptive
    import repro.exec.checkpoint as checkpoint
    import repro.exec.distributed as distributed
    import repro.exec.engine as engine
    import repro.exec.executors as executors
    import repro.exec.progress as progress
    import repro.exec.results as results
    import repro.fault.batched  # noqa: F401  (binds fp16_matmul et al.)
    import repro.fault.campaign as campaign
    import repro.fault.injector as injector
    import repro.fault.runner as runner
    import repro.fp.bitflip as bitflip
    import repro.fp.float16 as float16
    import repro.gemm.checksum as checksum
    import repro.store.jsonl as jsonl
    import repro.store.sqlite as sqlite
    import repro.transformer.layers as tlayers

    counters = tracer.counters

    def function(fn, name, before=None, after=None):
        found = tracer.patch_function(fn, tracer.spanned(fn, name, before, after))
        if not found:
            raise RuntimeError(f"no binding of {fn.__module__}.{fn.__qualname__} to trace")

    def method(cls, attr, name, before=None, after=None):
        tracer.patch(cls, attr, tracer.spanned(vars(cls)[attr], name, before, after))

    # ---- repro.exec ------------------------------------------------------ #
    for attr in ("__init__", "run"):
        method(engine.ExperimentRunner, attr, "exec.engine")

    def traced_execute(fn):
        def execute(self, slices):
            return tracer.stream(fn(self, slices), "exec.executor.wait")

        return execute

    for cls in (executors.SerialExecutor, executors.ProcessExecutor, distributed.DistributedExecutor):
        tracer.patch(cls, "execute", traced_execute(vars(cls)["execute"]))

    def plan(batches):
        counters["exec.dispatch.batches"] += len(batches)
        counters["exec.dispatch.trials"] += sum(len(b.indices) for b in batches)
        counters["exec.seed.spawned"] += sum(max(b.indices) + 1 for b in batches if b.indices)

    tracer.patch(
        executors.Executor,
        "_batches",
        tracer.counted(executors.Executor._batches, lambda a, k, r: plan(r)),
    )

    def serial_plan(args, kwargs, result):
        # The serial executor hands each slice to this generator whole: one
        # dispatch batch, one SeedSequence.spawn(max(indices) + 1).
        indices = list(args[1])
        counters["exec.dispatch.batches"] += 1
        counters["exec.dispatch.trials"] += len(indices)
        counters["exec.seed.spawned"] += max(indices) + 1

    tracer.patch(
        executors,
        "_iter_trial_records",
        tracer.counted(executors._iter_trial_records, serial_plan),
    )

    for attr, value in vars(progress.ProgressTracker).items():
        if not attr.startswith("_") and inspect.isfunction(value):
            method(progress.ProgressTracker, attr, "exec.progress")

    def count_round(state, args, kwargs, result, span):
        counters["exec.adaptive.rounds"] += 1

    method(adaptive.AdaptiveSpec, "evaluate", "exec.adaptive", after=count_round)
    method(results.TrialRecordSet, "aggregate_interim", "exec.adaptive")

    # ---- repro.store ----------------------------------------------------- #
    def append_latency(state, args, kwargs, result, span):
        tracer.samples["store.append"].append(span[2] - span[1])

    for cls in (checkpoint.TrialCheckpoint, sqlite.SqlitePointStore):
        method(cls, "append", "store.append", after=append_latency)
        method(cls, "write_canonical", "store.canonical")
        for attr in ("load", "open", "close"):
            method(cls, attr, "store.lifecycle")
    for cls in (jsonl.JsonlStore, sqlite.SqliteStore):
        method(cls, "persist_progress", "store.progress")
        for attr in _own_methods(
            cls, ("validate_layout", "prepare", "point_store", "finalize", "close")
        ):
            method(cls, attr, "store.lifecycle")

    # ---- repro.fault ----------------------------------------------------- #
    def kernel_trials(state, args, kwargs, result, span):
        counters["fault.kernel.trials"] += len(args[1])

    method(runner.CampaignDefinition, "run_batch", "fault.kernel", after=kernel_trials)

    def batched_ran(args, kwargs, result):
        if result is not None:
            counters["fault.kernel.batched"] += 1

    runner._ensure_builtin_campaigns()
    for key, definition in list(runner._REGISTRY.items()):
        if definition.batch is not None:
            tracer.patch_dataclass_field(
                runner._REGISTRY, key, "batch", tracer.counted(definition.batch, batched_ran)
            )

    def planned(args, kwargs, result):
        counters["fault.inject.planned"] += len(args[0].specs)

    tracer.patch(
        injector.FaultInjector,
        "__post_init__",
        tracer.counted(vars(injector.FaultInjector)["__post_init__"], planned),
    )

    def landed(state, args, kwargs, result, span):
        counters["fault.inject.landed"] += len(result)

    method(injector.FaultInjector, "corrupt", "fault.inject", after=landed)

    def fixture_before(args, kwargs):
        return {id(value) for value in campaign._TRANSFORMER_FIXTURES.values()}

    def fixture_after(cached, args, kwargs, result, span):
        if id(result) not in cached:
            counters["fault.fixture.builds"] += 1

    function(campaign._transformer_fixture, "fault.fixture", fixture_before, fixture_after)

    # ---- repro.transformer ----------------------------------------------- #
    gelu = tlayers.gelu
    traced_gelu = tracer.spanned(gelu, "transformer.gelu")
    tracer.patch_function(gelu, traced_gelu)

    def rebind_activations(old, new):
        # A model holds its activation as an instance attribute bound when
        # it was built, so cached fixtures keep whichever function was
        # current then.
        for model, *_ in campaign._TRANSFORMER_FIXTURES.values():
            for block in model.blocks:
                if block.ffn.activation is old:
                    block.ffn.activation = new

    rebind_activations(gelu, traced_gelu)
    tracer.cleanups.append(lambda: rebind_activations(traced_gelu, gelu))
    method(tlayers.LayerNorm, "__call__", "transformer.layernorm")

    # ---- repro.core ------------------------------------------------------ #
    for cls in [schemes.ProtectionScheme, *_all_subclasses(schemes.ProtectionScheme)]:
        for attr in _own_methods(cls, ("forward", "forward_batched")):
            method(cls, attr, "core.attention")
    for fn in _public_functions(snvr):
        function(fn, "core.snvr")
    for fn in _public_functions(dmr):
        function(fn, "core.dmr")
    function(strided_abft.stride_class_counts, "core.strided_abft")
    for attr, value in list(vars(strided_abft.StridedABFT).items()):
        if not attr.startswith("_") and inspect.isfunction(value):
            method(strided_abft.StridedABFT, attr, "core.strided_abft")

    # ---- repro.gemm ------------------------------------------------------ #
    def verified(state, args, kwargs, result, span):
        # A stacked verify falls back to the scalar one on flagged slices;
        # count trials at the outermost call only.
        parent = span[PARENT]
        while parent >= 0:
            if tracer.spans[parent][NAME] == "gemm.verify":
                return
            parent = tracer.spans[parent][PARENT]
        counters["gemm.verify.trials"] += len(result) if isinstance(result, list) else 1

    for fn in _public_functions(checksum):
        if fn.__name__.startswith("verify_"):
            function(fn, "gemm.verify", after=verified)
        elif fn.__name__.startswith("encode_"):
            function(fn, "gemm.encode")

    # ---- repro.fp -------------------------------------------------------- #
    def matmul_work(state, args, kwargs, result, span):
        a, b = np.asarray(args[0]), np.asarray(args[1])
        counters["fp.matmul.flops"] += 2 * result.size * a.shape[-1]
        counters["fp.matmul.bytes"] += a.nbytes + b.nbytes + result.nbytes

    function(float16.fp16_matmul, "fp.matmul", after=matmul_work)

    def flipped(args, kwargs, result):
        counters["fp.bitflip.calls"] += 1

    for fn in _public_functions(bitflip, ("flip_bit", "flip_bit_array", "random_bit_positions")):
        tracer.patch_function(fn, tracer.counted(fn, flipped))

    # ---- repro.attention ------------------------------------------------- #
    function(flash.flash_attention, "attention.flash")


def per_layer_metrics(
    tracer_runs: list[dict],
    setup_run: dict,
    untraced_walls: list[float],
    traced_walls: list[float],
) -> dict[str, float]:
    """Fold the traced runs into the per-layer metric values.

    ``tracer_runs`` holds one dict per traced run with the run's ``spans``,
    ``counters``, ``samples``, ``window`` (start, end) and extra measured
    values (``worker_cpu_s``, ``bytes_per_trial``, ``read_s``).
    ``setup_run`` is the traced cold one-trial-per-point run, the only one
    that builds transformer fixtures.  Times and counts are means per run;
    ratios are over all runs' totals.
    """
    n = len(tracer_runs)
    totals: dict[str, dict[str, float]] = {}
    counters: dict[str, float] = {}
    append_samples: list[float] = []
    unattributed = 0.0
    for run in tracer_runs:
        for name, entry in layer_totals(run["spans"]).items():
            acc = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key in acc:
                acc[key] += entry[key]
        for key, value in run["counters"].items():
            counters[key] = counters.get(key, 0) + value
        append_samples += run["samples"].get("store.append", [])
        start, end = run["window"]
        unattributed += (end - start) - root_coverage(run["spans"], start, end)

    def layer(name, key):
        return totals.get(name, {}).get(key, 0.0) / n

    def ratio(num, den):
        return counters.get(num, 0) / counters[den] if counters.get(den) else 0.0

    kernel_calls = totals.get("fault.kernel", {}).get("calls", 0)
    append_us = sorted(s * 1e6 for s in append_samples)

    def percentile(q):
        if not append_us:
            return 0.0
        return append_us[min(len(append_us) - 1, int(q * len(append_us)))]

    setup_fixture = layer_totals(setup_run["spans"]).get("fault.fixture", {})
    metrics = {
        "exec.engine.self_s": layer("exec.engine", "self_s"),
        "exec.executor.wait_s": layer("exec.executor.wait", "s"),
        "exec.dispatch.batches": counters.get("exec.dispatch.batches", 0) / n,
        "exec.dispatch.trials_per_batch": ratio("exec.dispatch.trials", "exec.dispatch.batches"),
        "exec.seed.spawned_per_trial": ratio("exec.seed.spawned", "exec.dispatch.trials"),
        "exec.worker.cpu_s": sum(r["worker_cpu_s"] for r in tracer_runs) / n,
        "exec.progress.s": layer("exec.progress", "s"),
        "exec.adaptive.s": layer("exec.adaptive", "s"),
        "exec.adaptive.rounds": counters.get("exec.adaptive.rounds", 0) / n,
        "store.append.calls": layer("store.append", "calls"),
        "store.append.s": layer("store.append", "s"),
        "store.append.p50_us": percentile(0.50),
        "store.append.p99_us": percentile(0.99),
        "store.canonical.s": layer("store.canonical", "s"),
        "store.progress.s": layer("store.progress", "s"),
        "store.lifecycle.s": layer("store.lifecycle", "s"),
        "store.bytes_per_trial": sum(r["bytes_per_trial"] for r in tracer_runs) / n,
        "store.read.s": median(r["read_s"] for r in tracer_runs),
        "fault.kernel.calls": layer("fault.kernel", "calls"),
        "fault.kernel.self_s": layer("fault.kernel", "self_s"),
        "fault.kernel.trials_per_call": (
            counters.get("fault.kernel.trials", 0) / kernel_calls if kernel_calls else 0.0
        ),
        "fault.kernel.decline_ratio": (
            (kernel_calls - counters.get("fault.kernel.batched", 0)) / kernel_calls
            if kernel_calls
            else 0.0
        ),
        "fault.inject.calls": layer("fault.inject", "calls"),
        "fault.inject.s": layer("fault.inject", "s"),
        "fault.inject.applied_ratio": ratio("fault.inject.landed", "fault.inject.planned"),
        "fault.fixture.builds": setup_run["counters"].get("fault.fixture.builds", 0),
        "fault.fixture.s": setup_fixture.get("s", 0.0),
        "transformer.gelu.s": layer("transformer.gelu", "s"),
        "transformer.layernorm.s": layer("transformer.layernorm", "s"),
        "core.attention.calls": layer("core.attention", "calls"),
        "core.attention.self_s": layer("core.attention", "self_s"),
        "core.snvr.s": layer("core.snvr", "s"),
        "core.dmr.s": layer("core.dmr", "s"),
        "core.strided_abft.s": layer("core.strided_abft", "s"),
        "gemm.verify.calls": layer("gemm.verify", "calls"),
        "gemm.verify.s": layer("gemm.verify", "s"),
        "gemm.verify.trials_per_call": (
            counters.get("gemm.verify.trials", 0) / totals["gemm.verify"]["calls"]
            if totals.get("gemm.verify", {}).get("calls")
            else 0.0
        ),
        "gemm.encode.s": layer("gemm.encode", "s"),
        "fp.matmul.calls": layer("fp.matmul", "calls"),
        "fp.matmul.s": layer("fp.matmul", "s"),
        "fp.matmul.flops": counters.get("fp.matmul.flops", 0) / n,
        "fp.matmul.bytes": counters.get("fp.matmul.bytes", 0) / n,
        "fp.bitflip.calls": counters.get("fp.bitflip.calls", 0) / n,
        "attention.flash.s": layer("attention.flash", "s"),
        "trace.overhead_pct": 100.0 * (median(traced_walls) / median(untraced_walls) - 1.0),
        "trace.unattributed_s": unattributed / n,
    }
    return metrics
