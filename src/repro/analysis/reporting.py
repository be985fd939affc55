"""Plain-text table/series formatting used by the benchmark harness and CLIs.

Every benchmark prints the rows/series of the table or figure it reproduces,
next to the values the paper reports, so `pytest benchmarks/ --benchmark-only`
doubles as the experiment log (captured into EXPERIMENTS.md).

Campaign/sweep aggregates render through the explicit
:class:`~repro.exec.results.SummaryProtocol`: anything with a
``summary() -> dict`` formats as stat columns, threshold sweeps have their
dedicated renderers, and any other object raises a clear ``TypeError``
instead of silently falling through a duck-typed blank.
"""

from __future__ import annotations

from typing import Sequence


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]], title: str | None = None) -> str:
    """Render a fixed-width text table."""
    str_rows = [[_fmt(cell) for cell in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)))
    lines.append("  ".join("-" * widths[i] for i in range(len(headers))))
    for row in str_rows:
        lines.append("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row)))
    return "\n".join(lines)


def format_series(name: str, xs: Sequence[object], ys: Sequence[float], fmt: str = "{:.3g}") -> str:
    """Render one named series as ``name: x=y, x=y, ...`` (a figure's line/bars)."""
    pairs = ", ".join(f"{x}={fmt.format(y)}" for x, y in zip(xs, ys))
    return f"{name}: {pairs}"


#: Pretty column names for the canonical campaign statistics (single-campaign
#: table on the left, compact sweep-table variant on the right).
_CAMPAIGN_HEADERS = {
    "n_trials": "trials",
    "n_injected": "injected",
    "n_clean": "clean",
    "detection_rate": "detection rate",
    "false_alarm_rate": "false alarm rate",
    "coverage": "coverage",
    "mean_output_error": "mean output error",
}
_SWEEP_HEADERS = {
    "n_trials": "trials",
    "n_injected": "injected",
    "n_clean": "clean",
    "detection_rate": "detection",
    "false_alarm_rate": "false alarm",
    "coverage": "coverage",
    "mean_output_error": "mean err",
}
#: Pretty column names for grid axes (detection-coverage sweeps commonly add
#: a ``fault_model`` axis; every other axis renders verbatim).
_AXIS_HEADERS = {
    "fault_model": "fault model",
}


def _summary_of(result, context: str) -> dict:
    """The explicit protocol check: ``summary()`` or a clear error."""
    from repro.exec.results import SummaryProtocol

    if not isinstance(result, SummaryProtocol):
        raise TypeError(
            f"{context} is a {type(result).__name__}, which does not implement "
            "the SummaryProtocol (summary() -> dict); wrap it in a typed "
            "result or render it with its dedicated formatter"
        )
    return result.summary()


def format_campaign_result(result, title: str | None = None) -> str:
    """Render one campaign aggregate (any :class:`SummaryProtocol` object)."""
    stats = _summary_of(result, "campaign result")
    headers = [_CAMPAIGN_HEADERS.get(key, key) for key in stats]
    return format_table(headers, [list(stats.values())], title=title)


def format_sweep_result(result, title: str | None = None) -> str:
    """Render a cross-campaign sweep as one merged table.

    ``result`` is a :class:`repro.exec.results.ExperimentResult`: one row per
    grid point, the grid axes as the leading columns and the per-point
    summary statistics as the trailing columns.  Every aggregate must
    implement the
    :class:`~repro.exec.results.SummaryProtocol` and agree on its summary
    keys -- a result lacking ``summary()`` (other than the threshold-sweep
    lists, which have their own compact rendering) raises a clear
    ``TypeError`` instead of silently rendering a blank or lopsided column.
    """
    axes = result.spec.axes
    entries = list(result.points)
    if title is None:
        title = (
            f"sweep: {result.spec.label} "
            f"({len(entries)} campaigns x {result.spec.n_trials} trials)"
        )
    if not entries:
        return format_table(axes, [], title=title)

    from repro.exec.results import SummaryProtocol

    axis_headers = [_AXIS_HEADERS.get(axis, axis) for axis in axes]
    if all(_is_threshold_sweep(entry.result) for entry in entries):
        headers = axis_headers + ["result"]
        rows = [
            [entry.point[a] for a in axes] + [_fmt_compact_result(entry.result)]
            for entry in entries
        ]
        return format_table(headers, rows, title=title)

    lacking = [entry for entry in entries if not isinstance(entry.result, SummaryProtocol)]
    if lacking:
        bad = lacking[0]
        raise TypeError(
            f"sweep entry {bad.point!r} aggregated to a "
            f"{type(bad.result).__name__}, which does not implement the "
            "SummaryProtocol (summary() -> dict); every grid point must "
            "produce a summarisable result to share one table"
        )

    keys = [key for key in entries[0].result.summary() if key not in axes]
    rows = []
    for entry in entries:
        values = entry.result.summary()
        missing = [key for key in keys if key not in values]
        if missing:
            raise ValueError(
                f"sweep entry {entry.point!r} summary lacks keys {missing} "
                "present in the first grid point; summaries must agree to "
                "share one table"
            )
        rows.append([entry.point[a] for a in axes] + [values[k] for k in keys])
    headers = axis_headers + [_SWEEP_HEADERS.get(key, key) for key in keys]
    return format_table(headers, rows, title=title)


def format_experiment_result(result, title: str | None = None) -> str:
    """Render a typed :class:`~repro.exec.results.ExperimentResult`.

    A sweep renders as the merged grid table; a single campaign dispatches on
    its aggregate (campaign statistics, threshold curves, or ``repr``).
    """
    if result.spec.is_sweep:
        return format_sweep_result(result, title=title)
    if title is None:
        title = f"campaign: {result.spec.label} ({result.spec.n_trials} trials)"
    return format_point_result(result.result, title=title)


def format_point_result(result, title: str | None = None) -> str:
    """Render one grid point's aggregate, whatever its type."""
    from repro.exec.results import SummaryProtocol

    if _is_threshold_sweep(result):
        return format_threshold_sweep(result, title=title)
    if isinstance(result, SummaryProtocol):
        return format_campaign_result(result, title=title)
    prefix = f"{title}\n" if title else ""
    return prefix + repr(result)


def _is_threshold_sweep(result) -> bool:
    return isinstance(result, list) and bool(result) and hasattr(result[0], "threshold")


def _fmt_compact_result(result) -> str:
    """One-cell rendering of a threshold-sweep aggregate."""
    return "; ".join(
        f"t={_fmt(p.threshold)} det={p.detection_rate:.2f} fa={p.false_alarm_rate:.2f}"
        for p in result
    )


def format_threshold_sweep(points, title: str | None = None) -> str:
    """Render a threshold sweep (duck-typed ``ThresholdSweepPoint`` list)."""
    thresholds = [p.threshold for p in points]
    lines = [] if title is None else [title]
    lines.append(format_series("fault detection rate", thresholds, [p.detection_rate for p in points]))
    lines.append(format_series("false alarm rate", thresholds, [p.false_alarm_rate for p in points]))
    return "\n".join(lines)


def format_pareto_table(
    summaries, metric: str = "detection_rate", title: str | None = None
) -> str:
    """Render scheme Pareto analysis (``repro pareto``) as one table.

    One row per :class:`~repro.analysis.decision.SchemeSummary`: pooled
    counts, the metric's point estimate with its confidence interval,
    the roofline overhead, and the verdict -- ``pareto`` for frontier
    schemes, ``dominated by ...`` otherwise.  An unmeasured metric (zero
    denominator) or unpriced scheme renders ``n/a`` rather than a fake 0.
    """
    metric_header = _SWEEP_HEADERS.get(metric, metric)
    headers = ["scheme", "points", "counts", metric_header, "ci", "overhead", "verdict"]
    rows = []
    for summary in summaries:
        if summary.rate is None:
            rate, interval = "n/a", "n/a"
        else:
            rate = f"{summary.rate:.4f}"
            lo, hi = summary.interval
            interval = f"[{lo:.4f}, {hi:.4f}]"
        overhead = "n/a" if summary.overhead is None else f"{summary.overhead:.4f}"
        if not summary.comparable:
            verdict = "n/a (unmeasured)"
        elif summary.pareto:
            verdict = "pareto"
        else:
            verdict = "dominated by " + ", ".join(summary.dominated_by)
        rows.append(
            [
                summary.scheme,
                summary.n_points,
                f"{summary.successes}/{summary.n}",
                rate,
                interval,
                overhead,
                verdict,
            ]
        )
    return format_table(headers, rows, title=title)


def _fmt(cell: object) -> str:
    if isinstance(cell, float):
        # Sub-milli magnitudes (bit-error rates, tight thresholds) would
        # render as 0.000 at fixed precision; fall back to significant digits.
        if cell != 0.0 and abs(cell) < 1e-3:
            return f"{cell:.3g}"
        return f"{cell:.3f}"
    return str(cell)
