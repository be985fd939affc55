"""In-memory span tracer that wraps the program's layer functions from outside.

The program under ``src/`` carries no timers of its own yet, so the traced
run records spans from the benchmark's side: :class:`Tracer` replaces each
public layer function at *every* binding its callers use (a function imported
by name into five modules has five bindings) with a wrapper that records
``(name, start, end, parent)``.  Spans stay in memory; :func:`layer_totals`
folds them into per-name call counts, inclusive and self times after the run.

A span's self time is its duration minus the part of it covered by its child
spans.  Only the thread and process that installed the tracer record: pool
workers forked from a traced parent, and the distributed coordinator's server
thread, call straight through.
"""

from __future__ import annotations

import dataclasses
import functools
import os
import sys
import threading
from collections import Counter, defaultdict
from time import perf_counter

# Span tuple layout: [name, start, end, parent index (-1 for a root)].
NAME, START, END, PARENT = range(4)

#: Top-level package whose module globals :meth:`Tracer.patch_function` rebinds.
PROGRAM = "repro"


class Tracer:
    """Records spans and counters while installed; restores everything after."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        #: Callables run by :meth:`uninstall` before the patches are undone.
        self.cleanups: list = []
        self._on = False
        self._pid = os.getpid()
        self._tid = threading.get_ident()

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #
    def recording(self) -> bool:
        return self._on and threading.get_ident() == self._tid and os.getpid() == self._pid

    def open_span(self, name: str) -> list:
        """Start a span under the innermost open one; close it with :meth:`close_span`."""
        span = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span[START] = perf_counter()
        return span

    def close_span(self, span: list) -> None:
        span[END] = perf_counter()
        self._stack.pop()

    def take(self) -> dict:
        """Hand over what was recorded so far and start afresh.

        Counters and samples are cleared in place: wrappers hold them.
        """
        taken = {
            "spans": self.spans,
            "counters": dict(self.counters),
            "samples": {key: list(values) for key, values in self.samples.items()},
        }
        self.spans = []
        self.counters.clear()
        self.samples.clear()
        self._stack = []
        return taken

    # ------------------------------------------------------------------ #
    # Wrappers
    # ------------------------------------------------------------------ #
    def spanned(self, fn, name: str, before=None, after=None):
        """``fn`` recording a ``name`` span per call.

        ``before(args, kwargs)`` returns a state object handed to
        ``after(state, args, kwargs, result, span)``, which records counters.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            state = before(args, kwargs) if before is not None else None
            span = tracer.open_span(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close_span(span)
            if after is not None:
                after(state, args, kwargs, result, span)
            return result

        return wrapper

    def counted(self, fn, after):
        """``fn`` calling ``after(args, kwargs, result)`` per call, with no span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if tracer.recording():
                after(args, kwargs, result)
            return result

        return wrapper

    def stream(self, iterator, name: str):
        """Re-yield ``iterator`` with one ``name`` span around each ``next``."""
        try:
            while True:
                span = self.open_span(name) if self.recording() else None
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        self.close_span(span)
                yield item
        finally:
            close = getattr(iterator, "close", None)
            if close is not None:
                close()

    # ------------------------------------------------------------------ #
    # Installation
    # ------------------------------------------------------------------ #
    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (remembering the original for :meth:`uninstall`)."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def patch_function(self, fn, replacement) -> int:
        """Rebind every module-level binding of ``fn`` in the program's modules.

        Returns the number of bindings replaced, so a caller can assert it
        found the function at all.
        """
        found = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == PROGRAM or module_name.startswith(PROGRAM + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, replacement)
                    found += 1
        return found

    def patch_dataclass_field(self, mapping: dict, key, field: str, value) -> None:
        """Swap one field of a frozen dataclass held in ``mapping[key]``."""
        original = mapping[key]
        self._patches.append((mapping, key, original))
        mapping[key] = dataclasses.replace(original, **{field: value})

    def start(self) -> None:
        self._on = True

    def stop(self) -> None:
        self._on = False

    def uninstall(self) -> None:
        """Restore every patched binding, newest first."""
        self._on = False
        while self.cleanups:
            self.cleanups.pop()()
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Span arithmetic
# --------------------------------------------------------------------------- #
def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children clipped to it."""
    children: defaultdict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    result = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = _union_length(
            [(max(s, start), min(e, end)) for s, e in children.get(index, ()) if e > start and s < end]
        )
        result.append((end - start) - covered)
    return result


def layer_totals(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive ``s`` and ``self_s``.

    ``calls`` and ``s`` count only the outermost span of a name, so a layer
    that re-enters itself (a scheme delegating to a base-class forward) is
    neither double-counted nor double-timed; ``self_s`` sums every span.
    """
    selfs = self_times(spans)
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, span in enumerate(spans):
        name = span[NAME]
        entry = totals[name]
        entry["self_s"] += selfs[index]
        parent = span[PARENT]
        nested = False
        while parent >= 0:
            if spans[parent][NAME] == name:
                nested = True
                break
            parent = spans[parent][PARENT]
        if not nested:
            entry["calls"] += 1
            entry["s"] += span[END] - span[START]
    return dict(totals)


def root_coverage(spans: list[list], start: float, end: float) -> float:
    """Seconds of ``[start, end]`` covered by at least one root span."""
    return _union_length(
        [
            (max(span[START], start), min(span[END], end))
            for span in spans
            if span[PARENT] < 0 and span[END] > start and span[START] < end
        ]
    )
