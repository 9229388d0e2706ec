"""Spans, timing shims and the arithmetic on them.

Every per-layer time the benchmark reports is recorded from this file:
the engine is not instrumented.  A traced run wraps the public callable
at each layer boundary in a shim that opens a span (name, start, end,
parent, op id), keeps the spans in memory, and removes the shims again
before anything untraced is measured.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Callable

NAME, START, END, PARENT, OP = range(5)


def percentile(values, q: float) -> float:
    """The ``q``-th percentile (0..100), linear between closest ranks."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    rank = (len(ordered) - 1) * q / 100.0
    lo = int(rank)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (rank - lo)


class SpanRecorder:
    """In-memory span store with one open-span stack per thread.

    A span opened on a thread whose stack is empty (an engine worker
    thread) hangs under the innermost span open on the *driver* thread,
    which is what ran the pool; a shim that names the op itself (the
    serving dispatcher, whose ops overlap) starts a root instead.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = None
        """Op id the driver thread is currently running (closed loops)."""
        self._lock = threading.Lock()
        self._driver = threading.get_ident()
        self._driver_stack: list[int] = []
        self._local = threading.local()

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._driver:
            return self._driver_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, op=None) -> int:
        stack = self._stack()
        parent = None
        if stack:
            parent = stack[-1]
        elif op is None and self._driver_stack:
            parent = self._driver_stack[-1]
        if op is None:
            op = self.spans[parent][OP] if parent is not None else self.op
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, 0.0, None, parent, op])
        stack.append(index)
        self.spans[index][START] = time.perf_counter()
        return index

    def end(self, index: int) -> None:
        self.spans[index][END] = time.perf_counter()
        self._stack().pop()

    def tally(self, amounts: dict) -> None:
        with self._lock:
            for name, amount in amounts.items():
                self.counts[name] += amount


def self_times(spans) -> list[float]:
    """Per span: its duration minus the part its children cover.

    Children on other threads may overlap one another, so the covered
    part is the union of the child intervals clipped to the parent's.
    """
    kids: dict[int, list[int]] = defaultdict(list)
    for index, span in enumerate(spans):
        if span[PARENT] is not None:
            kids[span[PARENT]].append(index)
    out = []
    for index, span in enumerate(spans):
        covered, cursor = 0.0, span[START]
        for kid in sorted(kids[index], key=lambda k: spans[k][START]):
            lo = max(spans[kid][START], cursor)
            hi = min(spans[kid][END], span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((span[END] - span[START]) - covered)
    return out


def rollup(spans) -> dict[str, dict]:
    """``name -> {calls, total_s, self_s}`` over finished spans."""
    table: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        row = table.setdefault(
            span[NAME], {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        row["calls"] += 1
        row["total_s"] += span[END] - span[START]
        row["self_s"] += own
    return table


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``module`` attribute path ``attr``.

    ``attr`` is ``"function"`` or ``"Class.method"``.  ``op_of`` maps
    the call's positional arguments to an op id (the span then starts a
    root); ``tally`` maps the return value to counter increments;
    ``count_only`` counts calls under ``name`` without opening a span
    (for callables too hot to time).
    """

    name: str
    module: str
    attr: str
    op_of: Callable | None = None
    tally: Callable | None = None
    count_only: bool = False


def _shim(recorder: SpanRecorder, target: Target, original):
    if target.count_only:
        @functools.wraps(original)
        def counted(*args, **kwargs):
            recorder.counts[target.name] += 1
            return original(*args, **kwargs)

        return counted

    @functools.wraps(original)
    def timed(*args, **kwargs):
        op = target.op_of(args) if target.op_of is not None else None
        index = recorder.begin(target.name, op)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.end(index)
        if target.tally is not None:
            recorder.tally(target.tally(result))
        return result

    return timed


class Shims:
    """Installed shims; :meth:`remove` puts every original back."""

    def __init__(self, recorder: SpanRecorder, targets):
        self.missing: list[str] = []
        self._rebound: list[tuple[object, str, object]] = []
        for target in targets:
            try:
                self._install(recorder, target)
            except (ImportError, AttributeError, KeyError):
                self.missing.append(target.name)

    def _install(self, recorder, target: Target) -> None:
        module = importlib.import_module(target.module)
        owner_name, _, method = target.attr.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[method]
            self._rebind(owner, method, original,
                         _shim(recorder, target, original))
            return
        original = getattr(module, target.attr)
        shim = _shim(recorder, target, original)
        # `from x import f` copies the reference: rebind every repro.*
        # module attribute that *is* the original, under whatever name.
        for name, mod in list(sys.modules.items()):
            if mod is None or not (
                name == "repro" or name.startswith("repro.")
            ):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._rebind(mod, attr, original, shim)

    def _rebind(self, owner, attr, original, shim) -> None:
        setattr(owner, attr, shim)
        self._rebound.append((owner, attr, original))

    @property
    def rebound(self) -> list[tuple[object, str, object]]:
        return list(self._rebound)

    def remove(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)
