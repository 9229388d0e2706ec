"""Span-based query-lifecycle tracing.

A :class:`QueryTracer` observes one query (or batch) end to end:
lifecycle phases — parse → optimize → lower/CSE → execute — are opened
as nested :class:`Span`\\ s, and within an execute span the runtime's
tracer hooks record one operator span per evaluated plan node (plus
memo hits, guard degradations, and retries).  The tracer doubles as
the profiling collector: its ``operators`` list is the per-operator
breakdown ``EXPLAIN ANALYZE`` prints
(:func:`~repro.plans.profile.profile_execution` attaches one).

All span timing uses the simulated cost clock
(:meth:`~repro.storage.iostats.IOStats.elapsed`), never the wall
clock, so traces are deterministic and byte-identical across repeated
seeded runs.

Degradation notes are keyed by plan-node identity: ``on_degrade``
fires from *inside* an operator (before its ``on_execute``), and an
earlier implementation kept a single pending slot — a degrade note
could leak onto the wrong profile row when the degraded operator was
followed by a memo hit, or raised before completing.  Keying by node
makes the note attach to exactly the operator that degraded, or to
nothing at all.

Request-scoped tracing (the serving runtime): a :class:`TraceContext`
identifies one served request (request id, tenant, pinned stats
epoch); a :class:`RequestTrace` wraps one request's
:class:`QueryTracer` with the serving lifecycle spans — admission →
queue wait → dispatch → plan/execute (operator spans nest inside
execute); a :class:`ServeTracer` collects every request trace of a
soak plus server-level events (reloads, snapshot retirements) and
assembles the strict ``repro.trace.v1`` document with
:func:`trace_document` (shape: ``export.SCHEMAS``).  All serving spans
are timestamped on the runtime's clock — the virtual clock under the
deterministic driver — so two identical seeded soaks emit
byte-identical trace documents.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Sequence

from repro.storage.iostats import IOStats

if TYPE_CHECKING:  # plans imports obs back; keep this one-way at runtime
    from repro.plans.nodes import PlanNode

__all__ = [
    "OperatorProfile",
    "Span",
    "QueryTracer",
    "TraceContext",
    "RequestTrace",
    "ServeTracer",
    "TRACE_SCHEMA",
    "SPAN_KINDS",
    "trace_document",
]

TRACE_SCHEMA = "repro.trace.v1"

# The closed span-kind vocabulary of the trace document.  ``lifecycle``
# and ``phase`` come from the single-query tracer, ``operator`` from
# the runtime hooks, and the serving kinds from RequestTrace.
SPAN_KINDS = frozenset({
    "lifecycle",
    "phase",
    "operator",
    "request",
    "admission",
    "queue",
    "dispatch",
})


@dataclass(frozen=True)
class OperatorProfile:
    """One operator's share of the run."""

    label: str
    out_rows: int
    tuples: int
    page_reads: int
    page_writes: int
    elapsed: float
    buffer_hits: int = 0
    retries: int = 0
    retry_wait: float = 0.0
    memoized: bool = False
    degraded: str | None = None
    """Guard downgrade note (hash → sort spill path), if any."""
    node_key: tuple | None = field(default=None, compare=False, repr=False)
    """Structural plan key the calibration layer joins estimates to
    this row by (not serialized).  The tracer records the executed
    node's own key; :meth:`repro.plans.lower.PlanDAG.plan_tree_rows`
    re-keys the row of a lowering rewrite (``FilterScan``) to the
    outermost plan-tree node it replaces."""
    absorbed: tuple = field(default=(), compare=False, repr=False)
    """``(structural key, exact out_rows)`` of the plan-tree nodes a
    lowering rewrite folded into this operator (not serialized)."""

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "out_rows": self.out_rows,
            "tuples": self.tuples,
            "page_reads": self.page_reads,
            "page_writes": self.page_writes,
            "buffer_hits": self.buffer_hits,
            "retries": self.retries,
            "retry_wait": self.retry_wait,
            "elapsed": self.elapsed,
            "memoized": self.memoized,
            "degraded": self.degraded,
        }


@dataclass
class Span:
    """One traced interval, timed on the simulated cost clock."""

    name: str
    kind: str = "phase"
    start: float = 0.0
    end: float | None = None
    attributes: dict = field(default_factory=dict)
    children: list["Span"] = field(default_factory=list)
    events: list[dict] = field(default_factory=list)

    @property
    def cost(self) -> float:
        """Cost units spent inside this span (0 while still open)."""
        return 0.0 if self.end is None else self.end - self.start

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "start": self.start,
            "end": self.end,
            "cost": self.cost,
            "attributes": dict(self.attributes),
            "events": [dict(e) for e in self.events],
            "children": [c.to_dict() for c in self.children],
        }


class QueryTracer:
    """Lifecycle spans plus the runtime's per-operator hooks.

    Implements the :class:`~repro.plans.runtime.Tracer` protocol
    (``on_execute`` / ``on_memo_hit`` / ``on_degrade``) and adds a span
    API for the phases around execution::

        tracer = QueryTracer()
        with tracer.span("optimize", algorithm="ve+"):
            ...
        ctx = ExecutionContext(..., tracer=tracer)
        tracer.bind_stats(ctx.stats)          # cost clock source
        with tracer.span("execute"):
            evaluate_dag(dag, ctx)

    ``operators`` collects one :class:`OperatorProfile` row per
    evaluated node — the ``EXPLAIN ANALYZE`` breakdown.
    """

    def __init__(
        self,
        stats: IOStats | None = None,
        clock: Callable[[], float] | None = None,
        root_name: str = "query",
        root_kind: str = "lifecycle",
    ):
        self.root = Span(root_name, kind=root_kind)
        self._stack: list[Span] = [self.root]
        self.operators: list[OperatorProfile] = []
        self._stats = stats
        self._clock = clock
        # Pending degradation notes keyed by plan-node identity; see
        # the module docstring for why this must not be a single slot.
        self._pending_degrade: dict[int, str] = {}

    # ------------------------------------------------------------------
    # Cost clock
    # ------------------------------------------------------------------
    def bind_stats(self, stats: IOStats) -> None:
        """Attach the stats clock that timestamps spans.

        A bound stats clock takes precedence over ``bind_clock``: per
        -query tracing measures cost relative to the run's own IOStats.
        """
        self._stats = stats

    def bind_clock(self, clock: Callable[[], float] | None) -> None:
        """Attach an external time source (e.g. the serving clock)."""
        self._clock = clock

    def _now(self) -> float:
        if self._stats is not None:
            return self._stats.elapsed()
        if self._clock is not None:
            return self._clock()
        return 0.0

    # ------------------------------------------------------------------
    # Lifecycle spans
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str, kind: str = "phase", **attributes):
        """Open a nested span; closes (cost-stamped) on exit.

        If the body raises, the span still closes — an ``error`` event
        carrying the exception type and message is recorded on it, and
        any descendant spans the body left open (via ``push_span`` or a
        hook that raised mid-way) are closed too, so the failure cannot
        corrupt the parentage of later spans.
        """
        span = self.push_span(name, kind=kind, **attributes)
        try:
            yield span
        except BaseException as exc:
            self._record_error(span, exc)
            raise
        finally:
            self.pop_span(span)

    def push_span(
        self,
        name: str,
        kind: str = "phase",
        start: float | None = None,
        **attributes,
    ) -> Span:
        """Open a span without a ``with`` block (close via ``pop_span``).

        The serving layer needs this: a request's queue span opens at
        admission and closes at dispatch — two different call sites.
        """
        span = Span(
            name,
            kind=kind,
            start=self._now() if start is None else start,
            attributes=dict(attributes),
        )
        self._stack[-1].children.append(span)
        self._stack.append(span)
        return span

    def pop_span(self, span: Span | None = None, end: float | None = None) -> None:
        """Close the innermost open span — or, given ``span``, close it
        and any descendants still dangling above it (defensive
        rebalance: a raising body must not skew later parentage)."""
        target = span if span is not None else self._stack[-1]
        if not any(open_span is target for open_span in self._stack[1:]):
            return  # already closed (or the root): nothing to do
        now = self._now() if end is None else end
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top.end is None:
                top.end = now
            if top is target:
                return

    def _record_error(self, span: Span, exc: BaseException) -> None:
        span.events.append({
            "name": "error",
            "at": self._now(),
            "type": type(exc).__name__,
            "message": str(exc),
        })

    def event(self, name: str, **attributes) -> None:
        """Record a point event on the innermost open span."""
        self._stack[-1].events.append(
            {"name": name, "at": self._now(), **attributes}
        )

    @property
    def current(self) -> Span:
        return self._stack[-1]

    def finish(self) -> Span:
        """Close any dangling spans plus the root, and return the root."""
        now = self._now()
        while len(self._stack) > 1:
            top = self._stack.pop()
            if top.end is None:
                top.end = now
        if self.root.end is None:
            self.root.end = now
        return self.root

    # ------------------------------------------------------------------
    # Runtime hooks (Tracer protocol)
    # ------------------------------------------------------------------
    @staticmethod
    def _node_key(node: PlanNode):
        # The tracer duck-types nodes; only real plan nodes carry the
        # structural key that calibration joins estimates to actuals on.
        key = getattr(node, "structural_key", None)
        return key() if key is not None else None

    def on_degrade(self, node: PlanNode, description: str) -> None:
        # Fires from inside the operator, before its on_execute; key
        # by the node so the note can only attach to *this* operator.
        self._pending_degrade[id(node)] = description
        self.event("degrade", operator=node.label(), description=description)

    def on_execute(
        self, node: PlanNode, result, delta: IOStats
    ) -> None:
        degraded = self._pending_degrade.pop(id(node), None)
        row = OperatorProfile(
            label=node.label(),
            out_rows=result.ntuples,
            tuples=delta.tuples_processed,
            page_reads=delta.page_reads,
            page_writes=delta.page_writes,
            buffer_hits=delta.buffer_hits,
            retries=delta.retries,
            retry_wait=delta.retry_wait,
            elapsed=delta.elapsed(),
            degraded=degraded,
            node_key=self._node_key(node),
        )
        self.operators.append(row)
        now = self._now()
        span = Span(
            node.label(),
            kind="operator",
            start=now - delta.elapsed(),
            end=now,
            attributes=row.to_dict(),
        )
        self._stack[-1].children.append(span)

    def on_memo_hit(self, node: PlanNode, result) -> None:
        row = OperatorProfile(
            label=node.label(),
            out_rows=result.ntuples,
            tuples=0,
            page_reads=0,
            page_writes=0,
            elapsed=0.0,
            memoized=True,
            node_key=self._node_key(node),
        )
        self.operators.append(row)
        now = self._now()
        span = Span(
            node.label(),
            kind="operator",
            start=now,
            end=now,
            attributes=row.to_dict(),
        )
        self._stack[-1].children.append(span)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """The whole trace as one JSON-safe span tree."""
        return self.finish().to_dict()


@dataclass
class TraceContext:
    """Identity of one served request, threaded through the pipeline.

    ``stats_epoch`` is unknown until admission pins a snapshot, so the
    context is mutable: the admission path fills it in.
    """

    request_id: str
    tenant: str | None = None
    stats_epoch: int | None = None


class RequestTrace:
    """One served request's span tree: admission → queue → dispatch.

    Wraps a :class:`QueryTracer` whose root is a ``request`` span and
    exposes the serving lifecycle transitions as methods.  Timestamps
    come from the serving clock by default; during plan/execute the
    runtime swaps in an offset clock (``set_time``) so the operator
    spans recorded by the runtime hooks land on the same timeline.
    """

    def __init__(
        self,
        context: TraceContext,
        clock: Callable[[], float],
        arrival: float = 0.0,
    ):
        self.context = context
        self._clock = clock
        self._override: Callable[[], float] | None = None
        self.tracer = QueryTracer(clock=self._time, root_name="request",
                                  root_kind="request")
        self.tracer.root.start = arrival
        self.tracer.root.attributes.update(
            request_id=context.request_id, tenant=context.tenant
        )
        self.status: str | None = None
        self.reason: str | None = None
        self._queue_span: Span | None = None

    def _time(self) -> float:
        return (self._override or self._clock)()

    def set_time(self, fn: Callable[[], float]) -> None:
        """Temporarily source timestamps from ``fn`` (execution offset
        clock); undo with :meth:`reset_time`."""
        self._override = fn

    def reset_time(self) -> None:
        self._override = None

    # ------------------------------------------------------------------
    # Lifecycle transitions
    # ------------------------------------------------------------------
    def admission(
        self,
        now: float,
        admitted: bool,
        epoch: int | None = None,
        reason: str | None = None,
    ) -> None:
        """Record the admission decision; on admit, open the queue span."""
        span = self.tracer.push_span("admission", kind="admission",
                                     start=now)
        if admitted:
            self.context.stats_epoch = epoch
            span.events.append({"name": "admitted", "at": now})
            span.events.append(
                {"name": "snapshot_pin", "at": now, "epoch": epoch}
            )
        else:
            span.events.append({"name": "shed", "at": now, "reason": reason})
        self.tracer.pop_span(span, end=now)
        if admitted:
            self._queue_span = self.tracer.push_span(
                "queue", kind="queue", start=now
            )
        else:
            self.close(now, "shed", reason)

    def begin_dispatch(self, now: float, wait: float) -> Span:
        """Close the queue span and open the dispatch span."""
        if self._queue_span is not None:
            self._queue_span.attributes["queue_wait"] = wait
            self.tracer.pop_span(self._queue_span, end=now)
            self._queue_span = None
        return self.tracer.push_span("dispatch", kind="dispatch", start=now)

    def shed_now(self, now: float, reason: str) -> None:
        """The request was shed after admission (evicted, drained, or
        deadline-missed at dispatch)."""
        self.tracer.current.events.append(
            {"name": "shed", "at": now, "reason": reason}
        )
        self.close(now, "shed", reason)

    def close(
        self, now: float, status: str, reason: str | None = None
    ) -> None:
        """Finalize: close dangling spans and stamp the outcome."""
        if self.status is not None:
            return
        self.status = status
        self.reason = reason
        while len(self.tracer._stack) > 1:
            self.tracer.pop_span(end=now)
        self.tracer.root.end = now
        self._queue_span = None

    def entry(self) -> dict:
        """This request's row in the ``repro.trace.v1`` document."""
        return {
            "request_id": self.context.request_id,
            "tenant": self.context.tenant,
            "stats_epoch": self.context.stats_epoch,
            "status": self.status or "error",
            "reason": self.reason,
            "root": self.tracer.root.to_dict(),
        }


class ServeTracer:
    """Collects every request trace of a soak plus server-level events.

    Attach one to :class:`~repro.serve.runtime.ServingRuntime` and call
    :meth:`document` afterwards for the full ``repro.trace.v1`` export.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock or (lambda: 0.0)
        self._requests: list[RequestTrace] = []
        self.events: list[dict] = []

    def bind_clock(self, clock: Callable[[], float]) -> None:
        self._clock = clock

    def event(self, name: str, **attributes) -> None:
        """Record a server-level point event (reload, retirement, …)."""
        self.events.append(
            {"name": name, "at": self._clock(), **attributes}
        )

    def begin_request(
        self, request_id: str, tenant: str | None, arrival: float
    ) -> RequestTrace:
        trace = RequestTrace(
            TraceContext(request_id=request_id, tenant=tenant),
            clock=self._clock,
            arrival=arrival,
        )
        self._requests.append(trace)
        return trace

    @property
    def requests(self) -> list[RequestTrace]:
        return list(self._requests)

    def document(self, name: str | None = None, clock: str = "virtual") -> dict:
        """The strict schema-tagged ``repro.trace.v1`` document."""
        return trace_document(self._requests, self.events, name, clock)


def trace_document(
    requests: Sequence,
    events: Sequence[Mapping] = (),
    name: str | None = None,
    clock: str = "virtual",
) -> dict:
    """The ``repro.trace.v1`` document of entry dicts or
    :class:`RequestTrace` objects; ``clock`` is ``virtual`` (simulated
    cost units — deterministic) or ``wall`` (seconds — best effort)."""
    return {
        "schema": TRACE_SCHEMA,
        "name": name,
        "clock": clock,
        "requests": [
            dict(r if isinstance(r, Mapping) else r.entry())
            for r in requests
        ],
        "events": [dict(e) for e in events],
    }
