"""The serving runtime: deterministic driver and asyncio front end.

One decision procedure, two clocks.  :class:`ServingRuntime` owns the
whole serving pipeline — admission (:mod:`repro.serve.admission`),
epoch pinning (:mod:`repro.serve.snapshot`), the shared prepared-plan
cache keyed ``(tenant, plan shape, stats_epoch)``, deadline
propagation, and execution against the pinned snapshot:

* Under a :class:`VirtualClock` (``wall=False``), :meth:`run_workload`
  is a deterministic single-server simulation: the clock advances by
  each executed query's simulated cost, deadlines are enforced as cost
  budgets, and two identical seeded runs produce byte-identical
  results and metrics.  This is what the overload soak and the
  benchmark drive.
* Under the process clock (``wall=True``), :class:`AsyncServer` wraps
  the same runtime in an asyncio dispatcher: ``submit`` applies the
  identical admission policy at call time, a single dispatcher task
  serializes execution, and deadlines become guard wall-clock budgets.

Deadline propagation: a request's remaining budget at dispatch is its
SLO minus the time it waited in queue.  If the SLO is already blown
the request is shed (``serve.deadline_misses``) — it never starts
executing.  Otherwise the remaining budget tightens the tenant's
:class:`~repro.plans.guard.QueryGuard` template.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field

from repro.errors import MPFError, OverloadError, QueryError
from repro.obs.metrics import SECONDS_BUCKETS
from repro.obs.slo import SLOMonitor
from repro.obs.trace import RequestTrace, ServeTracer
from repro.plans.runtime import ExecutionContext
from repro.serve.admission import AdmissionController
from repro.serve.snapshot import Snapshot, SnapshotManager
from repro.serve.tenancy import TenantSpec
from repro.storage.iostats import IOStats

__all__ = [
    "VirtualClock",
    "ServeRequest",
    "RequestOutcome",
    "ServeReport",
    "ServingRuntime",
    "AsyncServer",
]


class VirtualClock:
    """A callable clock that only moves when told to.

    The deterministic driver advances it by each executed query's
    simulated cost (:meth:`IOStats.elapsed` units), so queue waits,
    token-bucket refills, and SLO arithmetic are all pure functions of
    the workload — no real time anywhere.
    """

    def __init__(self, start: float = 0.0):
        self.now = float(start)

    def __call__(self) -> float:
        return self.now

    def advance(self, delta: float) -> float:
        if not delta >= 0:
            raise ValueError(f"clock cannot run backwards ({delta})")
        self.now += delta
        return self.now


@dataclass
class ServeRequest:
    """One query submission against the serving runtime."""

    tenant: str
    query: object
    arrival: float = 0.0
    seq: int = 0
    priority: int | None = None
    """Shedding/dispatch priority; ``None`` inherits the tenant's."""


@dataclass
class RequestOutcome:
    """What happened to one submitted request."""

    request: ServeRequest
    status: str
    """``"ok"``, ``"shed"``, or ``"error"``."""
    result: object | None = None
    error: MPFError | None = None
    queue_wait: float = 0.0
    latency: float | None = None
    """Arrival-to-completion time in clock units (executed requests
    only — a shed request never ran, so it has no latency)."""
    epoch: int | None = None
    """Catalog ``stats_epoch`` the request executed against."""
    plan_cached: bool = False
    stats: IOStats | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    @property
    def shed(self) -> bool:
        return self.status == "shed"


@dataclass
class ServeReport:
    """Everything one :meth:`ServingRuntime.run_workload` produced."""

    outcomes: list[RequestOutcome] = field(default_factory=list)
    duration: float = 0.0
    """Final virtual-clock reading (total simulated serving time)."""

    @property
    def completed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.ok]

    @property
    def shed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.shed]

    @property
    def failed(self) -> list[RequestOutcome]:
        return [o for o in self.outcomes if o.status == "error"]

    def summary(self) -> str:
        return (
            f"served {len(self.outcomes)} requests: "
            f"{len(self.completed)} ok, {len(self.shed)} shed, "
            f"{len(self.failed)} failed, "
            f"duration {self.duration:.0f} clock units"
        )


class ServingRuntime:
    """Admission + snapshots + plan cache + guarded execution.

    ``wall=False`` (default) expects an advanceable clock
    (:class:`VirtualClock`) and maps SLOs to simulated cost budgets;
    ``wall=True`` reads a real clock and maps SLOs to guard
    ``deadline_seconds``.  All metrics flow into ``db.metrics``.
    """

    def __init__(
        self,
        db,
        tenants,
        clock=None,
        wall: bool = False,
        strategy: str = "auto",
        heuristic: str = "degree",
        seed: int | None = None,
        checkpointer=None,
        drain_policy: str = "finish",
        tracer: ServeTracer | None = None,
    ):
        if drain_policy not in ("finish", "shed"):
            raise QueryError(
                f"drain policy must be 'finish' or 'shed', got "
                f"{drain_policy!r}"
            )
        self.db = db
        self.wall = wall
        self.clock = clock or (time.monotonic if wall else VirtualClock())
        self.strategy = strategy
        self.heuristic = heuristic
        self.seed = seed
        self.drain_policy = drain_policy
        self.metrics = db.metrics
        self.tracer = tracer
        if tracer is not None:
            tracer.bind_clock(self.clock)
        self.controller = AdmissionController(tenants, metrics=self.metrics)
        self.snapshots = SnapshotManager(
            db, metrics=self.metrics, checkpointer=checkpointer,
            tracer=tracer,
        )
        # Per-tenant sliding-window SLO telemetry (serve.slo_* gauges).
        self.slo = SLOMonitor(
            self.controller.specs.values(), metrics=self.metrics
        )
        self._pinned: dict[int, Snapshot] = {}
        self._traces: dict[int, RequestTrace] = {}
        self._plans: dict[tuple, dict] = {}

    # ------------------------------------------------------------------
    # Admission (shared by both front ends)
    # ------------------------------------------------------------------
    def admit(self, request: ServeRequest) -> list[RequestOutcome]:
        """Offer one request; returns any outcomes finalized *now*.

        An admitted request yields no outcome yet (it waits in queue,
        pinned to the current epoch).  A shed arrival yields its own
        shed outcome; an admission that evicted a queued victim yields
        the victim's.
        """
        if request.priority is None:
            request.priority = self.controller.spec(request.tenant).priority
        now = request.arrival if not self.wall else self.clock()
        trace = None
        if self.tracer is not None:
            trace = self.tracer.begin_request(
                f"req-{request.seq:05d}", request.tenant, request.arrival
            )
            self._traces[request.seq] = trace
        decision = self.controller.offer(request, now)
        finalized: list[RequestOutcome] = []
        for victim in decision.evicted:
            snap = self._pinned.pop(victim.seq, None)
            if snap is not None:
                self.snapshots.unpin(snap)
            victim_trace = self._traces.pop(victim.seq, None)
            if victim_trace is not None:
                victim_trace.shed_now(now, "evicted")
            self.slo.record(victim.tenant, "shed")
            finalized.append(
                RequestOutcome(
                    request=victim,
                    status="shed",
                    error=OverloadError(
                        f"evicted by higher-priority request "
                        f"#{request.seq}",
                        reason="evicted",
                    ),
                    queue_wait=max(0.0, now - victim.arrival),
                )
            )
        if not decision.admitted:
            if trace is not None:
                self._traces.pop(request.seq, None)
                trace.admission(now, False, reason=decision.error.reason)
            self.slo.record(request.tenant, "shed")
            finalized.append(
                RequestOutcome(
                    request=request, status="shed", error=decision.error
                )
            )
        else:
            snap = self.snapshots.pin()
            self._pinned[request.seq] = snap
            if trace is not None:
                trace.admission(now, True, epoch=snap.epoch)
        return finalized

    def next_runnable(self) -> ServeRequest | None:
        return self.controller.next_runnable()

    @property
    def queued(self) -> int:
        return self.controller.queued()

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def dispatch(self, request: ServeRequest) -> RequestOutcome:
        """Execute one dequeued request end to end.

        Checks the propagated deadline, builds the tenant guard with
        the remaining budget, plans via the shared cache against the
        pinned snapshot, executes, and (under a virtual clock)
        advances the clock by the execution's simulated cost —
        including the partial cost of a failed run.
        """
        spec = self.controller.spec(request.tenant)
        wait = max(0.0, self.clock() - request.arrival)
        self.metrics.histogram(
            "serve.queue_wait", tenant=spec.name
        ).observe(wait)
        trace = self._traces.pop(request.seq, None)
        if trace is not None:
            trace.begin_dispatch(self.clock(), wait)
        try:
            remaining = None
            if spec.slo is not None:
                remaining = spec.slo - wait
                if remaining <= 0:
                    self.metrics.counter(
                        "serve.deadline_misses", tenant=spec.name
                    ).inc()
                    error = self.controller.shed_at_dispatch(
                        request, "deadline",
                        f"SLO of {spec.slo:g} blown in queue "
                        f"(waited {wait:g})",
                    )
                    if trace is not None:
                        trace.shed_now(self.clock(), "deadline")
                    self.slo.record(
                        request.tenant, "shed", queue_wait=wait
                    )
                    return RequestOutcome(
                        request=request, status="shed", error=error,
                        queue_wait=wait,
                    )
            outcome = self._execute(request, spec, wait, remaining, trace)
            if trace is not None:
                trace.close(self.clock(), outcome.status)
            self.slo.record(
                request.tenant, outcome.status,
                latency=outcome.latency, queue_wait=wait,
            )
            return outcome
        finally:
            snap = self._pinned.pop(request.seq, None)
            if snap is not None:
                self.snapshots.unpin(snap)
            self.controller.complete(request)

    def _execute(
        self,
        request: ServeRequest,
        spec: TenantSpec,
        wait: float,
        remaining: float | None,
        trace: RequestTrace | None = None,
    ) -> RequestOutcome:
        snap = self._pinned[request.seq]
        guard = spec.make_guard(
            clock=self.clock, remaining=remaining, wall=self.wall
        )
        stats = IOStats()
        status = "error"
        result = None
        error: MPFError | None = None
        cached = False
        qt = trace.tracer if trace is not None else None
        if trace is not None and not self.wall:
            # Execution accrues simulated cost before the serving clock
            # advances (below); source the operator spans from the
            # dispatch instant plus the run's accrued cost so they land
            # on the serving timeline.  (Under a wall clock the serving
            # clock itself is the right time source.)
            base = self.clock()
            trace.set_time(lambda: base + stats.elapsed())
        try:
            plan_span = (
                qt.span("plan", epoch=snap.epoch)
                if qt is not None else nullcontext()
            )
            with plan_span as ps:
                plan, cached = self._plan(request, snap)
                if ps is not None:
                    ps.attributes["cached"] = cached
            context = ExecutionContext(
                snap.catalog, request.query.view.semiring,
                **self.db._run_settings(tracer=qt),
            )
            execute_span = (
                qt.span("execute") if qt is not None else nullcontext()
            )
            with execute_span:
                raw, stats = context.run(plan, stats=stats, guard=guard)
        except MPFError as exc:
            error = exc
        else:
            status = "ok"
            result = request.query.finish(raw).with_name(
                request.query.view.name
            )
        finally:
            if trace is not None:
                trace.reset_time()
        if not self.wall:
            # The engine was busy for the query's simulated cost —
            # partial cost too, when the guard or a fault killed it.
            self.clock.advance(stats.elapsed())
        self.metrics.counter(
            "serve.completed", tenant=spec.name, status=status
        ).inc()
        return RequestOutcome(
            request=request, status=status, result=result, error=error,
            queue_wait=wait,
            latency=max(0.0, self.clock() - request.arrival),
            epoch=snap.epoch, plan_cached=cached,
            stats=stats,
        )

    def _plan(self, request: ServeRequest, snap: Snapshot):
        """Plan against the pinned snapshot, via the shared cache.

        The cache key is the query's full shape plus the *tenant* and
        the snapshot's *stats epoch*: tenants never share cache
        entries (their guard budgets and priorities are their own
        failure domain), and a reload retires every prior epoch's
        entries automatically because no new request pins them.
        """
        from repro.plans.serialize import plan_from_dict, plan_to_dict

        query = request.query
        spec = query.to_spec(snap.catalog)
        key = (
            request.tenant,
            spec.tables,
            spec.query_vars,
            tuple(sorted(spec.selections.items())),
            self.strategy,
            self.heuristic,
            snap.epoch,
        )
        hit = self._plans.get(key)
        if hit is not None:
            self.metrics.counter(
                "serve.plan_cache.hits", tenant=request.tenant
            ).inc()
            return plan_from_dict(hit), True
        self.metrics.counter(
            "serve.plan_cache.misses", tenant=request.tenant
        ).inc()
        optimization = self.db._plan(
            spec, self.strategy, self.heuristic, self.seed,
            catalog=snap.catalog, clock=self.clock,
        )
        self.metrics.histogram(
            "optimizer.elapsed", buckets=SECONDS_BUCKETS,
            tenant=request.tenant,
        ).observe(optimization.planning_seconds)
        self._plans[key] = plan_to_dict(optimization.plan)
        return optimization.plan, False

    def cached_plans(self) -> list[tuple]:
        """The live plan-cache keys (tests pin epoch hygiene on this)."""
        return sorted(self._plans)

    # ------------------------------------------------------------------
    # Reload and drain
    # ------------------------------------------------------------------
    def reload_table(self, relation, name: str | None = None) -> int:
        """Snapshot-isolated reload; in-flight readers are untouched."""
        return self.snapshots.reload(relation, name)

    def shed_queued(self, reason: str = "draining") -> list[RequestOutcome]:
        """Shed every waiting request (drain ``shed`` policy)."""
        outcomes = []
        now = self.clock()
        for victim in self.controller.drain_queues():
            snap = self._pinned.pop(victim.seq, None)
            if snap is not None:
                self.snapshots.unpin(snap)
            error = self.controller.shed_at_dispatch(
                victim, reason, "request shed: server is draining"
            )
            trace = self._traces.pop(victim.seq, None)
            if trace is not None:
                trace.shed_now(now, reason)
            self.slo.record(victim.tenant, "shed")
            outcomes.append(
                RequestOutcome(
                    request=victim, status="shed", error=error,
                    queue_wait=max(0.0, now - victim.arrival),
                )
            )
        return outcomes

    def flush(self) -> None:
        """Record the drain; gauges already reflect the empty queues."""
        self.metrics.counter("serve.drains").inc()

    # ------------------------------------------------------------------
    # Deterministic workload driver
    # ------------------------------------------------------------------
    def run_workload(self, requests, reloads=()) -> ServeReport:
        """Simulate serving a whole workload on the virtual clock.

        ``requests`` is an iterable of :class:`ServeRequest` (``seq``
        is assigned in submission order).  ``reloads`` is an iterable
        of ``(at, relation)`` or ``(at, relation, name)`` tuples: at
        virtual time ``at`` the table is reloaded snapshot-isolated,
        exactly as a live operator would mid-serving.

        Event order is strictly by timestamp: arrivals and reloads are
        interleaved as they would occur in real time, and execution
        advances the clock by each query's simulated cost.  After the
        last event the server drains: queued work is finished
        (``drain_policy="finish"``) or shed (``"shed"``), and metrics
        are flushed.
        """
        if self.wall:
            raise QueryError(
                "run_workload needs a virtual clock (wall=False)"
            )
        submissions = list(requests)
        for i, req in enumerate(submissions):
            req.seq = i
        events: list[tuple] = [
            # (time, kind, order, payload): arrivals (kind 0) before
            # reloads (kind 1) at the same instant.
            (req.arrival, 0, req.seq, req) for req in submissions
        ]
        for j, entry in enumerate(reloads):
            at, relation, name = (
                entry if len(entry) == 3 else (*entry, None)
            )
            events.append((float(at), 1, j, (relation, name)))
        for at, kind, order, _ in events:
            # The clock can never reach a NaN or infinite event time:
            # the loop below would wait for it forever.
            if not math.isfinite(at):
                what = "arrival of request" if kind == 0 else "reload"
                raise QueryError(f"{what} #{order} at non-finite time {at}")
        events.sort(key=lambda e: e[:3])

        outcomes: dict[int, RequestOutcome] = {}

        def finalize(batch):
            for outcome in batch:
                outcomes[outcome.request.seq] = outcome

        i = 0
        while True:
            while i < len(events) and events[i][0] <= self.clock():
                _, kind, _, payload = events[i]
                i += 1
                if kind == 0:
                    finalize(self.admit(payload))
                else:
                    self.reload_table(*payload)
            if i >= len(events) and self.drain_policy == "shed":
                break
            request = self.next_runnable()
            if request is not None:
                outcomes[request.seq] = self.dispatch(request)
                continue
            if i < len(events):
                self.clock.advance(events[i][0] - self.clock())
                continue
            break

        self.controller.begin_drain()
        finalize(self.shed_queued("draining"))
        self.flush()
        report = ServeReport(
            outcomes=[outcomes[req.seq] for req in submissions],
            duration=self.clock(),
        )
        if len(report.outcomes) != len(submissions):
            raise QueryError("request lost by the serving runtime")
        return report


class AsyncServer:
    """Asyncio front end over a wall-clock :class:`ServingRuntime`.

    A single dispatcher task serializes execution (the engine is not
    thread-safe); queries run in the default executor so the event
    loop stays responsive.  ``submit`` resolves to the request's
    :class:`RequestOutcome` — shed requests resolve immediately with
    their :class:`OverloadError` attached rather than raising, so
    callers choose their own failure handling.

    Usage::

        async with AsyncServer(db, tenants) as server:
            outcome = await server.submit("analytics", query)
    """

    def __init__(self, db, tenants, **runtime_options):
        runtime_options.setdefault("clock", time.monotonic)
        self.runtime = ServingRuntime(db, tenants, wall=True,
                                      **runtime_options)
        self._seq = 0
        self._futures: dict = {}
        self._wakeup = None
        self._dispatcher = None
        self._closed = False

    async def __aenter__(self):
        await self.start()
        return self

    async def __aexit__(self, *exc):
        await self.drain()

    async def start(self) -> None:
        import asyncio

        if self._dispatcher is not None:
            return
        self._wakeup = asyncio.Event()
        self._dispatcher = asyncio.get_running_loop().create_task(
            self._dispatch_loop()
        )

    async def submit(self, tenant: str, query, priority=None):
        """Admit and eventually execute one query; returns its outcome."""
        import asyncio

        if self._dispatcher is None:
            raise QueryError("server not started (use 'async with')")
        seq = self._seq
        self._seq += 1
        request = ServeRequest(
            tenant=tenant, query=query, arrival=self.runtime.clock(),
            seq=seq, priority=priority,
        )
        shed_now = None
        for outcome in self.runtime.admit(request):
            if outcome.request.seq == seq:
                shed_now = outcome
            else:
                self._resolve(outcome)
        if shed_now is not None:
            return shed_now
        future = asyncio.get_running_loop().create_future()
        self._futures[seq] = future
        self._wakeup.set()
        return await future

    def _resolve(self, outcome) -> None:
        future = self._futures.pop(outcome.request.seq, None)
        if future is not None and not future.done():
            future.set_result(outcome)

    async def _dispatch_loop(self):
        import asyncio

        loop = asyncio.get_running_loop()
        while True:
            request = self.runtime.next_runnable()
            if request is None:
                if self._closed and not self.runtime.queued:
                    return
                self._wakeup.clear()
                if self._closed:
                    # Re-check after clearing: drain raced a dequeue.
                    if not self.runtime.queued:
                        return
                await self._wakeup.wait()
                continue
            outcome = await loop.run_in_executor(
                None, self.runtime.dispatch, request
            )
            self._resolve(outcome)

    async def drain(self, shed: bool = False):
        """Stop admitting; finish (or shed) the queue; flush metrics."""
        drained = []
        self._closed = True
        self.runtime.controller.begin_drain()
        if shed:
            for outcome in self.runtime.shed_queued("draining"):
                self._resolve(outcome)
                drained.append(outcome)
        if self._wakeup is not None:
            self._wakeup.set()
        if self._dispatcher is not None:
            await self._dispatcher
            self._dispatcher = None
        self.runtime.flush()
        return drained
