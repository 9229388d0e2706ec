"""Admission control: bounded queues, backpressure, priority shedding.

The :class:`AdmissionController` holds all mutable per-tenant serving
state — token buckets, waiting queues, running-slot counts — and makes
every admit/shed decision.  The policy, in order:

1. **draining** — a draining server admits nothing
   (``reason="draining"``);
2. **rate** — the tenant's token bucket must yield a token
   (``reason="rate"``);
3. **backpressure** — with queue room the request waits its turn;
4. **load shedding** — with a full queue, a strictly higher-priority
   arrival evicts the lowest-priority waiting victim
   (victim ``reason="evicted"``); otherwise the arrival itself is shed
   (``reason="queue_full"``).

Dispatch order is priority-first, FIFO within a priority: the runtime
asks :meth:`AdmissionController.next_runnable` for the best queued
request whose tenant still has a free concurrency slot.

Every decision lands in ``serve.*`` metrics, labeled by tenant.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import OverloadError, QueryError
from repro.obs.export import SHED_REASONS
from repro.obs.metrics import MetricsRegistry
from repro.serve.tenancy import TenantSpec, TokenBucket

__all__ = ["AdmissionController", "AdmissionDecision", "SHED_REASONS"]


@dataclass
class AdmissionDecision:
    """Outcome of one :meth:`AdmissionController.offer` call.

    ``admitted`` requests are waiting in their tenant's queue;
    rejected ones carry the typed :class:`OverloadError`.  ``evicted``
    lists previously queued requests this admission displaced — the
    caller must finalize them as shed.
    """

    admitted: bool
    error: OverloadError | None = None
    evicted: list = field(default_factory=list)


class AdmissionController:
    """Per-tenant admission state machine on an external clock.

    The controller never reads a clock itself: callers pass ``now``
    into :meth:`offer`, which keeps the deterministic driver and the
    asyncio server on the exact same decision procedure.
    """

    def __init__(
        self,
        tenants: Iterable[TenantSpec],
        metrics: MetricsRegistry | None = None,
    ):
        self.specs: dict[str, TenantSpec] = {}
        for spec in tenants:
            if spec.name in self.specs:
                raise QueryError(f"duplicate tenant {spec.name!r}")
            self.specs[spec.name] = spec
        if not self.specs:
            raise QueryError("admission control needs at least one tenant")
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._buckets = {
            name: TokenBucket(spec.rate, spec.burst)
            for name, spec in self.specs.items()
        }
        self._queues: dict[str, deque] = {
            name: deque() for name in self.specs
        }
        self._running: dict[str, int] = {name: 0 for name in self.specs}
        self.draining = False

    def spec(self, tenant: str) -> TenantSpec:
        try:
            return self.specs[tenant]
        except KeyError:
            raise QueryError(f"unknown tenant {tenant!r}") from None

    # ------------------------------------------------------------------
    # Admission
    # ------------------------------------------------------------------
    def offer(self, request, now: float) -> AdmissionDecision:
        """Admit ``request`` at time ``now``, or shed it (or a victim).

        ``request`` needs ``tenant``, ``priority``, and ``seq``
        attributes; admitted requests join their tenant's FIFO queue.
        """
        spec = self.spec(request.tenant)
        if self.draining:
            return self._shed(request, "draining", "server is draining")
        if not self._buckets[spec.name].try_take(now):
            return self._shed(
                request, "rate",
                f"tenant {spec.name!r} is over its admission rate",
            )
        queue = self._queues[spec.name]
        if len(queue) < spec.queue_depth:
            return self._admit(request, queue)
        # Full queue: a strictly higher-priority arrival evicts the
        # lowest-priority victim (youngest within that priority — it
        # has waited least).  Everything else is shed on arrival.
        victim = None
        if queue:
            victim = min(queue, key=lambda r: (r.priority, -r.seq))
        if victim is None or victim.priority >= request.priority:
            return self._shed(
                request, "queue_full",
                f"tenant {spec.name!r} queue is full "
                f"({spec.queue_depth} waiting)",
            )
        queue.remove(victim)
        self._shed(victim, "evicted", (
            f"evicted from tenant {spec.name!r} queue by "
            f"higher-priority request #{request.seq}"
        ))
        decision = self._admit(request, queue)
        decision.evicted.append(victim)
        return decision

    def _admit(self, request, queue: deque) -> AdmissionDecision:
        queue.append(request)
        self.metrics.counter("serve.admitted", tenant=request.tenant).inc()
        self._set_depth(request.tenant)
        return AdmissionDecision(admitted=True)

    def _shed(
        self, request, reason: str, message: str
    ) -> AdmissionDecision:
        # Every shed reason is part of the typed vocabulary the trace
        # schema validates against — fail loudly, not in validation.
        if reason not in SHED_REASONS:
            raise QueryError(f"untyped shed reason {reason!r}")
        self.metrics.counter(
            "serve.shed", tenant=request.tenant, reason=reason
        ).inc()
        self._set_depth(request.tenant)
        return AdmissionDecision(
            admitted=False, error=OverloadError(message, reason=reason)
        )

    def shed_at_dispatch(self, request, reason: str, message: str):
        """Shed an already-dequeued request (deadline miss, drain)."""
        return self._shed(request, reason, message).error

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def next_runnable(self):
        """Pop the best dispatchable request, or ``None``.

        Considers each tenant's queue head (FIFO within a tenant),
        skips tenants at their concurrency-slot limit, and picks by
        priority (descending), then arrival, then submission order.
        """
        best = None
        for name, queue in self._queues.items():
            if not queue or self._running[name] >= self.specs[name].slots:
                continue
            head = queue[0]
            key = (-head.priority, head.arrival, head.seq)
            if best is None or key < best[0]:
                best = (key, name)
        if best is None:
            return None
        name = best[1]
        request = self._queues[name].popleft()
        self._running[name] += 1
        self._set_depth(name)
        return request

    def complete(self, request) -> None:
        """Release the concurrency slot a dispatched request held."""
        self._running[request.tenant] -= 1

    # ------------------------------------------------------------------
    # Drain and introspection
    # ------------------------------------------------------------------
    def begin_drain(self) -> None:
        """Stop admitting; queued work is finished or shed by policy."""
        self.draining = True

    def drain_queues(self) -> list:
        """Remove and return every waiting request (drain ``shed`` policy)."""
        drained: list = []
        for name, queue in self._queues.items():
            drained.extend(queue)
            queue.clear()
            self._set_depth(name)
        drained.sort(key=lambda r: r.seq)
        return drained

    def queued(self, tenant: str | None = None) -> int:
        if tenant is not None:
            return len(self._queues[tenant])
        return sum(len(q) for q in self._queues.values())

    def running(self, tenant: str | None = None) -> int:
        if tenant is not None:
            return self._running[tenant]
        return sum(self._running.values())

    def _set_depth(self, tenant: str) -> None:
        self.metrics.gauge("serve.queue_depth", tenant=tenant).set(
            len(self._queues[tenant])
        )
