"""Per-query wrapper over the physical-operator runtime.

:class:`Executor` owns one :class:`~repro.plans.runtime.ExecutionContext`
over a catalog (or plain name→relation mapping) and a semiring;
``run(plan)`` lowers and evaluates through :mod:`repro.plans.runtime`
with a fresh memo each time (repeat runs pay buffer-pool hits, not memo
hits).  Callers that want cross-query subplan sharing use one
:class:`ExecutionContext` directly or :meth:`repro.engine.Database.run_batch`.
"""

from __future__ import annotations

from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.plans.nodes import PlanNode
from repro.plans.guard import QueryGuard
from repro.plans.runtime import (
    DEFAULT_WORKMEM_PAGES,
    ExecutionContext,
    evaluate,
)
from repro.semiring.base import Semiring
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats

__all__ = ["Executor", "execute", "DEFAULT_WORKMEM_PAGES"]


class Executor:
    """Evaluates plan trees against a catalog (or a plain name→FR map)."""

    def __init__(
        self,
        catalog: Catalog | Mapping[str, FunctionalRelation],
        semiring: Semiring,
        pool: BufferPool | None = None,
        workmem_pages: int = DEFAULT_WORKMEM_PAGES,
        metrics=None,
        workers: int = 1,
        task_policy=None,
        worker_faults=None,
        tracer=None,
    ):
        self.context = ExecutionContext(
            catalog, semiring, pool=pool, workmem_pages=workmem_pages,
            metrics=metrics, workers=workers, task_policy=task_policy,
            worker_faults=worker_faults, tracer=tracer,
        )

    @property
    def semiring(self) -> Semiring:
        return self.context.semiring

    @property
    def pool(self) -> BufferPool:
        return self.context.pool

    @property
    def workmem_pages(self) -> int:
        return self.context.workmem_pages

    # ------------------------------------------------------------------
    def run(
        self,
        plan: PlanNode,
        stats: IOStats | None = None,
        guard: QueryGuard | None = None,
    ):
        """Execute ``plan``; returns ``(relation, stats)``.

        ``guard``, when given, governs just this run (deadline, memory
        ceiling, cancellation, retry budget); its window restarts here.
        """
        stats = stats or IOStats()
        ctx = self.context
        ctx.reset_memo()
        previous_stats, previous_guard = ctx.stats, ctx.guard
        ctx.stats = stats
        if guard is not None:
            ctx.guard = guard
        if ctx.guard is not None:
            ctx.guard.restart(stats)
        try:
            result = evaluate(plan, ctx)
        finally:
            ctx.stats = previous_stats
            ctx.guard = previous_guard
        return result, stats


def execute(
    plan: PlanNode,
    catalog: Catalog | Mapping[str, FunctionalRelation],
    semiring: Semiring,
    pool: BufferPool | None = None,
    workmem_pages: int = DEFAULT_WORKMEM_PAGES,
    guard: QueryGuard | None = None,
):
    """One-shot convenience wrapper around :class:`Executor`."""
    executor = Executor(
        catalog, semiring, pool=pool, workmem_pages=workmem_pages
    )
    return executor.run(plan, guard=guard)
