"""One-query runs: ``Executor`` is :class:`ExecutionContext`.

:meth:`ExecutionContext.run <repro.plans.runtime.ExecutionContext.run>`
evaluates one plan tree with a fresh memo, the caller's stats window and
a per-run guard.  The name ``Executor`` stays bound here because
``perfbench`` times ``repro.plans.executor.Executor.run`` by name;
:func:`execute` is the one-shot form.
"""

from __future__ import annotations

from typing import Mapping

from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.plans.guard import QueryGuard
from repro.plans.nodes import PlanNode
from repro.plans.runtime import DEFAULT_WORKMEM_PAGES, ExecutionContext
from repro.semiring.base import Semiring
from repro.storage.buffer import BufferPool

__all__ = ["Executor", "execute", "DEFAULT_WORKMEM_PAGES"]

Executor = ExecutionContext


def execute(
    plan: PlanNode,
    catalog: Catalog | Mapping[str, FunctionalRelation],
    semiring: Semiring,
    pool: BufferPool | None = None,
    workmem_pages: int = DEFAULT_WORKMEM_PAGES,
    guard: QueryGuard | None = None,
):
    """Run ``plan`` once in a fresh context; returns ``(relation, stats)``."""
    context = ExecutionContext(
        catalog, semiring, pool=pool, workmem_pages=workmem_pages
    )
    return context.run(plan, guard=guard)
