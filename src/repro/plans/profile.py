"""Execution profiling: per-operator breakdown of a plan run.

An :class:`ExecutionProfile` is the ``EXPLAIN ANALYZE`` breakdown of
one run (:meth:`repro.engine.Database.explain_analyze` builds it).
Profiling is not a parallel execution path: it is a
:class:`~repro.plans.runtime.Tracer` attached to an ordinary
:class:`~repro.plans.runtime.ExecutionContext`, so the profiled run is
exactly the run the engine would do — same operators, same memo
behavior — with each operator's incremental work captured from the
stats deltas the runtime hands the tracer.

The tracer itself lives in :mod:`repro.obs.trace`:
:class:`~repro.obs.trace.QueryTracer` collects the per-operator
profile and additionally records the query's lifecycle as a span tree.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.relation import FunctionalRelation
from repro.obs.trace import OperatorProfile, QueryTracer, Span
from repro.plans.lower import lower
from repro.plans.nodes import PlanNode
from repro.storage.iostats import IOStats

__all__ = [
    "OperatorProfile",
    "ExecutionProfile",
]


@dataclass
class ExecutionProfile:
    """The full breakdown plus the result."""

    result: FunctionalRelation
    operators: list[OperatorProfile]
    total: IOStats
    trace: Span | None = None
    """Lifecycle span tree of the profiled run, when traced."""

    @classmethod
    def traced(
        cls,
        plan: PlanNode,
        result: FunctionalRelation,
        total: IOStats,
        tracer: QueryTracer,
        table_rows,
    ) -> "ExecutionProfile":
        """The profile of one run of ``plan`` that ``tracer`` watched.

        The table keeps the physical operators' labels and counts; the
        rows join to estimates by the plan tree's own keys.
        ``table_rows`` maps a base table name to its row count.
        """
        return cls(
            result=result,
            operators=lower(plan).plan_tree_rows(tracer.operators, table_rows),
            total=total,
            trace=tracer.finish(),
        )
