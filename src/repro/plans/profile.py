"""Execution profiling: per-operator breakdown of a plan run.

``profile_execution`` is an ``EXPLAIN ANALYZE`` for the simulated
engine.  It is no longer a parallel execution path: profiling is a
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
from typing import TYPE_CHECKING, Mapping

from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.obs.trace import OperatorProfile, QueryTracer, Span
from repro.plans.lower import lower
from repro.plans.nodes import PlanNode
from repro.plans.runtime import DEFAULT_WORKMEM_PAGES, ExecutionContext
from repro.semiring.base import Semiring
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats

if TYPE_CHECKING:
    from repro.obs.calib import PlanCalibration

__all__ = [
    "OperatorProfile",
    "ExecutionProfile",
    "profile_execution",
]

@dataclass
class ExecutionProfile:
    """The full breakdown plus the result."""

    result: FunctionalRelation
    operators: list[OperatorProfile]
    total: IOStats
    trace: Span | None = None
    """Lifecycle span tree of the profiled run, when traced."""
    calibration: "PlanCalibration | None" = None
    """Estimate→actual join (:mod:`repro.obs.calib`), when calibrated:
    adds ``est.rows`` / ``q-err`` columns to :meth:`formatted`."""

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

    def _calibration_columns(self, op: OperatorProfile) -> str:
        row = (
            None
            if self.calibration is None or op.node_key is None
            else self.calibration.lookup(op.node_key)
        )
        if row is None:
            return f" {'-':>9s} {'-':>6s}"
        q = "-" if row.q_error is None else f"{row.q_error:.2f}"
        return f" {row.estimated_rows:>9,.0f} {q:>6s}"

    def formatted(self) -> str:
        calibrated = self.calibration is not None
        header = (
            f"{'operator':40s} {'rows':>9s} {'tuples':>10s} "
            f"{'reads':>7s} {'hits':>7s} {'writes':>7s} "
            f"{'retries':>7s} {'elapsed':>12s}"
        )
        if calibrated:
            header += f" {'est.rows':>9s} {'q-err':>6s}"
        lines = [header, "-" * len(header)]
        for op in self.operators:
            label = f"{op.label} [memo]" if op.memoized else op.label
            if op.degraded is not None:
                label = f"{label} [degraded]"
            line = (
                f"{label:40s} {op.out_rows:>9,} {op.tuples:>10,} "
                f"{op.page_reads:>7} {op.buffer_hits:>7} "
                f"{op.page_writes:>7} {op.retries:>7} "
                f"{op.elapsed:>12,.0f}"
            )
            if calibrated:
                line += self._calibration_columns(op)
            lines.append(line)
        lines.append("-" * len(header))
        lines.append(
            f"{'total':40s} {self.result.ntuples:>9,} "
            f"{self.total.tuples_processed:>10,} "
            f"{self.total.page_reads:>7} {self.total.buffer_hits:>7} "
            f"{self.total.page_writes:>7} {self.total.retries:>7} "
            f"{self.total.elapsed():>12,.0f}"
        )
        if calibrated:
            lines.append(
                f"plan q-error: {self.calibration.plan_q_error:.2f} "
                f"(geometric mean {self.calibration.mean_q_error:.2f})"
            )
            dominant = self.calibration.dominant
            if dominant is not None:
                lines.append(
                    f"dominant misestimate: {dominant.label} "
                    f"(q={dominant.q_error:.2f}, source={dominant.source})"
                )
        memo_hits = sum(1 for op in self.operators if op.memoized)
        if memo_hits:
            lines.append(f"memo hits: {memo_hits}")
        if self.total.retries:
            lines.append(
                f"retries: {self.total.retries} "
                f"(waited {self.total.retry_wait:,.0f} cost units)"
            )
        for op in self.operators:
            if op.degraded is not None:
                lines.append(f"degraded: {op.degraded}")
        return "\n".join(lines)


def profile_execution(
    plan: PlanNode,
    catalog: Catalog | Mapping[str, FunctionalRelation],
    semiring: Semiring,
    pool: BufferPool | None = None,
    workmem_pages: int = DEFAULT_WORKMEM_PAGES,
    guard=None,
    metrics=None,
) -> ExecutionProfile:
    """Run the plan and return the per-operator breakdown.

    With a ``guard``, resource checks apply to the profiled run and
    any hash→sort degradations it forces appear in the breakdown.
    ``metrics`` additionally publishes the run into a registry.
    """
    tracer = QueryTracer()
    ctx = ExecutionContext(
        catalog,
        semiring,
        pool=pool,
        workmem_pages=workmem_pages,
        tracer=tracer,
        metrics=metrics,
    )
    stats = IOStats()
    tracer.bind_stats(stats)
    with tracer.span("execute"):
        result, _ = ctx.run(plan, stats=stats, guard=guard)
    return ExecutionProfile.traced(
        plan, result, stats, tracer,
        lambda table: ctx.relation(table).ntuples,
    )
