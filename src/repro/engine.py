"""The ``Database`` facade: the paper's modified server, end to end.

Ties the layers together the way the modified PostgreSQL of Section 7
does: register base functional relations, define MPF views with the
``create mpfview`` extension, and run MPF queries under a chosen
evaluation strategy —

* ``"cs"`` — unmodified aggregate optimizer (single root GroupBy);
* ``"cs+"`` — linear CS+ (Algorithm 1);
* ``"cs+nonlinear"`` — bushy CS+ with the four-candidate rule;
* ``"ve"`` / ``"ve+"`` — Variable Elimination, optionally in the
  extended space, with any Section 5.5 heuristic;
* ``"auto"`` — VE+ with the degree heuristic, falling back to linear
  plans when the Eq. 1 admissibility test says they suffice.

Every query returns a :class:`QueryReport` carrying the result, the
chosen plan, its estimated cost, and the simulated execution stats.
"""

from __future__ import annotations

from contextlib import nullcontext as _nullcontext
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

from repro.catalog.catalog import Catalog
from repro.cost.model import CostModel, SimpleCostModel
from repro.data.relation import FunctionalRelation
from repro.errors import MPFError, QueryError, RecoveryError
from repro.obs.export import explain_document, metrics_document
from repro.obs.metrics import MetricsRegistry
from repro.optimizer.base import OptimizationResult, Optimizer
from repro.optimizer.cs import CSOptimizer
from repro.optimizer.csplus import CSPlusLinear, CSPlusNonlinear
from repro.optimizer.linearity import LinearityTest, linearity_test
from repro.optimizer.ve import VariableElimination
from repro.plans.guard import QueryGuard
from repro.plans.lower import PlanDAG, lower
from repro.plans.printer import explain
from repro.plans.runtime import ExecutionContext, evaluate_dag
from repro.plans.scheduler import ScheduleReport
from repro.query.parser import (
    CreateIndexStatement,
    CreateViewStatement,
    SelectStatement,
    parse_statement,
)
from repro.query.query import HavingClause, MPFQuery
from repro.query.view import MPFView
from repro.semiring.base import Semiring
from repro.semiring.builtins import (
    BOOLEAN,
    COUNTING,
    MAX_PRODUCT,
    MAX_SUM,
    MIN_PRODUCT,
    MIN_SUM,
    SUM_PRODUCT,
)
from repro.storage.buffer import BufferPool
from repro.storage.iostats import IOStats
from repro.storage.page import PageId
from repro.workload.vecache import VECache, build_ve_cache

if TYPE_CHECKING:
    from repro.obs.calib import PlanAudit, PlanCalibration
    from repro.plans.profile import ExecutionProfile
    from repro.storage.recovery import RecoveredState

__all__ = ["Database", "QueryReport", "BatchReport", "AnalyzeReport"]

# (multiplicative op of the view, additive aggregate of the query)
_SEMIRINGS: dict[tuple[str, str], Semiring] = {
    ("*", "sum"): SUM_PRODUCT,
    ("*", "min"): MIN_PRODUCT,
    ("*", "max"): MAX_PRODUCT,
    ("*", "count"): COUNTING,
    ("+", "min"): MIN_SUM,
    ("+", "max"): MAX_SUM,
    ("and", "or"): BOOLEAN,
}


def _semiring_for(multiplicative_op: str, aggregate: str) -> Semiring:
    """The semiring a view's operation forms with an aggregate."""
    semiring = _SEMIRINGS.get((multiplicative_op, aggregate))
    if semiring is None:
        raise QueryError(
            f"aggregate {aggregate!r} does not form a semiring with the "
            f"view's {multiplicative_op!r}"
        )
    return semiring


@dataclass
class QueryReport:
    """Everything a query execution produced.

    A failed query (inside a partial-failure-safe batch) carries its
    ``error`` and a ``None`` result; ``ok`` distinguishes the cases.
    ``recovered`` marks a report reconstructed from a durable WAL
    record on resume (its result bytes are exact, but no plan was
    chosen and no execution work was done this run).
    """

    result: FunctionalRelation | None
    query: MPFQuery
    optimization: OptimizationResult | None
    exec_stats: IOStats
    semiring: Semiring
    linearity: LinearityTest | None = None
    error: MPFError | None = None
    recovered: bool = False

    @property
    def ok(self) -> bool:
        return self.error is None

    @property
    def plan_text(self) -> str:
        if self.optimization is None:
            raise QueryError("query failed before a plan was chosen")
        return explain(self.optimization.plan)

    def to_explain_dict(self) -> dict:
        """``EXPLAIN (FORMAT JSON)``-style document with executed stats."""
        if self.optimization is None:
            raise QueryError("query failed before a plan was chosen")
        return explain_document(
            self.optimization, query=self.query, execution=self.exec_stats
        )

    def summary(self) -> str:
        lines = [f"query: {self.query!r}"]
        if self.optimization is not None:
            lines.append(
                f"algorithm: {self.optimization.algorithm} "
                f"(est cost {self.optimization.cost:.4g}, "
                f"{self.optimization.plans_considered} plans, "
                f"{self.optimization.planning_seconds * 1e3:.2f} ms planning)"
            )
        lines.append(f"execution: {self.exec_stats.summary()}")
        if self.error is not None:
            lines.append(f"error: {type(self.error).__name__}: {self.error}")
        else:
            lines.append(f"rows: {self.result.ntuples}")
        if self.linearity is not None:
            lines.append(f"linearity: {self.linearity}")
        return "\n".join(lines)


@dataclass
class BatchReport:
    """What :meth:`Database.run_batch` produced.

    ``reports`` align with the submitted queries; each carries the
    *incremental* stats its evaluation added on top of earlier queries
    in the batch (shared subplans are paid for by the first query that
    needs them).  ``stats`` is the whole batch's combined clock and
    ``dag`` the shared plan DAG, whose ``shared_nodes`` counts subplan
    occurrences eliminated by cross-query CSE.
    """

    reports: list[QueryReport]
    stats: IOStats
    dag: PlanDAG
    schedule: "ScheduleReport | None" = None
    """Modeled task schedule of the batch (serial elapsed, makespan,
    speedup on the configured worker count); ``None`` only for
    historical callers that construct reports by hand."""

    @property
    def shared_subplans(self) -> int:
        return self.dag.shared_nodes

    @property
    def memo_hits(self) -> int:
        return self.stats.memo_hits

    @property
    def succeeded(self) -> list[QueryReport]:
        return [r for r in self.reports if r.ok]

    @property
    def failed(self) -> list[QueryReport]:
        return [r for r in self.reports if not r.ok]

    @property
    def errors(self) -> list[MPFError | None]:
        """Per-query errors, aligned with the submitted queries."""
        return [r.error for r in self.reports]

    def summary(self) -> str:
        text = (
            f"batch of {len(self.reports)} queries: "
            f"{self.dag.tree_nodes} plan nodes → "
            f"{self.dag.unique_nodes} unique "
            f"({self.shared_subplans} shared), "
            f"{self.stats.summary()}"
        )
        if self.schedule is not None and self.schedule.tasks:
            text += f", schedule: {self.schedule.summary()}"
        if self.failed:
            text += f", {len(self.failed)} failed"
        return text


@dataclass
class AnalyzeReport:
    """What :meth:`Database.explain_analyze` produced.

    Wraps the profiled run with the estimate→actual calibration
    (:class:`~repro.obs.calib.PlanCalibration`), which carries the
    plan-choice audit (:class:`~repro.obs.calib.PlanAudit`) when one
    was requested.
    """

    profile: "ExecutionProfile"
    query: MPFQuery
    optimization: OptimizationResult
    calibration: "PlanCalibration | None"
    stats_epoch: int

    @property
    def audit(self) -> "PlanAudit | None":
        return None if self.calibration is None else self.calibration.audit

    @property
    def result(self) -> FunctionalRelation:
        return self.profile.result

    @property
    def plan_text(self) -> str:
        """The plan tree with estimates, actuals, and Q-errors."""
        return explain(self.optimization.plan, calibration=self.calibration)

    def formatted(self) -> str:
        """The per-operator breakdown with est.rows / q-err columns."""
        return self.profile.formatted()

    def to_explain_dict(self) -> dict:
        """The ANALYZE explain document; calibrated, it carries per-node
        actuals, Q-errors and sources and the ``calibration`` block."""
        return explain_document(
            self.optimization,
            query=self.query,
            execution=self.profile.total,
            operators=self.profile.operators,
            calibration=self.calibration,
        )


@dataclass
class _ViewEntry:
    view_tables: tuple[str, ...]
    multiplicative_op: str


class Database:
    """An in-process MPF query engine over simulated storage."""

    def __init__(
        self,
        cost_model: CostModel | None = None,
        pool: BufferPool | None = None,
        metrics: MetricsRegistry | None = None,
        workers: int = 1,
        clock=None,
    ):
        if workers < 1:
            raise QueryError(f"workers must be >= 1, got {workers}")
        self.catalog = Catalog()
        self.workers = workers
        """Worker count for partition-parallel execution: shard tasks
        of one batch/query are scheduled over this many modeled
        executors (``docs/parallelism.md``).  Results and structural
        counters are worker-count independent by construction."""
        self.cost_model = cost_model or SimpleCostModel()
        self.pool = pool or BufferPool()
        # Explicit None check: an empty registry is falsy (len() == 0)
        # but still the caller's registry — `or` would drop it.
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        """The engine-wide registry every layer reports into; see
        ``docs/observability.md`` for the metric catalog."""
        if self.pool.metrics is None:
            self.pool.metrics = self.metrics
        self.clock = clock
        """Optional wall-clock callable (``() -> float`` seconds) the
        engine threads into every timing-sensitive component it
        constructs: guards built by :meth:`make_guard` and the
        optimizer's ``planning_seconds`` stopwatch.  ``None`` keeps the
        real process clocks (``time.monotonic`` / ``time.perf_counter``).
        The serving runtime and guard tests inject a controlled clock
        here so deadline behavior is reproducible without real sleeps."""
        self._views: dict[str, _ViewEntry] = {}
        self._caches: dict[str, VECache] = {}

    @classmethod
    def restore(cls, state: "RecoveredState", **settings) -> "Database":
        """Rebuild a database from a recovered checkpoint.

        ``state`` comes from
        :meth:`~repro.storage.recovery.RecoveryManager.recover`;
        ``settings`` are the constructor's keyword arguments bar
        ``metrics``, which is the recovered registry.  DDL is replayed
        in recorded file-id order against a fresh catalog, pinning
        ``_next_file_id`` before each statement so the rebuilt heap
        files and indexes land on exactly their original ids (verified
        — a mismatch raises :class:`~repro.errors.RecoveryError`, since
        plans and the WAL reference those ids).  Views, the statistics
        epoch, the pool's residency, and the restored metrics registry
        all carry over.
        """
        if state.checkpoint is None:
            raise RecoveryError(
                f"no loadable checkpoint in {state.directory!r}; rebuild "
                "base tables and resume from the WAL's unit records"
            )
        manifest = state.checkpoint.manifest
        db = cls(metrics=state.registry, **settings)
        catalog = db.catalog

        group_owners = {}  # for the checkpoint's group-index section
        ddl = sorted(
            [("table", e) for e in manifest["tables"]]
            + [("index", e) for e in manifest["indexes"]],
            key=lambda item: item[1]["file_id"],
        )
        for kind, entry in ddl:
            catalog._next_file_id = entry["file_id"]
            if kind == "table":
                name = entry["name"]
                catalog.register(state.checkpoint.relation(entry), name)
                group_owners[entry["file_id"], False] = catalog.relation(name)
                rebuilt = catalog.heapfile(name).file_id
            else:
                rebuilt = catalog.create_index(
                    entry["table"], entry["variable"]
                ).file_id
            if rebuilt != entry["file_id"]:
                raise RecoveryError(
                    f"file id drift replaying DDL: {entry!r} rebuilt as "
                    f"file {rebuilt}"
                )
        catalog._next_file_id = manifest["next_file_id"]
        # Re-declare partitionings after DDL replay (shard heap files
        # get fresh ids past the manifest's high-water mark — plans and
        # WAL records only ever reference base-table ids).
        for entry in manifest["partitions"]:
            table = entry["table"]
            catalog.partition_table(table, entry["key"], entry["shards"])
            file_id = catalog.heapfile(table).file_id
            group_owners[file_id, True] = catalog.sharded(table).relation
        catalog._epoch = manifest["stats_epoch"]

        for view in manifest["views"]:
            db.create_view(
                view["name"],
                tuple(view["tables"]),
                view["multiplicative_op"],
            )

        db.pool.warm(
            PageId(file_id, page_no)
            for file_id, page_no in manifest["pool"]["resident"]
        )
        db.pool.temp_files = manifest["pool"]["temp_files"]
        state.checkpoint.warm_group_indexes(group_owners)
        return db

    def make_guard(self, **kwargs) -> QueryGuard:
        """Build a :class:`QueryGuard` on the database's clock.

        Accepts every ``QueryGuard`` constructor argument; the guard's
        wall-clock defaults to :attr:`clock` when one was injected, so
        callers get deadline enforcement on the same (possibly virtual)
        timebase as the rest of the engine without threading ``clock``
        themselves.
        """
        if self.clock is not None:
            kwargs.setdefault("clock", self.clock)
        return QueryGuard(**kwargs)

    def metrics_snapshot(self):
        """Deterministic snapshot of the engine-wide registry."""
        return self.metrics.snapshot()

    def metrics_document(self, name: str | None = None) -> dict:
        """Schema-tagged flat metrics JSON document."""
        return metrics_document(self.metrics.snapshot(), name=name)

    # ------------------------------------------------------------------
    # DDL
    # ------------------------------------------------------------------
    def register(self, relation: FunctionalRelation, name: str | None = None) -> str:
        """Register a base functional relation."""
        return self.catalog.register(relation, name)

    def reload_table(
        self, relation: FunctionalRelation, name: str | None = None
    ) -> str:
        """Reload a base table's data (a bulk refresh / re-ANALYZE).

        Replaces the relation, its statistics, and its heap file in the
        catalog and advances :attr:`Catalog.stats_epoch`.  VE-caches of
        views over the table are dropped — :meth:`query_cached` then
        raises until :meth:`build_cache` runs again, instead of
        answering from the old data.
        """
        name = self.catalog.replace(relation, name)
        self._caches = {
            view: cache for view, cache in self._caches.items()
            if name not in self._views[view].view_tables
        }
        return name

    def create_view(
        self,
        name: str,
        tables: tuple[str, ...] | list[str],
        multiplicative_op: str = "*",
    ) -> None:
        """Define an MPF view over registered tables."""
        if name in self._views or name in self.catalog:
            raise QueryError(f"name {name!r} already in use")
        for t in tables:
            if t not in self.catalog:
                raise QueryError(f"view {name!r} references unknown table {t!r}")
        if not any(multiplicative_op == op for op, _ in _SEMIRINGS):
            raise QueryError(
                f"unsupported multiplicative op {multiplicative_op!r}"
            )
        self._views[name] = _ViewEntry(tuple(tables), multiplicative_op)

    # ------------------------------------------------------------------
    # SQL entry point
    # ------------------------------------------------------------------
    def execute(self, sql: str, strategy: str = "auto", **options):
        """Parse and run one statement.

        ``create mpfview`` returns the view name; ``select`` returns a
        :class:`QueryReport`.
        """
        statement = parse_statement(sql)
        if isinstance(statement, CreateViewStatement):
            self._check_view_statement(statement)
            self.create_view(
                statement.name,
                statement.tables,
                statement.multiplicative_op,
            )
            return statement.name
        if isinstance(statement, CreateIndexStatement):
            self.catalog.create_index(statement.table, statement.variable)
            return f"{statement.table}({statement.variable})"
        return self.run_query(
            self.bind(statement), strategy=strategy, **options
        )

    def _check_view_statement(self, statement: CreateViewStatement) -> None:
        for ref in statement.measure_refs:
            table = ref.split(".")[0]
            if table not in statement.tables:
                raise QueryError(
                    f"measure reference {ref!r} names table {table!r} not "
                    "in the from list"
                )
        for left, right in statement.join_predicates:
            lcol = left.split(".")[-1]
            rcol = right.split(".")[-1]
            if lcol != rcol:
                raise QueryError(
                    f"join predicate {left} = {right} equates different "
                    "variable names; MPF joins are natural joins on "
                    "shared variables"
                )

    # ------------------------------------------------------------------
    # The three steps every entry point composes: bind → plan → run
    # ------------------------------------------------------------------
    def bind(self, statement: SelectStatement | str | MPFQuery) -> MPFQuery:
        """Bind step: resolve a select against the view registry.

        Accepts SQL text, a parsed :class:`SelectStatement`, or an
        already bound :class:`MPFQuery` (returned as is).  Every entry
        point that takes a statement binds here, so they all raise the
        same :class:`QueryError` for a non-select statement, an unknown
        view, or an aggregate that forms no semiring with the view's
        multiplicative operation — and all carry the ``having`` clause.
        """
        if isinstance(statement, MPFQuery):
            return statement
        if isinstance(statement, str):
            statement = parse_statement(statement)
        if not isinstance(statement, SelectStatement):
            raise QueryError("expected a select statement")
        entry = self._views.get(statement.view)
        if entry is None:
            raise QueryError(f"unknown view {statement.view!r}")
        semiring = _semiring_for(entry.multiplicative_op, statement.aggregate)
        view = MPFView(statement.view, entry.view_tables, semiring)
        having = None
        if statement.having is not None:
            having = HavingClause(*statement.having)
        return MPFQuery(
            view=view,
            group_by=statement.group_by,
            selections=dict(statement.selections),
            having=having,
        )

    def make_optimizer(
        self, strategy: str, heuristic: str = "degree"
    ) -> Optimizer:
        strategy = strategy.lower()
        if strategy == "cs":
            return CSOptimizer()
        if strategy in ("cs+", "cs+linear", "csplus"):
            return CSPlusLinear()
        if strategy in ("cs+nonlinear", "nonlinear"):
            return CSPlusNonlinear()
        if strategy == "ve":
            return VariableElimination(heuristic)
        if strategy in ("ve+", "ve-ext", "auto"):
            return VariableElimination(heuristic, extended=True)
        raise QueryError(f"unknown evaluation strategy {strategy!r}")

    def _plan(
        self,
        spec,
        strategy: str,
        heuristic: str = "degree",
        catalog: Catalog | None = None,
        clock=None,
    ) -> OptimizationResult:
        """Plan step: one optimizer run over a query spec.

        The only place an optimizer is built and run.  No cache and no
        metrics — :meth:`_optimize_query` counts the optimizer's work,
        and the serving runtime caches plans per pinned snapshot epoch.
        """
        optimizer = self.make_optimizer(strategy, heuristic)
        return optimizer.optimize(
            spec,
            self.catalog if catalog is None else catalog,
            self.cost_model,
            clock=self.clock if clock is None else clock,
        )

    def _optimize_query(
        self, query: MPFQuery, strategy: str, heuristic: str = "degree"
    ) -> OptimizationResult:
        """Plan step: plan one query and count the optimizer's work."""
        optimization = self._plan(
            query.to_spec(self.catalog), strategy, heuristic
        )
        self.metrics.counter("optimizer.plans_considered").inc(
            optimization.plans_considered
        )
        return optimization

    def _run_settings(self, **overrides) -> dict:
        """Run step: the engine-wide execution settings, as the keyword
        arguments of every ``ExecutionContext`` the engine (or the
        serving runtime over it) builds.  ``overrides`` replace or
        extend them per call site: a tracer, a guard, a fresh pool, a
        batch's worker count."""
        return {
            "pool": self.pool,
            "metrics": self.metrics,
            "workers": self.workers,
            **overrides,
        }

    def _finish_report(
        self,
        query: MPFQuery,
        optimization: OptimizationResult,
        result: FunctionalRelation,
        stats: IOStats,
    ) -> QueryReport:
        result = query.finish(result).with_name(query.view.name)
        linearity = None
        if len(query.group_by) == 1:
            linearity = linearity_test(self.catalog, query.group_by[0])
        return QueryReport(
            result=result,
            query=query,
            optimization=optimization,
            exec_stats=stats,
            semiring=query.view.semiring,
            linearity=linearity,
        )

    # ------------------------------------------------------------------
    # Programmatic query execution
    # ------------------------------------------------------------------
    def run_query(
        self,
        query: MPFQuery,
        strategy: str = "auto",
        heuristic: str = "degree",
        guard: QueryGuard | None = None,
        tracer=None,
    ) -> QueryReport:
        """Optimize and execute one MPF query.

        ``guard`` bounds the execution (deadline, simulated cost
        budget, memory ceiling, cancellation, fault-retry budget); a
        violation raises the corresponding
        :class:`~repro.errors.ResourceError`.

        ``tracer``, when given (a
        :class:`~repro.obs.trace.QueryTracer`), is bound to the run's
        cost clock and records the planning event plus an ``execute``
        span wrapping the per-operator spans.
        """
        optimization = self._optimize_query(query, strategy, heuristic)
        run_stats = IOStats()
        if tracer is not None:
            tracer.bind_stats(run_stats)
            tracer.event(
                "planned",
                algorithm=optimization.algorithm,
                plans_considered=optimization.plans_considered,
            )
        context = ExecutionContext(
            self.catalog, query.view.semiring,
            **self._run_settings(tracer=tracer),
        )
        span = (
            tracer.span("execute") if tracer is not None
            else _nullcontext()
        )
        try:
            with span:
                result, stats = context.run(
                    optimization.plan, stats=run_stats, guard=guard
                )
        except MPFError:
            self.metrics.counter("queries.total", status="error").inc()
            raise
        self.metrics.counter("queries.total", status="ok").inc()
        self._publish_guard(guard, stats)
        return self._finish_report(query, optimization, result, stats)

    def _publish_guard(
        self, guard: QueryGuard | None, stats: IOStats | None = None
    ) -> None:
        """Expose the guard's last query window as gauges."""
        if guard is None:
            return
        self.metrics.gauge("guard.pages_admitted").set(guard.pages_admitted)
        self.metrics.gauge("guard.retries_used").set(guard.retries_used)
        if stats is not None:
            self.metrics.gauge("guard.budget_consumed").set(stats.elapsed())

    @staticmethod
    def batch_query_key(index: int, query: MPFQuery) -> str:
        """Durable unit key of one batch query.

        The position *and* the query's deterministic repr identify the
        unit, so a resumed batch must resubmit the same query list —
        a changed query at the same slot simply re-executes.
        """
        return f"query:{index}:{query!r}"

    def record_query_unit(
        self, wal, key: str, before, result=None, error=None
    ) -> None:
        """Append one query's (or CLI statement's) durable WAL record
        with its metric delta since ``before``; a no-op without a WAL."""
        if wal is None:
            return
        from repro.storage.journal import encode_unit

        delta = self.metrics.snapshot().diff(before).to_dict()
        wal.log_unit(
            encode_unit(
                key,
                "error" if error is not None else "ok",
                result=result,
                error=error,
                delta=delta,
            )
        )

    def replay_query_unit(self, record: dict) -> MPFError | None:
        """Skip one recorded query (or CLI statement): count the skip
        and return its recorded error, rebuilt, or ``None`` when it
        succeeded.  Its own counters were restored by recovery."""
        from repro.storage.journal import reconstruct_error

        self.metrics.counter(
            "checkpoint.steps_skipped", unit="query"
        ).inc()
        if record["status"] == "error":
            return reconstruct_error(record["error"])
        return None

    def run_batch(
        self,
        queries: Sequence[MPFQuery],
        strategy: str = "auto",
        heuristic: str = "degree",
        guard: QueryGuard | None = None,
        stop_on_error: bool = False,
        wal=None,
        resume_from: RecoveredState | None = None,
        checkpointer=None,
        checkpoint_every: int = 1,
        workers: int | None = None,
    ) -> BatchReport:
        """Optimize and execute a batch of queries with shared subplans.

        The physical counterpart of Section 6's workload sharing: all
        chosen plans are lowered into one common-subexpression-
        eliminated DAG and evaluated through a single
        :class:`ExecutionContext`, so structurally identical subplans
        across the batch — repeated scans, shared join/aggregation
        prefixes, even whole repeated queries — execute once and are
        served to later queries from the runtime memo.  All queries
        must agree on the semiring (one view, or views with the same
        operator pair).

        The batch is **partial-failure-safe**: a query that fails
        (storage fault, guard violation, planning error) poisons only
        its own DAG nodes — its report carries the ``error``, later
        queries keep running, and because the runtime memo only admits
        results of *completed* operators, a failed or cancelled
        subplan's partial work is never served to a later query.
        ``stop_on_error=True`` restores fail-fast behavior: the first
        error propagates.  ``guard`` applies per
        query — its window (deadline, memory quota, retry budget)
        restarts before each query in the batch.

        The batch is also **resumable**: with a ``wal``
        (:class:`~repro.storage.wal.WriteAheadLog`) every finished
        query — success or failure — is durably recorded with its
        result and metrics delta before the batch moves on.  Pass the
        :class:`~repro.storage.recovery.RecoveredState` of a crashed
        run as ``resume_from`` to skip every recorded query and seed
        its checkpoint's memo entries: skipped queries are not
        re-planned or re-executed, their reports are rebuilt from the
        records (``recovered=True``), and their counters were already
        restored by recovery.  ``checkpointer`` (a
        :class:`~repro.storage.checkpoint.CheckpointManager`) takes a
        database checkpoint after every ``checkpoint_every`` freshly
        executed queries; its memo section holds only the entries the
        queries yet to run would read.

        ``workers`` overrides the database's worker count for this
        batch.  Queries whose plan roots are independent (and, over
        partitioned tables, the per-shard tasks inside each plan) are
        scheduled over the modeled worker pool; the returned report's
        ``schedule`` carries the critical-path makespan and speedup.
        Results, counters, and WAL records are identical for every
        worker count (``docs/parallelism.md``).
        """
        queries = list(queries)
        if not queries:
            raise QueryError("run_batch needs at least one query")
        semiring = queries[0].view.semiring
        for query in queries[1:]:
            if query.view.semiring is not semiring:
                raise QueryError(
                    "batch mixes semirings "
                    f"({semiring.name!r} vs {query.view.semiring.name!r}); "
                    "split it into per-semiring batches"
                )

        recovered_units = (
            resume_from.queries if resume_from is not None else {}
        )
        keys = [self.batch_query_key(i, q) for i, q in enumerate(queries)]

        optimizations: list[OptimizationResult | None] = []
        plan_errors: list[MPFError | None] = []
        recovered: list[dict | None] = []
        for key, q in zip(keys, queries):
            record = recovered_units.get(key)
            recovered.append(record)
            if record is not None:
                # Recovered queries are never re-planned: their outcome
                # is already durable, so planning them would only burn
                # optimizer work (and skew nothing — plan metrics are
                # outside the recovery identity).
                optimizations.append(None)
                plan_errors.append(None)
                continue
            try:
                optimizations.append(
                    self._optimize_query(q, strategy, heuristic)
                )
                plan_errors.append(None)
            except MPFError as exc:
                if stop_on_error:
                    raise
                optimizations.append(None)
                plan_errors.append(exc)
        dag = lower([opt.plan for opt in optimizations if opt is not None])
        settings = self._run_settings(guard=guard)
        if workers is not None:
            settings["workers"] = workers
        ctx = ExecutionContext(self.catalog, semiring, **settings)
        if resume_from is not None:
            resume_from.seed_context(ctx)
        self.metrics.counter("batches.total").inc()
        self.metrics.counter("batch.shared_subplans").inc(dag.shared_nodes)

        previous_wal = self.pool.wal
        if wal is not None:
            self.pool.wal = wal
        completed = 0
        reports = []
        pending = list(dag.roots)  # roots yet to run
        try:
            for key, query, optimization, plan_error, record in zip(
                keys, queries, optimizations, plan_errors, recovered
            ):
                if record is not None:
                    reports.append(
                        QueryReport(
                            result=record["result"],
                            query=query,
                            optimization=None,
                            exec_stats=IOStats(),
                            semiring=semiring,
                            error=self.replay_query_unit(record),
                            recovered=True,
                        )
                    )
                    continue
                if optimization is None:
                    before = self.metrics.snapshot() if wal is not None else None
                    self.metrics.counter(
                        "queries.total", status="error"
                    ).inc()
                    reports.append(
                        QueryReport(
                            result=None,
                            query=query,
                            optimization=None,
                            exec_stats=IOStats(),
                            semiring=semiring,
                            error=plan_error,
                        )
                    )
                    self.record_query_unit(
                        wal, key, before, error=plan_error
                    )
                    continue
                root = pending.pop(0)
                if wal is not None:
                    wal.reach("batch.query")
                before = self.metrics.snapshot() if wal is not None else None
                snapshot = ctx.stats.snapshot()
                if guard is not None:
                    guard.restart(ctx.stats)
                try:
                    (result,) = evaluate_dag(dag, ctx, roots=[root])
                except MPFError as exc:
                    self.metrics.counter("queries.total", status="error").inc()
                    if stop_on_error:
                        raise
                    reports.append(
                        QueryReport(
                            result=None,
                            query=query,
                            optimization=optimization,
                            exec_stats=ctx.stats.since(snapshot),
                            semiring=semiring,
                            error=exc,
                        )
                    )
                    self.record_query_unit(wal, key, before, error=exc)
                    continue
                stats = ctx.stats.since(snapshot)
                self.metrics.counter("queries.total", status="ok").inc()
                report = self._finish_report(query, optimization, result, stats)
                reports.append(report)
                self.record_query_unit(wal, key, before, result=report.result)
                completed += 1
                if (
                    checkpointer is not None
                    and checkpoint_every
                    and completed % checkpoint_every == 0
                ):
                    checkpointer.checkpoint(
                        self, context=ctx, dag=dag, roots=pending
                    )
        finally:
            self.pool.wal = previous_wal
        self._publish_guard(guard, ctx.stats)
        return BatchReport(
            reports=reports, stats=ctx.stats, dag=dag,
            schedule=ctx.publish_schedule(),
        )

    def profile(
        self, sql, strategy: str = "auto",
        guard: QueryGuard | None = None, **options
    ):
        """EXPLAIN ANALYZE: plan, execute, and break down per operator.

        Returns an :class:`~repro.plans.profile.ExecutionProfile`; its
        ``formatted()`` is the human-readable table.  With a ``guard``,
        resource limits apply and any hash→sort degradations the guard
        forces are visible in the breakdown.
        """
        return self.explain_analyze(
            sql, strategy, calibrate=False, guard=guard, **options
        ).profile

    # ------------------------------------------------------------------
    # Cost-model calibration (EXPLAIN ANALYZE + estimate→actual join)
    # ------------------------------------------------------------------
    def explain_analyze(
        self,
        sql,
        strategy: str = "auto",
        calibrate: bool = True,
        audit_plans: bool = False,
        audit_max_tables: int = 6,
        guard: QueryGuard | None = None,
        **options,
    ) -> "AnalyzeReport":
        """Plan, execute, and calibrate the cost model against actuals.

        The run is :meth:`run_query` under a
        :class:`~repro.obs.trace.QueryTracer` — the binder, planner,
        guard window and metrics of :meth:`execute`.  Beyond
        :meth:`profile`, the chosen plan is annotated with the
        estimator's per-node cardinalities and joined (by structural
        plan key) with the actual per-node counts the run produced —
        yielding per-node Q-errors, misestimate attribution, and the
        ``calib.*`` metrics (see :mod:`repro.obs.calib`).

        ``audit_plans`` additionally replays the candidate plans of
        every optimizer family (CS, CS+, CS+nonlinear, VE, VE+) under
        the cost clock and reports the plan regret of the chosen plan
        as the calibration's ``audit``; the replay is quadratic-ish in
        plan count, so it only runs for calibrated queries over at most
        ``audit_max_tables`` relations.  Replays use fresh cold buffer
        pools and do not touch the engine-wide ``query.*`` metrics.
        """
        from repro.obs.calib import calibrate_plan
        from repro.obs.trace import QueryTracer
        from repro.plans.annotate import annotate
        from repro.plans.profile import ExecutionProfile

        tracer = QueryTracer()
        report = self.run_query(
            self.bind(sql), strategy=strategy, guard=guard, tracer=tracer,
            **options,
        )
        query, optimization = report.query, report.optimization
        profile = ExecutionProfile.traced(
            optimization.plan, report.result, report.exec_stats, tracer,
            lambda table: self.catalog.relation(table).ntuples,
        )
        # Optimizers keep estimates in their own search structures;
        # re-annotate so every plan node carries the estimator's
        # cardinality/cost for the calibration join.
        annotate(optimization.plan, self.catalog, self.cost_model)
        calibration = None
        if calibrate:
            calibration = calibrate_plan(
                optimization.plan,
                profile.operators,
                stats_epoch=self.catalog.stats_epoch,
            )
            calibration.publish(self.metrics)
            profile.calibration = calibration
            if audit_plans and len(query.view.tables) <= audit_max_tables:
                calibration.audit = self._audit_plan_choice(
                    query, optimization, **options
                )
                calibration.audit.publish(self.metrics)
        return AnalyzeReport(
            profile=profile,
            query=query,
            optimization=optimization,
            calibration=calibration,
            stats_epoch=self.catalog.stats_epoch,
        )

    def _audit_plan_choice(
        self,
        query: MPFQuery,
        optimization: OptimizationResult,
        heuristic: str = "degree",
    ):
        """Replay every optimizer family's plan; measure actual costs.

        Candidates are deduplicated by root structural key (two
        strategies picking the same plan replay once), and each replay
        runs on a fresh cold buffer pool so the comparison is
        apples-to-apples and independent of the engine pool's state.
        """
        from repro.obs.calib import CandidateReplay, PlanAudit

        chosen_key = optimization.plan.structural_key()
        candidates: dict[tuple, tuple[str, float, object]] = {
            chosen_key: (
                optimization.algorithm,
                float(optimization.cost),
                optimization.plan,
            )
        }
        spec = query.to_spec(self.catalog)
        for strat in ("cs", "cs+", "cs+nonlinear", "ve", "ve+"):
            alt = self._plan(spec, strat, heuristic)
            candidates.setdefault(
                alt.plan.structural_key(),
                (alt.algorithm, float(alt.cost), alt.plan),
            )
        replays = []
        for key, (algorithm, estimated, plan) in candidates.items():
            ctx = ExecutionContext(
                self.catalog,
                query.view.semiring,
                **self._run_settings(
                    pool=BufferPool(self.pool.capacity_pages), metrics=None
                ),
            )
            evaluate_dag(lower(plan), ctx)
            replays.append(
                CandidateReplay(
                    algorithm=algorithm,
                    estimated_cost=estimated,
                    actual_cost=ctx.stats.elapsed(),
                    chosen=key == chosen_key,
                )
            )
        return PlanAudit(candidates=replays)

    def explain_query(
        self, sql_or_query, strategy: str = "auto", **options
    ) -> str:
        """Plan a query without executing it; returns the plan text."""
        optimization = self._optimize_query(
            self.bind(sql_or_query), strategy, **options
        )
        return explain(optimization.plan)

    # ------------------------------------------------------------------
    # Hypothetical queries (Section 3.1's alternate measure / domain)
    # ------------------------------------------------------------------
    def run_hypothetical(
        self,
        query: MPFQuery,
        measure_updates: Mapping[str, tuple[Mapping[str, object], object]] | None = None,
        domain_updates: Mapping[str, tuple[Mapping[str, object], Mapping[str, object]]] | None = None,
        strategy: str = "auto",
        **options,
    ) -> QueryReport:
        """Evaluate a query against hypothetically patched base tables.

        ``measure_updates`` maps a base table to ``(row assignment, new
        measure)`` — the *alternate measure* form ("what if part p1 was
        a different price?").  ``domain_updates`` maps a base table to
        ``(row assignment, {variable: new value})`` — the *alternate
        domain* form ("what if c1's deal with t1 transferred to t2?").
        The real catalog is untouched; the query runs through
        :meth:`run_query` on a shadow engine — this engine's settings,
        registry and clock over a catalog of the patched relations.
        """
        from repro.algebra.hypothetical import alter_domain, alter_measure

        measure_updates = dict(measure_updates or {})
        domain_updates = dict(domain_updates or {})
        for table in (*measure_updates, *domain_updates):
            if table not in query.view.tables:
                raise QueryError(
                    f"hypothetical update on {table!r}, which is not a "
                    f"base table of view {query.view.name!r}"
                )

        # A fresh pool: the shadow catalog numbers its heap files from 1
        # again, which would alias resident pages of the real catalog.
        shadow = Database(
            cost_model=self.cost_model, clock=self.clock,
            **self._run_settings(pool=BufferPool()),
        )
        for table in query.view.tables:
            relation = self.catalog.relation(table)
            if table in measure_updates:
                assignment, new_value = measure_updates[table]
                relation = alter_measure(relation, assignment, new_value)
            if table in domain_updates:
                assignment, transfer = domain_updates[table]
                relation = alter_domain(
                    relation, assignment, transfer, query.view.semiring
                )
            shadow.register(relation, table)
        return shadow.run_query(query, strategy=strategy, **options)

    # ------------------------------------------------------------------
    # Workload cache (Section 6)
    # ------------------------------------------------------------------
    def build_cache(
        self, view_name: str, heuristic: str = "degree"
    ) -> VECache:
        """Build and remember a VE-cache for the named view."""
        entry = self._views.get(view_name)
        if entry is None:
            raise QueryError(f"unknown view {view_name!r}")
        semiring = _semiring_for(entry.multiplicative_op, "sum")
        relations = [self.catalog.relation(t) for t in entry.view_tables]
        context = ExecutionContext(
            self.catalog, semiring, **self._run_settings()
        )
        cache = build_ve_cache(
            relations, semiring, heuristic=heuristic, context=context
        )
        self._caches[view_name] = cache
        return cache

    def cache_for(self, view_name: str) -> VECache:
        try:
            return self._caches[view_name]
        except KeyError:
            raise QueryError(
                f"no cache built for view {view_name!r}; call build_cache()"
            ) from None

    def query_cached(
        self,
        view_name: str,
        variable: str,
        evidence: Mapping[str, object] | None = None,
    ) -> FunctionalRelation:
        """Answer a single-variable query from the view's VE-cache."""
        cache = self.cache_for(view_name)
        if evidence:
            cache = cache.absorb_evidence(evidence)
        return cache.answer(variable)
