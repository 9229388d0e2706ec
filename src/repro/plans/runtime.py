"""The physical-operator runtime: one execution path for everything.

Every consumer of the algebra — ad-hoc MPF queries, batched workloads,
VE-cache construction, BP passes, junction-tree materialization,
Bayesian inference — evaluates plans through this module, so all of
them pay simulated IO through the shared buffer pool, show up in
:class:`~repro.storage.iostats.IOStats`, and benefit from memoized
shared subplans.

The pieces:

* :class:`ExecutionContext` — everything one evaluation environment
  owns: the name→relation environment (optionally catalog-backed), the
  semiring, the buffer pool, the stats clock, the work-mem budget, the
  memo table keyed by structural plan keys, and an optional tracer.
  Contexts are long-lived: a batch of queries (or a whole workload
  cache build) shares one context, which is what makes cross-query
  sharing real.

* one *body* function per node type — it runs the operator over
  whatever relations it is handed (a node's whole inputs, or one shard
  of them), charging the clock the way a disk-based engine would
  (sequential page reads through the pool for scans, hash/sort CPU for
  joins and aggregation, spill writes past ``workmem_pages``).  The
  unsharded path calls a body once on the merged inputs; the sharded
  path calls the same body once per partition — "serial" is the
  one-shard case, so a cost charge cannot differ between the two.

* :func:`evaluate` / :func:`evaluate_dag` — drive a lowered
  :class:`~repro.plans.lower.PlanDAG` in topological order.  A node
  whose structural key is already in the context memo is never
  re-executed; its cached result is reused and a memo hit is charged
  instead of IO.
"""

from __future__ import annotations

import math
from functools import partial
from typing import Mapping, Protocol, Sequence

from repro.algebra.aggregate import marginalize
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.algebra.join import product_join
from repro.algebra.select import restrict
from repro.algebra.semijoin import product_semijoin, update_semijoin
from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.errors import MemoryLimitExceeded, PlanError
from repro.plans.guard import QueryGuard
from repro.plans.lower import PlanDAG, lower
from repro.plans.nodes import (
    FilterScan,
    GroupBy,
    IndexScan,
    PlanNode,
    ProductJoin,
    Scan,
    Select,
    SemiJoin,
)
from repro.plans.scheduler import (
    CriticalPathClock,
    OrderedPool,
    ScheduleReport,
    TaskPolicy,
    TaskRuntime,
)
from repro.plans.serialize import plan_from_dict, plan_to_dict
from repro.semiring.base import Semiring
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStats
from repro.storage.page import PageGeometry
from repro.storage.partition import (
    PartitionSpec,
    concat_relations,
    partition_relation,
)

__all__ = [
    "DEFAULT_WORKMEM_PAGES",
    "ExecutionContext",
    "QueryGuard",
    "Tracer",
    "evaluate",
    "evaluate_dag",
]

# Work-memory budget for a single operator, in pages (cf. work_mem).
DEFAULT_WORKMEM_PAGES = 2048


class Tracer(Protocol):
    """Observation hook invoked by the runtime per evaluated node."""

    def on_execute(
        self, node: PlanNode, result: FunctionalRelation, delta: IOStats
    ) -> None:
        """An operator ran; ``delta`` holds its own incremental work."""

    def on_memo_hit(
        self, node: PlanNode, result: FunctionalRelation
    ) -> None:
        """A node's result was served from the context memo."""

    def on_degrade(self, node: PlanNode, description: str) -> None:
        """The guard downgraded a hash operator to its spill path.

        Optional — the runtime tolerates tracers without this hook.
        """


class ExecutionContext:
    """Shared state for one evaluation environment.

    ``catalog`` may be a :class:`Catalog` (base tables get their
    catalog heap files and indexes) or a plain name→relation mapping
    (everything is ad-hoc).  Intermediates produced by workload code
    are added with :meth:`bind`, which also invalidates memo entries
    that read the rebound name.

    ``guard`` optionally attaches a :class:`QueryGuard`: operators
    check it per node and per row batch (deadline, cost budget,
    cancellation), materialized intermediates are admitted against its
    memory ceiling, and transient storage faults draw on its retry
    budget.  Results only reach the memo after an operator completes,
    so a guard violation (or storage fault) mid-query never leaves a
    partial result to be served to a later query.

    ``metrics`` optionally attaches a
    :class:`~repro.obs.metrics.MetricsRegistry`: the runtime publishes
    every operator's incremental work into it (the ``query.*``
    counters of the metric catalog), so one registry shared across
    contexts accumulates engine-wide totals that agree with the
    summed :class:`IOStats` clocks.
    """

    def __init__(
        self,
        catalog: Catalog | Mapping[str, FunctionalRelation],
        semiring: Semiring,
        pool: BufferPool | None = None,
        workmem_pages: int = DEFAULT_WORKMEM_PAGES,
        stats: IOStats | None = None,
        tracer: Tracer | None = None,
        guard: QueryGuard | None = None,
        metrics=None,
        workers: int = 1,
        task_policy: TaskPolicy | None = None,
    ):
        if workers < 1:
            raise PlanError(f"workers must be >= 1, got {workers}")
        self.catalog = catalog if isinstance(catalog, Catalog) else None
        self.env: dict[str, FunctionalRelation] = dict(
            catalog.environment() if isinstance(catalog, Catalog) else catalog
        )
        self.semiring = semiring
        self.pool = pool or BufferPool()
        self.workmem_pages = workmem_pages
        self.stats = stats if stats is not None else IOStats()
        self.tracer = tracer
        self.guard = guard
        self.metrics = metrics
        self.workers = workers
        self.schedule = CriticalPathClock(workers)
        """Modeled task schedule accumulated over the context lifetime
        (a batch, a workload program); see :meth:`publish_schedule`."""
        self.task_policy = task_policy
        self._task_runtime = TaskRuntime(
            OrderedPool(), policy=task_policy,
            faults=self.pool.faults, count=self.count,
            event=self._task_event,
        )
        """Fault-tolerant dispatch: every scheduled task goes through
        the runtime's retry/timeout/hedging supervision, drawing
        ``task`` faults from the pool's registry (a no-op pass-through
        without one); see
        :class:`~repro.plans.scheduler.TaskRuntime`."""
        self.scheduled_run = False
        """True once any :func:`evaluate_dag` call took the scheduled
        path — the gate for the worker-dependent ``scheduler.*`` gauges
        (a pure-serial context must not emit a zero-makespan schedule
        into snapshot diffs)."""
        self._schedule_tail: int | None = None
        self.shard_results: dict[
            tuple, tuple[PartitionSpec, list[FunctionalRelation]]
        ] = {}
        """Sharded form of memoized results — ``key -> (spec, shards)``.
        The memo itself always holds the merged relation, so
        checkpointing, recovery seeding, and unsharded consumers are
        oblivious to partitioning."""
        self._node_tasks: dict[tuple, tuple[int, ...]] = {}
        self._table_writers: dict[str, tuple[int, ...]] = {}
        self.last_root_tasks: tuple[int, ...] = ()
        """Schedule tasks that produced the roots of the most recent
        :func:`evaluate_dag` call — the dependency handle
        :meth:`bind` records so a rebound table (a BP message target)
        serializes against its producer on the modeled clock."""
        self.memo: dict[tuple, FunctionalRelation] = {}
        self._memo_reads: dict[tuple, frozenset[str]] = {}
        self._memo_nodes: dict[tuple, PlanNode] = {}
        self._adhoc_files: dict[str, HeapFile] = {}

    # ------------------------------------------------------------------
    # Environment
    # ------------------------------------------------------------------
    def relation(self, table: str) -> FunctionalRelation:
        try:
            return self.env[table]
        except KeyError:
            raise PlanError(f"unknown table {table!r}") from None

    def bind(self, name: str, relation: FunctionalRelation) -> None:
        """(Re)bind a name; memo entries reading it become invalid.

        On the modeled schedule the rebound name now depends on the
        tasks that produced the most recent evaluation's roots —
        workload code computes a message and immediately binds it, so
        a later scan of the name serializes after its producer, while
        messages to *different* targets stay independent and overlap.
        """
        self.env[name] = relation
        self.invalidate(name)
        self._table_writers[name] = self.last_root_tasks

    def invalidate(self, *tables: str) -> None:
        """Drop memoized results that scanned any of ``tables``."""
        names = set(tables)
        stale = [
            key
            for key, reads in self._memo_reads.items()
            if reads & names
        ]
        for key in stale:
            del self.memo[key]
            del self._memo_reads[key]
            self._memo_nodes.pop(key, None)
            self.shard_results.pop(key, None)
            self._node_tasks.pop(key, None)
        for name in names:
            file = self._adhoc_files.pop(name, None)
            if file is not None:
                file.drop(self.pool)

    def reset_memo(self) -> None:
        self.memo.clear()
        self._memo_reads.clear()
        self._memo_nodes.clear()
        self.shard_results.clear()
        self._node_tasks.clear()

    def run(
        self,
        plan: PlanNode,
        stats: IOStats | None = None,
        guard: QueryGuard | None = None,
    ) -> tuple[FunctionalRelation, IOStats]:
        """Evaluate ``plan`` as one query; returns ``(relation, stats)``.

        The run starts from a fresh memo (repeat runs pay buffer-pool
        hits, not memo hits) and charges ``stats``, a new
        :class:`IOStats` when omitted.  ``guard``, when given, governs
        just this run (deadline, memory ceiling, cancellation, retry
        budget); whichever guard applies has its window restarted here.
        The context's own stats and guard are restored afterwards, also
        when the run raises.
        """
        if stats is None:
            stats = IOStats()
        self.reset_memo()
        previous = self.stats, self.guard
        self.stats = stats
        if guard is not None:
            self.guard = guard
        if self.guard is not None:
            self.guard.restart(stats)
        try:
            result = evaluate(plan, self)
        finally:
            self.stats, self.guard = previous
        return result, stats

    def memo_entries(self):
        """Yield ``(plan document, relation)`` for every memoized subplan.

        Only entries whose producing :class:`PlanNode` is known are
        yielded (results seeded or executed through this context) —
        this is what a checkpoint persists as completed shared work.
        Plans leave as :func:`~repro.plans.serialize.plan_to_dict`
        documents, so storage never needs the plan codec.
        """
        for key, relation in self.memo.items():
            node = self._memo_nodes.get(key)
            if node is not None:
                yield plan_to_dict(node), relation

    def seed_memo(self, plan: dict, relation: FunctionalRelation) -> None:
        """Install a completed subplan result (checkpoint restore).

        ``plan`` is a document from :meth:`memo_entries`.  The entry
        behaves exactly like one produced by execution: it is keyed by
        the node's structural key, invalidated when any base table it
        reads is rebound, and re-persisted by later checkpoints.
        """
        node = plan_from_dict(plan)
        key = node.structural_key()
        self.memo[key] = relation
        self._memo_reads[key] = frozenset(node.base_tables())
        self._memo_nodes[key] = node

    # ------------------------------------------------------------------
    # Storage accounting
    # ------------------------------------------------------------------
    def heapfile_for(
        self, table: str, relation: FunctionalRelation
    ) -> HeapFile:
        if self.catalog is not None and table in self.catalog:
            return self.catalog.heapfile(table)
        if table not in self._adhoc_files:
            self._adhoc_files[table] = self.temp_file(
                relation.ntuples, relation.arity
            )
        return self._adhoc_files[table]

    def temp_file(self, ntuples: int, arity: int) -> HeapFile:
        """A temporary heap file, its id drawn from the pool."""
        return HeapFile(self.pool.temp_file_id(), ntuples, arity)

    def maybe_spill(self, relation: FunctionalRelation) -> None:
        """Charge a materialization write when a result exceeds work-mem.

        With a guard attached, the materialized pages are also admitted
        against its hard memory ceiling — this is where a runaway
        (e.g. exponential CS) intermediate raises
        :class:`~repro.errors.MemoryLimitExceeded`.
        """
        geometry = PageGeometry(relation.arity)
        pages = geometry.pages_for(relation.ntuples)
        if self.guard is not None:
            self.guard.admit_pages(pages)
        if pages > self.workmem_pages:
            temp = self.temp_file(relation.ntuples, relation.arity)
            temp.write_out(self.pool, self.stats, guard=self.guard)

    def record_degradation(self, node: PlanNode, description: str) -> None:
        """Note a guard-driven hash→sort downgrade (guard + tracer)."""
        if self.guard is not None:
            self.guard.note_degradation(description)
        if self.tracer is not None:
            hook = getattr(self.tracer, "on_degrade", None)
            if hook is not None:
                hook(node, description)
        self.count("query.degradations")

    # ------------------------------------------------------------------
    # Metrics publication
    # ------------------------------------------------------------------
    def count(self, name: str, amount: float = 1, **labels) -> None:
        """Increment a registry counter; no-op without a registry."""
        if self.metrics is not None:
            self.metrics.counter(name, **labels).inc(amount)

    def _task_event(self, name: str, **attributes) -> None:
        """Forward a task-dispatch event (retry/hedge/timeout/fault/
        degrade) to the attached tracer's innermost open span."""
        if self.tracer is not None:
            hook = getattr(self.tracer, "event", None)
            if hook is not None:
                hook(name, **attributes)

    def publish_schedule(self) -> ScheduleReport:
        """Compute and publish the accumulated modeled schedule.

        The ``scheduler.*`` gauges describe the *latest* schedule of
        this context (a batch, a workload program).  They are modeled
        quantities — worker-count dependent by design — and therefore
        deliberately outside the structural counters the differential
        suite pins; :meth:`IOStats.elapsed` stays the serial sum.

        Gauges are emitted only when this context actually took the
        scheduled path: a pure-serial run (workers=1, no partitioned
        tables) has no schedule, and publishing a zero makespan for it
        would pollute snapshot diffs with meaningless gauges.
        """
        report = self.schedule.report()
        if self.metrics is not None and self.scheduled_run and report.tasks:
            self.metrics.gauge("scheduler.workers").set(report.workers)
            self.metrics.gauge("scheduler.tasks").set(report.tasks)
            self.metrics.gauge("scheduler.serial_elapsed").set(
                report.serial_elapsed
            )
            self.metrics.gauge("scheduler.makespan").set(report.makespan)
            self.metrics.gauge("scheduler.speedup").set(report.speedup)
        return report

    def publish_operator(self, node: PlanNode, delta: IOStats) -> None:
        """Publish one executed operator's incremental work.

        The per-counter deltas sum to exactly the context's
        :class:`IOStats` totals for work done inside operators, which
        is everything the reads/writes/hits/retries clocks record —
        the agreement the integration tests assert.
        """
        m = self.metrics
        if m is None:
            return
        m.counter(
            "query.operator_runs", operator=type(node).__name__
        ).inc()
        m.counter("query.page_reads").inc(delta.page_reads)
        m.counter("query.page_writes").inc(delta.page_writes)
        m.counter("query.buffer_hits").inc(delta.buffer_hits)
        m.counter("query.tuples").inc(delta.tuples_processed)
        if delta.retries:
            m.counter("query.retries").inc(delta.retries)
            m.counter("query.retry_wait").inc(delta.retry_wait)
        m.histogram("query.operator_elapsed").observe(delta.elapsed())


# ----------------------------------------------------------------------
# Operator bodies
# ----------------------------------------------------------------------
# One function per node type.  A body runs over the relations it is
# handed — the node's merged inputs on the unsharded path, one shard of
# them on the sharded path — and is the only place that operator's
# clock charges are written.
def _scan(ctx, node, relation, heapfile):
    """Sequential page reads of a base heap file through the pool."""
    heapfile.scan(ctx.pool, ctx.stats, guard=ctx.guard)
    return relation


def _index_scan(ctx, node):
    """Equality probe through a catalog hash index."""
    relation = ctx.relation(node.table)
    if ctx.catalog is None:
        raise PlanError("IndexScan requires a catalog-backed context")
    index = ctx.catalog.index_on(node.table, node.variable)
    if index is None:
        raise PlanError(f"no index on {node.table}({node.variable})")
    value = node.predicate[node.variable]
    code = relation.variables[node.variable].domain.code_of(value)
    rows = index.lookup(code, ctx.pool, ctx.stats, guard=ctx.guard)
    return relation.take(rows)


def _filter_scan(ctx, node, relation, heapfile):
    """Fused Select→Scan: predicate evaluated during the base scan.

    Pays the scan's page reads plus CPU for the *surviving* rows only —
    the fusion's win over Scan-then-Select is exactly the dropped
    ``charge_cpu(n_input)`` materialization pass.
    """
    heapfile.scan(ctx.pool, ctx.stats, guard=ctx.guard)
    result = restrict(relation, node.predicate)
    ctx.stats.charge_cpu(result.ntuples)
    return result


def _select(ctx, node, child):
    """One pass over the input applying equality predicates."""
    ctx.stats.charge_cpu(child.ntuples)
    return restrict(child, node.predicate)


def _product_join(ctx, node, method, left, right):
    """Hash (or sort-merge) product join with spill accounting."""
    result = product_join(left, right, ctx.semiring)
    if method == "sort_merge":
        nl, nr = max(left.ntuples, 2), max(right.ntuples, 2)
        ctx.stats.charge_cpu(int(nl * math.log2(nl) + nr * math.log2(nr)))
    ctx.stats.charge_cpu(left.ntuples + right.ntuples + result.ntuples)
    ctx.maybe_spill(result)
    return result


def _group_by(ctx, node, method, child):
    """Sort- or hash-based semiring aggregation with spill accounting."""
    n = max(child.ntuples, 2)
    if method == "sort" and not _group_index_cached(child, node.group_names):
        ctx.stats.charge_cpu(int(n * math.log2(n)))
    else:
        # Hash aggregation is one pass + group emission; so is a sort
        # whose group structure is already in the kernel cache — a
        # linear gather over the cached order, not a fresh sort.
        ctx.stats.charge_cpu(n)
    result = marginalize(child, node.group_names, ctx.semiring)
    ctx.stats.charge_cpu(result.ntuples)
    ctx.maybe_spill(result)
    return result


def _semi_join(ctx, node, target, source):
    """Product / update semijoin — the workload message primitive."""
    if node.kind == "product":
        result = product_semijoin(target, source, ctx.semiring)
    else:
        result = update_semijoin(target, source, ctx.semiring)
    ctx.stats.charge_cpu(target.ntuples + source.ntuples + result.ntuples)
    ctx.maybe_spill(result)
    return result


def _group_index_cached(child: FunctionalRelation, group_names) -> bool:
    """Cost-clock peek: would this GroupBy's group index be a cache hit?

    Uses the same key names :func:`~repro.algebra.aggregate.marginalize`
    will look up (the child's variable order), without touching the
    cache's counters or LRU order.
    """
    names = child.variables.subset(group_names).names
    if not names:
        return False  # empty grouping bypasses the cache entirely
    return DEFAULT_GROUP_INDEX_CACHE.contains(child, names)


_BODIES = {
    Scan: _scan,
    IndexScan: _index_scan,
    FilterScan: _filter_scan,
    Select: _select,
    ProductJoin: _product_join,
    GroupBy: _group_by,
    SemiJoin: _semi_join,
}

# node type -> (spill method, what must fit, how the downgrade reads)
_DEGRADES = {
    ProductJoin: (
        "sort_merge",
        "hash-join build side",
        "hash join degraded to sort-merge: build side",
    ),
    GroupBy: (
        "sort",
        "hash aggregation table",
        "hash aggregation degraded to sort: table",
    ),
}


def _physical_method(ctx, node, build):
    """A ProductJoin's / GroupBy's method after the guard's say.

    A hash join needs its build side (the left input) resident in
    memory, and a hash aggregation its table — pessimistically, every
    input group.  Under a guard, a ``build`` relation that does not fit
    in work-mem (or the guard's remaining memory allowance) *degrades*
    the node to its sort spill path rather than aborting — unless the
    guard forbids degradation, in which case this raises
    :class:`~repro.errors.MemoryLimitExceeded`.  Decided once per node,
    on the merged input, whether or not the node then runs per shard.
    """
    if node.method != "hash" or ctx.guard is None:
        return node.method
    pages = PageGeometry(build.arity).pages_for(build.ntuples)
    if ctx.guard.build_side_fits(pages, ctx.workmem_pages):
        return node.method
    spill_method, what, how = _DEGRADES[type(node)]
    if not ctx.guard.allow_degrade:
        raise MemoryLimitExceeded(
            f"{what} needs {pages} pages, over the memory allowance, "
            "and degradation is disabled"
        )
    ctx.record_degradation(
        node, f"{how} ({pages} pages) exceeds the memory allowance"
    )
    return spill_method


def _run_whole(ctx, node, inputs):
    """Run ``node``'s body once over its merged inputs — one shard."""
    body = _BODIES.get(type(node))
    if body is None:
        raise PlanError(f"unknown plan node {type(node).__name__}")
    if isinstance(node, (Scan, FilterScan)):
        relation = ctx.relation(node.table)
        heapfile = ctx.heapfile_for(node.table, relation)
        return body(ctx, node, relation, heapfile)
    if isinstance(node, (ProductJoin, GroupBy)):
        return body(
            ctx, node, _physical_method(ctx, node, inputs[0]), *inputs
        )
    return body(ctx, node, *inputs)


# ----------------------------------------------------------------------
# Sharded execution
# ----------------------------------------------------------------------
def _run_tasks(ctx, deps_list, thunks, label):
    """Run independent thunks via the task runtime as schedule tasks.

    Each thunk becomes one task on the modeled clock: its elapsed is
    the cost-clock delta it charged while running.  Dispatch goes
    through :class:`~repro.plans.scheduler.TaskRuntime` (an
    :class:`OrderedPool` under retry/timeout/hedging supervision), so
    shared-state mutation order (and every counter) is the serial
    order regardless of worker count or injected worker faults.

    **Idempotent-task contract** (publish-on-commit): a task's side
    effects — cost-clock charges, buffer-pool reads, temp-heapfile
    shuffle writes — happen only inside the one winning attempt the
    runtime accepts, and everything downstream of the task publishes
    only after ``run`` returns: memo writes, ``shard.*`` / ``query.*``
    counters, schedule registration, and ``ctx.shard_results`` updates
    all live in the callers, past this commit point.  A faulted
    attempt is discarded before it starts, so a replayed task can
    never double-apply memo writes, shuffles, or metrics.  Tasks are
    registered only after all thunks succeed — a failed operator
    contributes no schedule entries, mirroring how it contributes no
    memo entry.

    When the runtime has degraded to serial (exhausted retry budget or
    a tripped breaker), the remaining DAG is chained on the modeled
    clock — each new task depends on its predecessor, so the schedule
    honestly reports the serial drain.
    """
    results = [None] * len(thunks)

    def timed(index, thunk):
        def call():
            snapshot = ctx.stats.snapshot()
            results[index] = thunk()
            return ctx.stats.since(snapshot).elapsed()

        return call

    modeled = ctx._task_runtime.run(
        [timed(i, thunk) for i, thunk in enumerate(thunks)], label=label
    )
    task_ids = []
    for i, deps in enumerate(deps_list):
        if ctx._task_runtime.degraded:
            tail = task_ids[-1] if task_ids else ctx._schedule_tail
            if tail is not None:
                deps = _dedup((*deps, tail))
        task_ids.append(ctx.schedule.add_task(deps, modeled[i], label))
    if task_ids:
        ctx._schedule_tail = task_ids[-1]
    return results, tuple(task_ids)


def _dedup(ids) -> tuple[int, ...]:
    """Stable-order dependency dedup."""
    return tuple(dict.fromkeys(ids))


def _align_deps(child_tasks, shards, extra):
    """Per-shard dependency lists against a producer's tasks.

    A producer sharded the same way contributes shard-aligned edges
    (shard *i* waits only on the producer's shard *i*); anything else
    is a barrier — every shard waits on all producer tasks.
    """
    if len(child_tasks) == shards:
        return [_dedup((child_tasks[i], *extra)) for i in range(shards)]
    return [_dedup((*child_tasks, *extra))] * shards


def _catalog_spec(ctx, table):
    """The table's partition spec, when its shard cache is usable.

    A name rebound over the catalog relation (workload code shadowing
    a base table) invalidates the cached shard decomposition, so such
    scans fall back to the unsharded path.
    """
    if ctx.catalog is None or table not in ctx.catalog:
        return None
    spec = ctx.catalog.partition_spec(table)
    if spec is None:
        return None
    if ctx.env.get(table) is not ctx.catalog.relation(table):
        return None
    return spec


def _single_task(ctx, node, inputs, deps):
    """Execute one node unsharded as a single schedule task."""
    (result,), task_ids = _run_tasks(
        ctx, [deps], [partial(_run_whole, ctx, node, inputs)], node.label()
    )
    return result, None, task_ids


def _repartition(ctx, relation, key, shards, producer_tasks, side):
    """Explicit shuffle: split ``relation`` on ``key`` and charge it.

    Every shard is written out and read back through the pool (spill
    writes + re-reads on the cost clock, WAL page records when a log
    is attached), one schedule task per shard, each depending on all
    of the side's producer tasks — a repartition is a barrier.  Read
    back, a shard's file is dropped from the pool: temporary ids are
    never reused, so a long-lived pool would otherwise fill with spent
    shards until the LRU pushed them out.
    """
    parts = partition_relation(relation, key, shards)
    thunks = []
    for part in parts:
        def shuffle(part=part):
            temp = ctx.temp_file(part.ntuples, part.arity)
            temp.write_out(ctx.pool, ctx.stats, guard=ctx.guard)
            temp.scan(ctx.pool, ctx.stats, guard=ctx.guard)
            temp.drop(ctx.pool)
            return temp.n_pages

        thunks.append(shuffle)
    pages, task_ids = _run_tasks(
        ctx, [producer_tasks] * shards, thunks, f"shuffle[{side}]({key})"
    )
    ctx.count("shard.repartitions")
    ctx.count("shard.shuffle_pages", sum(pages))
    return parts, [(t,) for t in task_ids]


def _aligned_side(ctx, relation, sharded, node_tasks, key, shards, side):
    """A join side as ``shards`` parts partitioned on ``key``.

    Co-partitioned sides reuse their existing shard relations (and
    shard-aligned dependencies); everything else repartitions.
    """
    if (
        sharded is not None
        and sharded[0].key == key
        and sharded[0].shards == shards
    ):
        parts = sharded[1]
        if len(node_tasks) == shards:
            deps = [(node_tasks[i],) for i in range(shards)]
        else:
            deps = [_dedup(node_tasks)] * shards
        return parts, deps
    return _repartition(ctx, relation, key, shards, _dedup(node_tasks), side)


def _execute_table_sharded(ctx, node, deps):
    """Scan / FilterScan: one task per catalog shard of the table."""
    spec = _catalog_spec(ctx, node.table)
    writer = ctx._table_writers.get(node.table, ())
    deps = _dedup((*deps, *writer))
    if spec is None:
        return _single_task(ctx, node, (), deps)
    parts = ctx.catalog.shard_relations(node.table)
    files = ctx.catalog.shard_heapfiles(node.table)
    body = _BODIES[type(node)]
    results, task_ids = _run_tasks(
        ctx,
        [deps] * spec.shards,
        [partial(body, ctx, node, *shard) for shard in zip(parts, files)],
        node.label(),
    )
    ctx.count("shard.tasks", spec.shards)
    # The merged form of a scan is the catalog relation itself (and its
    # results are the shards it was handed); selection preserves key
    # codes, hence the partitioning.
    merged = (
        ctx.relation(node.table)
        if isinstance(node, Scan)
        else concat_relations(results)
    )
    return merged, (spec, results), task_ids


def _execute_select_sharded(ctx, node, key, inputs, child_keys, deps):
    (child_key,) = child_keys
    sharded = ctx.shard_results.get(child_key)
    if sharded is None:
        return _single_task(ctx, node, inputs, deps)
    spec, parts = sharded
    per_deps = _align_deps(
        ctx._node_tasks.get(child_key, ()), spec.shards, deps
    )
    results, task_ids = _run_tasks(
        ctx,
        per_deps,
        [partial(_select, ctx, node, part) for part in parts],
        node.label(),
    )
    ctx.count("shard.tasks", spec.shards)
    # Selection preserves key codes, hence the partitioning.
    return concat_relations(results), (spec, results), task_ids


def _execute_join_sharded(ctx, node, key, inputs, child_keys, deps):
    left_key, right_key = child_keys
    left, right = inputs
    left_sharded = ctx.shard_results.get(left_key)
    right_sharded = ctx.shard_results.get(right_key)
    if left_sharded is None and right_sharded is None:
        return _single_task(ctx, node, inputs, deps)
    shared = sorted(set(left.var_names) & set(right.var_names))
    if not shared:
        # Cross product: no key to align on; de-shard and run whole.
        return _single_task(ctx, node, inputs, deps)

    # Alignment key: an existing partition key among the join
    # variables wins (left preferred, deterministically); otherwise
    # both sides shuffle onto the lexicographically first shared
    # variable with the sharded side's shard count.
    if left_sharded is not None and left_sharded[0].key in shared:
        align_key, shards = left_sharded[0].key, left_sharded[0].shards
    elif right_sharded is not None and right_sharded[0].key in shared:
        align_key, shards = right_sharded[0].key, right_sharded[0].shards
    else:
        align_key = shared[0]
        shards = (left_sharded or right_sharded)[0].shards

    method = _physical_method(ctx, node, left)
    left_parts, left_deps = _aligned_side(
        ctx, left, left_sharded, ctx._node_tasks.get(left_key, ()),
        align_key, shards, "left",
    )
    right_parts, right_deps = _aligned_side(
        ctx, right, right_sharded, ctx._node_tasks.get(right_key, ()),
        align_key, shards, "right",
    )
    results, task_ids = _run_tasks(
        ctx,
        [
            _dedup((*left_deps[i], *right_deps[i], *deps))
            for i in range(shards)
        ],
        [
            partial(_product_join, ctx, node, method, lp, rp)
            for lp, rp in zip(left_parts, right_parts)
        ],
        node.label(),
    )
    ctx.count("shard.tasks", shards)
    # Matching rows share the key value, so output shard i only holds
    # rows hashing to bucket i: the join result stays partitioned.
    return (
        concat_relations(results),
        (PartitionSpec(align_key, shards), results),
        task_ids,
    )


def _execute_groupby_sharded(ctx, node, key, inputs, child_keys, deps):
    (child_key,) = child_keys
    sharded = ctx.shard_results.get(child_key)
    if sharded is None:
        return _single_task(ctx, node, inputs, deps)
    spec, parts = sharded
    (child,) = inputs
    method = _physical_method(ctx, node, child)
    per_deps = _align_deps(
        ctx._node_tasks.get(child_key, ()), spec.shards, deps
    )
    results, task_ids = _run_tasks(
        ctx,
        per_deps,
        [partial(_group_by, ctx, node, method, part) for part in parts],
        node.label(),
    )
    ctx.count("shard.tasks", spec.shards)

    if spec.key in node.group_names:
        # The partitioning key survives aggregation: groups never span
        # shards, so per-shard aggregation is already complete.
        return concat_relations(results), (spec, results), task_ids

    # Partial aggregates: groups span shards; a final semiring-plus
    # merge combines them.  The combine is a barrier over all shards.
    # It is its own step, not a second `_group_by`: always one hash
    # pass, charged at the exact stacked row count.
    def combine():
        stacked = concat_relations(results)
        ctx.stats.charge_cpu(stacked.ntuples)
        final = marginalize(stacked, node.group_names, ctx.semiring)
        ctx.stats.charge_cpu(final.ntuples)
        ctx.maybe_spill(final)
        return final

    (final,), combine_ids = _run_tasks(
        ctx, [task_ids], [combine], node.label() + "+combine"
    )
    ctx.count("shard.partial_aggregates")
    return final, None, combine_ids


def _execute_node_scheduled(ctx, dag, node, key, inputs):
    """Execute one DAG node on the scheduled path.

    Returns ``(merged_result, sharded_or_None, task_ids)``.  Work is
    decomposed over catalog shards where the operator composes with
    hash partitioning (Scan/Select/ProductJoin/GroupBy); everything
    else de-shards its inputs (the memo always has the merged form)
    and runs as a single task.
    """
    child_keys = dag.children[key]
    deps = _dedup(
        t for k in child_keys for t in ctx._node_tasks.get(k, ())
    )
    if isinstance(node, (Scan, FilterScan)):
        return _execute_table_sharded(ctx, node, deps)
    if isinstance(node, IndexScan):
        writer = ctx._table_writers.get(node.table, ())
        return _single_task(ctx, node, inputs, _dedup((*deps, *writer)))
    if isinstance(node, Select):
        return _execute_select_sharded(
            ctx, node, key, inputs, child_keys, deps
        )
    if isinstance(node, ProductJoin):
        return _execute_join_sharded(
            ctx, node, key, inputs, child_keys, deps
        )
    if isinstance(node, GroupBy):
        return _execute_groupby_sharded(
            ctx, node, key, inputs, child_keys, deps
        )
    return _single_task(ctx, node, inputs, deps)


# ----------------------------------------------------------------------
# Evaluation drivers
# ----------------------------------------------------------------------
def evaluate_dag(
    dag: PlanDAG,
    ctx: ExecutionContext,
    roots: Sequence[tuple] | None = None,
) -> list[FunctionalRelation]:
    """Evaluate (a subset of) a DAG's roots; returns results in order.

    Each unique node executes at most once; nodes already in the
    context memo (from this call or an earlier one against the same
    context) are served from it, charging a memo hit instead of work.
    Subtrees below a memoized node are skipped entirely.

    Every node runs the same operator body (see :func:`_run_whole`);
    the one decision taken here is whether its work is *registered on
    the modeled schedule* — ``workers > 1`` or a partitioned catalog,
    both read off the inputs.  Registered, operators over partitioned
    tables decompose into per-shard tasks (the body once per shard) and
    everything else is a single task (the body once), each landing on
    the context's :class:`CriticalPathClock` with its dependency edges
    after in-order dispatch — so results, counters and WAL records are
    those of a plain loop, and parallelism shows up only as the
    schedule's modeled makespan.  Unregistered, the body is called
    directly.  The branch is kept because registration is observable:
    doing it for unpartitioned ``workers=1`` runs would append a
    ``schedule:`` suffix to ``BatchReport.summary()``, emit
    ``scheduler.*`` gauges into snapshot diffs, and start drawing
    ``task`` faults where none are drawn today.
    """
    if roots is None:
        roots = dag.roots
    if ctx.guard is not None:
        ctx.guard.ensure_started(ctx.stats)

    # Which nodes actually need executing: walk down from the requested
    # roots, stopping at memo boundaries.
    needed: set[tuple] = set()
    pending = [key for key in roots if key not in ctx.memo]
    while pending:
        key = pending.pop()
        if key in needed:
            continue
        needed.add(key)
        pending.extend(
            k for k in dag.children[key]
            if k not in needed and k not in ctx.memo
        )

    hits_counted: set[tuple] = set()

    def fetch(key: tuple) -> FunctionalRelation:
        result = ctx.memo[key]
        if key not in hits_counted and key not in executed:
            hits_counted.add(key)
            ctx.stats.charge_memo_hit()
            ctx.count("query.memo_hits")
            if ctx.tracer is not None:
                ctx.tracer.on_memo_hit(dag.nodes[key], result)
        return result

    scheduled = ctx.workers > 1 or (
        ctx.catalog is not None and ctx.catalog.has_partitions
    )
    if scheduled:
        ctx.scheduled_run = True

    executed: set[tuple] = set()
    for key in dag.topological():
        if key not in needed:
            continue
        # Guard check per operator: a deadline / cancellation fires
        # within one operator batch of the limit, and — because memo
        # insertion below only happens after success — a violated
        # query never publishes a partial result to later queries.
        if ctx.guard is not None:
            ctx.guard.check(ctx.stats)
        node = dag.nodes[key]
        inputs = tuple(fetch(k) for k in dag.children[key])
        snapshot = ctx.stats.snapshot()
        kernel_before = DEFAULT_GROUP_INDEX_CACHE.counters()
        if scheduled:
            result, sharded, task_ids = _execute_node_scheduled(
                ctx, dag, node, key, inputs
            )
            if sharded is not None:
                ctx.shard_results[key] = sharded
            else:
                ctx.shard_results.pop(key, None)
            ctx._node_tasks[key] = task_ids
        else:
            result = _run_whole(ctx, node, inputs)
        _publish_kernel_counters(ctx, kernel_before)
        ctx.stats.record_operator(node.label(), result.ntuples)
        ctx.memo[key] = result
        ctx._memo_reads[key] = dag.base_tables(key)
        ctx._memo_nodes[key] = node
        executed.add(key)
        if ctx.tracer is not None or ctx.metrics is not None:
            delta = ctx.stats.since(snapshot)
            ctx.publish_operator(node, delta)
            if ctx.tracer is not None:
                ctx.tracer.on_execute(node, result, delta)
    if scheduled:
        ctx.last_root_tasks = _dedup(
            t for key in roots for t in ctx._node_tasks.get(key, ())
        )
    return [fetch(key) for key in roots]


def _publish_kernel_counters(ctx, before: tuple[int, int, int]) -> None:
    """Publish the group-index cache's counter deltas for one operator.

    Deltas only — the cache is process-wide, so absolute values would
    mix in other contexts' work — and only nonzero ones, so operators
    that never touch the kernel cache contribute no ``kernel.*`` rows
    to snapshot diffs.
    """
    hits, misses, evictions = DEFAULT_GROUP_INDEX_CACHE.counters()
    if hits > before[0]:
        ctx.count("kernel.groupindex_hits", hits - before[0])
    if misses > before[1]:
        ctx.count("kernel.groupindex_misses", misses - before[1])
    if evictions > before[2]:
        ctx.count("kernel.groupindex_evictions", evictions - before[2])


def evaluate(plan: PlanNode, ctx: ExecutionContext) -> FunctionalRelation:
    """Lower one plan tree and evaluate it through the context."""
    (result,) = evaluate_dag(lower(plan), ctx)
    return result
