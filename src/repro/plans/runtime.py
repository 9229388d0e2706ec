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

* one *charge* function per node type, written in row counts — it
  charges the clock the way a disk-based engine would (sequential page
  reads through the pool for scans, hash/sort CPU for joins and
  aggregation, spill writes past ``workmem_pages``).  The unsharded
  path runs a node's kernel on its whole inputs and charges once; the
  sharded path runs the kernel once over shard-major inputs and
  charges once per shard, from that shard's slice of the offsets — so
  a cost charge cannot differ between the two.

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
from repro.algebra.dense import dense_ops
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
)
from repro.plans.serialize import plan_from_dict, plan_to_dict
from repro.semiring.base import Semiring
from repro.storage.buffer import BufferPool
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStats
from repro.storage.page import PageGeometry
from repro.storage.partition import (
    PartitionSpec,
    Sharded,
    shard_major,
    shard_offsets,
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
        self.scheduled_run = False
        """True once any :func:`evaluate_dag` call took the scheduled
        path — the gate for the worker-dependent ``scheduler.*`` gauges
        (a pure-serial context must not emit a zero-makespan schedule
        into snapshot diffs)."""
        self.shard_results: dict[tuple, Sharded] = {}
        """Sharded form of memoized results — ``key -> Sharded``: the
        partitioning, the result in shard-major row order and its shard
        offsets.  Except for a Scan (whose memo entry is the catalog
        relation) that relation *is* the memo entry, so checkpointing,
        recovery seeding and unsharded consumers see one relation."""
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

    def memo_entries(self, dag: PlanDAG, roots: Sequence[tuple]):
        """Yield ``(plan document, relation)`` for the memoized subplans
        a checkpoint persists: those :func:`evaluate_dag` would fetch
        for the ``dag``'s unrun ``roots``.

        Only entries whose :class:`PlanNode` is known (seeded or executed
        here) qualify.  Plans leave as :func:`plan_to_dict` documents, so
        storage never needs the plan codec.
        """
        wanted = _walk(dag, self.memo, roots)[1]
        for key, relation in self.memo.items():
            node = self._memo_nodes.get(key)
            if node is not None and key in wanted:
                yield plan_to_dict(node), relation

    def seed_memo(self, plan: dict, relation: FunctionalRelation) -> None:
        """Install a completed subplan result (checkpoint restore).

        ``plan`` is a document from :meth:`memo_entries`.  The entry
        behaves exactly like one produced by execution: it is keyed by
        the node's structural key, invalidated when any base table it
        reads is rebound, and re-persisted by later checkpoints.  It
        gets the shard form execution would have given it, so the
        operators over it run the same shard-wise steps — and fold
        their sums in the same order — as in an uninterrupted run.
        """
        node = plan_from_dict(plan)
        key = node.structural_key()
        if isinstance(node, Scan):
            # As in execution, a scan's entry is the table it scans.
            relation = self.env.get(node.table, relation)
        self.memo[key] = relation
        self._memo_reads[key] = frozenset(node.base_tables())
        self._memo_nodes[key] = node
        sharded = _seeded_shards(self, node, relation)
        if sharded is not None:
            self.shard_results[key] = sharded

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

    def maybe_spill(self, ntuples: int, arity: int) -> None:
        """Charge a materialization write when a result of ``ntuples``
        rows of ``arity`` variables exceeds work-mem.

        With a guard attached, the materialized pages are also admitted
        against its hard memory ceiling — this is where a runaway
        (e.g. exponential CS) intermediate raises
        :class:`~repro.errors.MemoryLimitExceeded`.
        """
        pages = PageGeometry(arity).pages_for(ntuples)
        if self.guard is not None:
            self.guard.admit_pages(pages)
        if pages > self.workmem_pages:
            temp = self.temp_file(ntuples, arity)
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
            self.metrics.gauge("scheduler.serial_elapsed").set(
                report.serial_elapsed
            )
            self.metrics.gauge("scheduler.makespan").set(report.makespan)
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
# Operator charges and bodies
# ----------------------------------------------------------------------
# One charge function per node type, written in row counts: the only
# place that operator's clock charges are written.  The unsharded path
# charges a node once with its whole inputs' counts; the sharded path
# once per shard with that shard's, so a cost charge cannot differ
# between the two.
def _charge_scan(ctx, heapfile):
    """Sequential page reads of a heap file through the pool."""
    heapfile.scan(ctx.pool, ctx.stats, guard=ctx.guard)


def _charge_filter_scan(ctx, heapfile, n_out):
    """Fused Select→Scan: the scan's page reads plus CPU for the
    *surviving* rows only — the fusion's win over Scan-then-Select is
    exactly the dropped ``charge_cpu(n_input)`` materialization pass."""
    _charge_scan(ctx, heapfile)
    ctx.stats.charge_cpu(n_out)


def _charge_select(ctx, n_in):
    """One pass over the input applying equality predicates."""
    ctx.stats.charge_cpu(n_in)


def _charge_join(ctx, method, arity, n_left, n_right, n_out):
    """Hash (or sort-merge) product join with spill accounting."""
    if method == "sort_merge":
        nl, nr = max(n_left, 2), max(n_right, 2)
        ctx.stats.charge_cpu(int(nl * math.log2(nl) + nr * math.log2(nr)))
    ctx.stats.charge_cpu(n_left + n_right + n_out)
    ctx.maybe_spill(n_out, arity)


def _charge_group_by(ctx, sorts, arity, n_in, n_out):
    """Sort- or hash-based semiring aggregation with spill accounting.

    Hash aggregation is one pass + group emission; so is a sort whose
    group structure is already in the kernel cache — a linear gather
    over the cached order, not a fresh sort.  ``sorts`` says a sort
    runs.
    """
    n = max(n_in, 2)
    ctx.stats.charge_cpu(int(n * math.log2(n)) if sorts else n)
    ctx.stats.charge_cpu(n_out)
    ctx.maybe_spill(n_out, arity)


def _charge_shuffle(ctx, arity, ntuples):
    """One repartitioned shard written out and read back through the
    pool; read back, its file is dropped from the pool."""
    temp = ctx.temp_file(ntuples, arity)
    temp.write_out(ctx.pool, ctx.stats, guard=ctx.guard)
    temp.scan(ctx.pool, ctx.stats, guard=ctx.guard)
    temp.drop(ctx.pool)


# One body per node type: the kernel over the node's whole inputs, then
# its charge — the unsharded path.
def _scan(ctx, node, relation, heapfile):
    """Sequential page reads of a base heap file through the pool."""
    _charge_scan(ctx, heapfile)
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
    result = restrict(relation, node.predicate)
    _charge_filter_scan(ctx, heapfile, result.ntuples)
    return result


def _select(ctx, node, child):
    _charge_select(ctx, child.ntuples)
    return restrict(child, node.predicate)


def _product_join(ctx, node, method, left, right):
    result = product_join(left, right, ctx.semiring)
    _charge_join(
        ctx, method, result.arity, left.ntuples, right.ntuples,
        result.ntuples,
    )
    return result


def _group_by(ctx, node, method, child):
    sorts = _sorts(method, child, node.group_names)
    result = marginalize(child, node.group_names, ctx.semiring)
    _charge_group_by(ctx, sorts, result.arity, child.ntuples, result.ntuples)
    return result


def _semi_join(ctx, node, target, source):
    """Product / update semijoin — the workload message primitive."""
    if node.kind == "product":
        result = product_semijoin(target, source, ctx.semiring)
    else:
        result = update_semijoin(target, source, ctx.semiring)
    ctx.stats.charge_cpu(target.ntuples + source.ntuples + result.ntuples)
    ctx.maybe_spill(result.ntuples, result.arity)
    return result


def _sorts(method, child: FunctionalRelation, group_names) -> bool:
    """Whether a GroupBy over ``child`` pays a fresh sort.

    A ``sort`` GroupBy whose group index is in the kernel cache does
    not.  The peek uses the key names
    :func:`~repro.algebra.aggregate.marginalize` will look up (the
    child's variable order) without touching the cache's counters or
    LRU order, and must come before the kernel, which caches the index.
    """
    if method != "sort":
        return False
    names = child.variables.subset(group_names).names
    # An empty grouping bypasses the cache entirely.
    return not names or not DEFAULT_GROUP_INDEX_CACHE.contains(child, names)


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
    """Run ``node``'s body once over its whole inputs."""
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
_POOL = OrderedPool()


def _shard_tasks(ctx, deps_list, label, charge, *columns):
    """One schedule task per shard of an operator whose kernel already
    ran: ``charge(*row)`` charges shard ``s`` from row ``s`` of
    ``columns``, through :meth:`OrderedPool.run`.  Returns the task ids.

    Memo writes, ``shard.*`` / ``query.*`` counters and
    ``ctx.shard_results`` all publish in the callers, after every
    shard charged, so an operator that raises leaves none of them.
    """
    task_ids = _POOL.run(
        ctx.schedule, ctx.stats, deps_list, label, charge, *columns
    )
    ctx.count("shard.tasks", len(task_ids))
    return task_ids


def _timed_task(ctx, deps, label, body, *args):
    """Run ``body(*args)`` as one schedule task; ``(result, task ids)``."""
    snapshot = ctx.stats.snapshot()
    result = body(*args)
    spent = ctx.stats.elapsed_since(snapshot)
    return result, (ctx.schedule.add_task(deps, spent, label),)


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
    result, task_ids = _timed_task(
        ctx, deps, node.label(), _run_whole, ctx, node, inputs
    )
    return result, None, task_ids


def _repartition(ctx, relation, spec, producer_tasks, side):
    """Explicit shuffle: ``relation`` shard-major under ``spec``, charged.

    One stable sort by shard moves the rows.  Every shard is written
    out and read back through the pool (spill writes + re-reads on the
    cost clock, WAL page records when a log is attached), one schedule
    task per shard, each depending on all of the side's producer tasks
    — a repartition is a barrier.  Read back, a shard's file is dropped
    from the pool: temporary ids are never reused, so a long-lived pool
    would otherwise fill with spent shards until the LRU pushed them
    out.
    """
    moved = Sharded(spec, *shard_major(relation, spec.key, spec.shards))
    sizes = moved.sizes
    task_ids = _POOL.run(
        ctx.schedule, ctx.stats, [producer_tasks] * spec.shards,
        f"shuffle[{side}]({spec.key})",
        partial(_charge_shuffle, ctx, relation.arity), sizes,
    )
    ctx.count("shard.repartitions")
    geometry = PageGeometry(relation.arity)
    ctx.count("shard.shuffle_pages", sum(map(geometry.pages_for, sizes)))
    return moved, [(t,) for t in task_ids]


def _aligned_side(ctx, relation, sharded, node_tasks, spec, side):
    """A join side held shard-major under ``spec``.

    Co-partitioned sides reuse their existing shard form (and
    shard-aligned dependencies); everything else repartitions.
    """
    if sharded is not None and sharded.spec == spec:
        if len(node_tasks) == spec.shards:
            deps = [(node_tasks[i],) for i in range(spec.shards)]
        else:
            deps = [_dedup(node_tasks)] * spec.shards
        return sharded, deps
    return _repartition(ctx, relation, spec, _dedup(node_tasks), side)


def _join_spec(left, right, shared) -> PartitionSpec | None:
    """How a join whose sides are partitioned ``left`` / ``right``
    (``None``: unsharded) on ``shared`` variables runs sharded.

    An existing partition key among the join variables wins (left
    preferred, deterministically); otherwise both sides shuffle onto
    the lexicographically first shared variable with the sharded side's
    shard count.  ``None`` — run whole — when neither side is sharded
    or the join is a cross product (no key to align on).
    """
    if (left is None and right is None) or not shared:
        return None
    for spec in (left, right):
        if spec is not None and spec.key in shared:
            return spec
    return PartitionSpec(min(shared), (left or right).shards)


def _group_spec(spec, group_names) -> PartitionSpec | None:
    """A GroupBy over input partitioned ``spec`` stays partitioned when
    it keeps the key: groups never span shards.  Otherwise its per-shard
    aggregates are partial and a combine step merges them."""
    return spec if spec is not None and spec.key in group_names else None


def _execute_table_sharded(ctx, node, deps):
    """Scan / FilterScan: one task per catalog shard of the table."""
    spec = _catalog_spec(ctx, node.table)
    writer = ctx._table_writers.get(node.table, ())
    deps = _dedup((*deps, *writer))
    if spec is None:
        return _single_task(ctx, node, (), deps)
    table = ctx.catalog.sharded(node.table)
    files = ctx.catalog.shard_heapfiles(node.table)
    if isinstance(node, Scan):
        # A scan's memo entry is the catalog relation itself; the
        # catalog's shard-major copy is its sharded form.
        result, sharded = ctx.relation(node.table), table
        charge, columns = partial(_charge_scan, ctx), (files,)
    else:
        # Selection keeps rows in order and preserves key codes, hence
        # the partitioning.
        result, offsets = restrict(
            table.relation, node.predicate, shards=table.offsets
        )
        sharded = Sharded(spec, result, offsets)
        charge = partial(_charge_filter_scan, ctx)
        columns = (files, sharded.sizes)
    task_ids = _shard_tasks(
        ctx, [deps] * spec.shards, node.label(), charge, *columns
    )
    return result, sharded, task_ids


def _execute_select_sharded(ctx, node, key, inputs, child_keys, deps):
    (child_key,) = child_keys
    child = ctx.shard_results.get(child_key)
    if child is None:
        return _single_task(ctx, node, inputs, deps)
    result, offsets = restrict(
        child.relation, node.predicate, shards=child.offsets
    )
    task_ids = _shard_tasks(
        ctx,
        _align_deps(
            ctx._node_tasks.get(child_key, ()), child.spec.shards, deps
        ),
        node.label(), partial(_charge_select, ctx), child.sizes,
    )
    return result, Sharded(child.spec, result, offsets), task_ids


def _execute_join_sharded(ctx, node, key, inputs, child_keys, deps):
    left_key, right_key = child_keys
    left, right = inputs
    left_sharded = ctx.shard_results.get(left_key)
    right_sharded = ctx.shard_results.get(right_key)
    spec = _join_spec(
        left_sharded and left_sharded.spec,
        right_sharded and right_sharded.spec,
        set(left.var_names) & set(right.var_names),
    )
    if spec is None:
        return _single_task(ctx, node, inputs, deps)

    method = _physical_method(ctx, node, left)
    left_side, left_deps = _aligned_side(
        ctx, left, left_sharded, ctx._node_tasks.get(left_key, ()),
        spec, "left",
    )
    right_side, right_deps = _aligned_side(
        ctx, right, right_sharded, ctx._node_tasks.get(right_key, ()),
        spec, "right",
    )
    result, offsets = product_join(
        left_side.relation, right_side.relation, ctx.semiring,
        shards=(left_side.offsets, right_side.offsets),
    )
    # Matching rows share the key value, so output shard i only holds
    # rows hashing to bucket i: the join result stays partitioned.
    sharded = Sharded(spec, result, offsets)
    task_ids = _shard_tasks(
        ctx,
        [
            _dedup((*left_deps[i], *right_deps[i], *deps))
            for i in range(spec.shards)
        ],
        node.label(), partial(_charge_join, ctx, method, result.arity),
        left_side.sizes, right_side.sizes, sharded.sizes,
    )
    return result, sharded, task_ids


def _execute_groupby_sharded(ctx, node, key, inputs, child_keys, deps):
    (child_key,) = child_keys
    child = ctx.shard_results.get(child_key)
    if child is None:
        return _single_task(ctx, node, inputs, deps)
    method = _physical_method(ctx, node, inputs[0])
    sorts = _sorts(method, child.relation, node.group_names)
    result, offsets = marginalize(
        child.relation, node.group_names, ctx.semiring,
        shards=child.offsets,
    )
    sharded = Sharded(child.spec, result, offsets)
    task_ids = _shard_tasks(
        ctx,
        _align_deps(
            ctx._node_tasks.get(child_key, ()), child.spec.shards, deps
        ),
        node.label(), partial(_charge_group_by, ctx, sorts, result.arity),
        child.sizes, sharded.sizes,
    )
    if _group_spec(child.spec, node.group_names) is not None:
        return result, sharded, task_ids

    # Partial aggregates, shard after shard: a final semiring-plus
    # merge folds each group's partials in shard order.  The combine is
    # a barrier over all shards.  It is its own step, not a second
    # `_group_by`: always one hash pass, charged at the partial count.
    final, combine_ids = _timed_task(
        ctx, task_ids, node.label() + "+combine", _combine, ctx, node, result
    )
    ctx.count("shard.partial_aggregates")
    return final, None, combine_ids


def _combine(ctx, node, partials):
    """Merge a GroupBy's per-shard partial aggregates: one hash pass,
    charged at the partial count."""
    ctx.stats.charge_cpu(partials.ntuples)
    final = marginalize(partials, node.group_names, ctx.semiring)
    ctx.stats.charge_cpu(final.ntuples)
    ctx.maybe_spill(final.ntuples, final.arity)
    return final


def _seeded_shards(ctx, node, relation) -> Sharded | None:
    """The shard form execution gives ``node``'s result, for a result
    installed from a checkpoint: the partitioning follows from the plan
    and the catalog's partition specs, the offsets from the key column,
    since the rows are shard-major."""
    spec, _ = _plan_layout(ctx, node)
    if spec is None:
        return None
    if isinstance(node, Scan):
        return ctx.catalog.sharded(node.table)
    offsets = shard_offsets(relation, spec.key, spec.shards)
    return None if offsets is None else Sharded(spec, relation, offsets)


def _plan_layout(ctx, node) -> tuple[PartitionSpec | None, set[str]]:
    """``(spec, variables)`` of ``node``'s result on the scheduled path:
    how it is partitioned (``None``: unsharded), by the rules the
    sharded operators apply to their inputs."""
    if isinstance(node, (Scan, FilterScan, IndexScan)):
        variables = set(ctx.relation(node.table).var_names)
        if isinstance(node, IndexScan):
            return None, variables
        return _catalog_spec(ctx, node.table), variables
    if isinstance(node, Select):
        return _plan_layout(ctx, node.child)
    if isinstance(node, ProductJoin):
        (left, lv), (right, rv) = (
            _plan_layout(ctx, child) for child in node.children()
        )
        return _join_spec(left, right, lv & rv), lv | rv
    if isinstance(node, GroupBy):
        spec, _ = _plan_layout(ctx, node.child)
        return _group_spec(spec, node.group_names), set(node.group_names)
    # A semijoin keeps its target's variables and runs whole.
    return None, _plan_layout(ctx, node.children()[0])[1]


def _execute_node_scheduled(ctx, dag, node, key, inputs):
    """Execute one DAG node on the scheduled path.

    Returns ``(result, sharded_or_None, task_ids)``.  Where the
    operator composes with hash partitioning
    (Scan/Select/ProductJoin/GroupBy) its kernel runs once over the
    shard-major inputs and its work is accounted in one task per
    shard; everything else reads the memo's relations (one per node,
    whatever its partitioning) and runs as a single task.
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
def _walk(dag: PlanDAG, memo, roots) -> tuple[set[tuple], set[tuple]]:
    """Walk down from ``roots`` to the memo: ``(needed, boundary)`` are
    the nodes to execute and the memo entries evaluation fetches."""
    needed: set[tuple] = set()
    boundary: set[tuple] = set()
    pending = list(roots)
    while pending:
        key = pending.pop()
        if key in memo:
            boundary.add(key)
        elif key not in needed:
            needed.add(key)
            pending.extend(dag.children[key])
    return needed, boundary


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

    Every node charges through the same charge function; the one
    decision taken here is whether its work is *registered on the
    modeled schedule* — ``workers > 1`` or a partitioned catalog, both
    read off the inputs.  Registered, an operator over partitioned
    tables runs its kernel once and then charges each shard in turn,
    one task per shard through :class:`OrderedPool`; everything else
    runs its body once (:func:`_run_whole`) as a single task.  Each
    task lands on the context's :class:`CriticalPathClock` with its
    dependency edges, so results, counters and WAL records are those
    of a plain loop, and parallelism shows up only as the schedule's
    modeled makespan.  Unregistered, the body is called directly.  The
    branch is kept because registration is observable: doing it for
    unpartitioned ``workers=1`` runs would append a ``schedule:``
    suffix to ``BatchReport.summary()`` and emit ``scheduler.*`` gauges
    into snapshot diffs.
    """
    if roots is None:
        roots = dag.roots
    if ctx.guard is not None:
        ctx.guard.ensure_started(ctx.stats)
    needed, _ = _walk(dag, ctx.memo, roots)

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
        kernel_before = _kernel_counters()
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


_KERNEL_COUNTERS = (
    "kernel.groupindex_hits", "kernel.groupindex_misses", "kernel.dense_ops",
)


def _kernel_counters() -> tuple[int, int, int]:
    """Process-wide ``(group-index hits, misses, dense kernel runs)``."""
    hits, misses, _ = DEFAULT_GROUP_INDEX_CACHE.counters()
    return hits, misses, dense_ops()


def _publish_kernel_counters(ctx, before: tuple[int, int, int]) -> None:
    """Publish the kernel counters' deltas for one operator.

    Deltas only — the cache and the dense-kernel count are
    process-wide, so absolute values would mix in other contexts' work
    — and only nonzero ones, so operators that never touch a kernel
    counter contribute no ``kernel.*`` rows to snapshot diffs.
    """
    after = _kernel_counters()
    for name, old, new in zip(_KERNEL_COUNTERS, before, after):
        if new > old:
            ctx.count(name, new - old)


def evaluate(plan: PlanNode, ctx: ExecutionContext) -> FunctionalRelation:
    """Lower one plan tree and evaluate it through the context."""
    (result,) = evaluate_dag(lower(plan), ctx)
    return result
