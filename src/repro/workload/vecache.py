"""VE-cache: materialized views for MPF workloads (Algorithm 3, §6).

Given an MPF view, VE-cache builds a set ``S`` of materialized tables
satisfying the workload-correctness invariant (Definition 5): any
single-variable basic or restricted-answer MPF query can be answered
from a cached table containing that variable, with the same result as
evaluating against the full view.

The construction follows Algorithm 3 literally:

1. derive a *no-query-variable* Variable Elimination order (line 1);
2. execute the VE plan at the data level, materializing every table
   that precedes a GroupBy node — the pre-aggregation join of
   ``rels(v, S)`` for each eliminated variable ``v`` (line 2).  These
   tables are the elimination cliques of triangulating the variable
   graph with the VE order (Theorem 10.1), and the message edges
   ("GroupBy(t_i) was used to create t_j") form a junction forest
   over them (Theorem 10.2);
3. run the backward pass (lines 3–7): in reverse creation order, every
   cached table absorbs, via the update semijoin, the table its
   GroupBy message fed — a BP distribute pass (Theorem 10.3), listed
   as :class:`~repro.workload.bp.BPStep` messages.  The
   forward/collect pass already happened implicitly while executing
   the VE plan.

After calibration each cached table equals the view marginalized to
its scope, which is the invariant (Theorem 4).  The cache also
supports the *constrained-domain* protocol of Section 6 (Theorem 5):
apply a selection to one cached table containing the constrained
variable, then propagate reductions along the forest to every other
table (:meth:`VECache.absorb_evidence`) — BP's
:func:`~repro.workload.bp.distribute` program rooted at the constrained
table, as is the alternate-measure patch
(:meth:`VECache.with_alternate_measure`).  Every message of all three
is sent by :func:`~repro.workload.bp.run_program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import networkx as nx

from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.errors import MPFError, WorkloadError
from repro.optimizer.base import QuerySpec
from repro.optimizer.ve import VariableElimination
from repro.plans.nodes import GroupBy, PlanNode, Scan, Select
from repro.plans.runtime import ExecutionContext, evaluate
from repro.semiring.base import Semiring
from repro.storage.page import PageGeometry
from repro.workload.bp import (
    BPStep,
    distribute,
    join_chain,
    named_relations,
    run_program,
)
from repro.workload.graphs import variable_graph
from repro.workload.triangulate import triangulate

__all__ = ["VECache", "build_ve_cache"]


def _smallest_table_with(
    tables: Mapping[str, FunctionalRelation], var_name: str
) -> str:
    """Name of the smallest of ``tables`` containing the variable."""
    candidates = [
        name for name, rel in tables.items() if var_name in rel.variables
    ]
    if not candidates:
        raise WorkloadError(f"no cached table contains {var_name!r}")
    return min(candidates, key=lambda n: (tables[n].ntuples, n))


@dataclass
class VECache:
    """A calibrated cache of materialized functional relations.

    ``tables`` hold every cached (pre-GroupBy) table after the backward
    pass; ``forest`` connects each table to the one its GroupBy message
    fed (the junction forest of Theorem 10).
    """

    tables: dict[str, FunctionalRelation]
    forest: nx.Graph
    semiring: Semiring
    elimination_order: tuple[str, ...]
    eliminated_by: dict[str, str] = field(default_factory=dict)
    """Cached-table name → the variable whose elimination created it."""
    base_step: dict[str, str] = field(default_factory=dict)
    """Base-relation name → the cached table that absorbed it."""
    base_relations: dict[str, FunctionalRelation] = field(default_factory=dict)
    """Current (possibly hypothetically updated) base relations."""
    context: ExecutionContext | None = None
    """Runtime context the cache executes through; its ``stats`` hold
    the simulated IO of building and serving this cache."""

    # ------------------------------------------------------------------
    # Runtime plumbing
    # ------------------------------------------------------------------
    def runtime(self) -> ExecutionContext:
        """The cache's execution context, with all tables bound."""
        if self.context is None:
            self.context = ExecutionContext(
                dict(self.tables), self.semiring
            )
        for name, rel in self.tables.items():
            if self.context.env.get(name) is not rel:
                self.context.bind(name, rel)
        return self.context

    @property
    def io_stats(self):
        """Cumulative simulated IO of this cache's runtime context."""
        return self.runtime().stats

    def _derived_context(
        self, tables: Mapping[str, FunctionalRelation]
    ) -> ExecutionContext:
        """Fresh context over ``tables``, sharing pool and metrics."""
        pool = self.context.pool if self.context is not None else None
        metrics = self.context.metrics if self.context is not None else None
        return ExecutionContext(
            dict(tables), self.semiring, pool=pool, metrics=metrics
        )

    # ------------------------------------------------------------------
    # Query answering
    # ------------------------------------------------------------------
    def table_for(self, var_name: str) -> str:
        """Smallest cached table containing the variable."""
        return _smallest_table_with(self.tables, var_name)

    def answer(
        self,
        var_name: str,
        selection: Mapping[str, object] | None = None,
    ) -> FunctionalRelation:
        """Answer a single-variable basic / restricted-answer MPF query.

        ``selection``, if given, must be on the query variable itself
        (the restricted-answer form).  Constrained-domain queries go
        through :meth:`absorb_evidence` first.
        """
        if selection:
            stray = set(selection) - {var_name}
            if stray:
                raise WorkloadError(
                    f"selection on non-query variables {sorted(stray)}: use "
                    "absorb_evidence() (constrained-domain protocol) first"
                )
        plan: PlanNode = GroupBy(Scan(self.table_for(var_name)), [var_name])
        if selection:
            plan = Select(plan, dict(selection))
        # Through the shared runtime: the aggregate pays a scan of the
        # cached table, and exact repeats hit the context memo.
        return evaluate(plan, self.runtime())

    def _propagate(
        self,
        ctx: ExecutionContext,
        tables: dict[str, FunctionalRelation],
        start: str,
        old_total,
    ) -> None:
        """Spread a change just bound to ``start`` over the whole cache.

        Inside ``start``'s tree it is BP's distribute program rooted at
        ``start``.  Tables in *other* connected components never see
        that message flow, yet Definition 5 against the changed view
        requires their mass to scale by the component's total-mass
        change (``old_total`` is ``start``'s mass before the change).
        """
        run_program(ctx, tables, distribute(self.forest, start), self.semiring)
        component = nx.node_connected_component(self.forest, start)
        outside = [n for n in tables if n not in component]
        if not outside:
            return
        new_total = self.semiring.reduce(tables[start].measure)
        if self.semiring.supports_division:
            factor = self.semiring.divide(new_total, old_total)
        else:
            # Idempotent times (boolean): re-absorbing the new total
            # directly is exact; old_total was the multiplicative
            # identity of a consistent cache.
            factor = new_total
        for name in outside:
            rel = tables[name]
            ctx.stats.charge_cpu(rel.ntuples)
            tables[name] = rel.with_measure(
                self.semiring.times(rel.measure, factor)
            )
            ctx.bind(name, tables[name])

    def absorb_evidence(self, evidence: Mapping[str, object]) -> "VECache":
        """Constrained-domain protocol (Theorem 5): returns a new cache.

        The selection is applied to one cached table per evidence
        variable; reductions then flow along the junction forest from
        that table to every other, restoring the invariant under the
        constrained domain.
        """
        tables = dict(self.tables)
        ctx = self._derived_context(tables)
        for var_name, value in evidence.items():
            start = _smallest_table_with(tables, var_name)
            old_total = self.semiring.reduce(tables[start].measure)
            try:
                tables[start] = evaluate(
                    Select(Scan(start), {var_name: value}), ctx
                )
            except MPFError as exc:
                exc.add_context(
                    f"evidence selection {var_name}={value!r} on {start}"
                )
                raise
            ctx.bind(start, tables[start])
            self._propagate(ctx, tables, start, old_total)
        return replace(self, tables=tables, context=ctx)

    # ------------------------------------------------------------------
    # Hypothetical queries (Section 3.1's alternate-measure form)
    # ------------------------------------------------------------------
    def with_alternate_measure(
        self,
        base_table: str,
        assignment: Mapping[str, object],
        new_value,
    ) -> "VECache":
        """Incrementally recalibrate for a hypothetical measure change.

        Instead of rebuilding the whole cache against the patched base
        relation, the multiplicative patch ``new / old`` is applied to
        the one cached table that absorbed the base relation, and the
        change is propagated along the junction forest — the same
        distribute pass the constrained-domain protocol uses.  Requires
        semiring division.
        """
        from repro.algebra.hypothetical import (
            alter_measure,
            apply_patch,
            measure_ratio_relation,
        )

        if base_table not in self.base_step:
            raise WorkloadError(
                f"unknown base table {base_table!r}; cache covers "
                f"{sorted(self.base_step)}"
            )
        base = self.base_relations[base_table]
        patch = measure_ratio_relation(
            base, assignment, new_value, self.semiring
        )
        step = self.base_step[base_table]
        tables = dict(self.tables)
        ctx = self._derived_context(tables)
        old_total = self.semiring.reduce(tables[step].measure)
        ctx.stats.charge_cpu(tables[step].ntuples)
        tables[step] = apply_patch(tables[step], patch, self.semiring)
        ctx.bind(step, tables[step])
        self._propagate(ctx, tables, step, old_total)
        base_relations = dict(self.base_relations)
        base_relations[base_table] = alter_measure(
            base, assignment, new_value
        )
        return replace(
            self, tables=tables, base_relations=base_relations, context=ctx
        )

    def refresh(
        self, base_table: str, new_relation: FunctionalRelation
    ) -> "VECache":
        """View maintenance: replace one base relation and recalibrate.

        Row insertions/deletions are not expressible as multiplicative
        patches (a created row divides by the additive identity), so
        maintenance rebuilds the cache — reusing the stored elimination
        order, which keeps the cached-table scopes stable so downstream
        consumers see the same schema.
        """
        if base_table not in self.base_relations:
            raise WorkloadError(
                f"unknown base table {base_table!r}; cache covers "
                f"{sorted(self.base_relations)}"
            )
        relations = [
            new_relation.with_name(name) if name == base_table else rel
            for name, rel in self.base_relations.items()
        ]
        return build_ve_cache(
            relations, self.semiring, order=list(self.elimination_order),
            context=self._derived_context({}),
        )

    # ------------------------------------------------------------------
    # Costing (the C(S) term of the MPF Workload Problem)
    # ------------------------------------------------------------------
    def total_tuples(self) -> int:
        return sum(rel.ntuples for rel in self.tables.values())

    def total_pages(self) -> int:
        return sum(
            PageGeometry(rel.arity).pages_for(rel.ntuples)
            for rel in self.tables.values()
        )

    def query_cost(self, var_name: str) -> float:
        """Scan + aggregate cost of answering a query from the cache."""
        import math

        table = self.tables[self.table_for(var_name)]
        n = max(table.ntuples, 2)
        return n * math.log2(n)

    def maximal_tables(self) -> dict[str, FunctionalRelation]:
        """Cached tables whose scope is not contained in another's.

        The paper's running example reports only these (t1, t2, t3);
        subsumed tables remain available for propagation.
        """
        scopes = {n: frozenset(r.var_names) for n, r in self.tables.items()}
        out = {}
        for name, scope in scopes.items():
            if not any(
                scope < other or (scope == other and name > other_name)
                for other_name, other in scopes.items()
                if other_name != name
            ):
                out[name] = self.tables[name]
        return out


@dataclass
class _Step:
    name: str
    children: list[str]
    variable: str


def build_ve_cache(
    relations: Sequence[FunctionalRelation],
    semiring: Semiring,
    heuristic: str = "degree",
    order: Sequence[str] | None = None,
    context: ExecutionContext | None = None,
) -> VECache:
    """Algorithm 3 end to end, executed through the physical runtime.

    ``order`` overrides step 1 with an explicit (possibly partial)
    elimination order — the triangulation min-fill heuristic completes
    it; otherwise a no-query-variable VE pass with ``heuristic``
    derives it.  Works on cyclic schemas too: executing VE *is* the
    Junction Tree transformation (Theorem 10.1-2).

    ``context`` supplies the execution environment (buffer pool, stats
    clock); the engine passes its catalog-backed context so base-table
    scans go through the shared buffer pool.  The materialization runs
    as small plans — each elimination's pre-aggregation join, then a
    GroupBy over it whose join input comes from the runtime memo — so
    cache construction pays simulated IO like any query.
    """
    if not relations:
        raise WorkloadError("VE-cache over an empty view")
    base_relations = named_relations(relations)

    schema = {name: r.var_names for name, r in base_relations.items()}
    if order is None:
        catalog = Catalog()
        names = catalog.register_all(
            [r.copy() for r in base_relations.values()]
        )
        spec = QuerySpec(tables=tuple(names), query_vars=())
        ve = VariableElimination(heuristic)
        result = ve.optimize(spec, catalog)
        order = list(result.extras["elimination_order"])
    # Complete a partial order over all variables via triangulation.
    full_order = triangulate(variable_graph(schema), order=order).order

    ctx = context or ExecutionContext({}, semiring)
    for name, rel in base_relations.items():
        ctx.bind(name, rel)

    def step_name(i: int) -> str:
        name = f"t{i}"
        return name if name not in schema else f"vecache_t{i}"

    # ------------------------------------------------------------------
    # Line 2: execute the no-query-variable VE plan, caching the table
    # preceding each GroupBy, and recording message edges.
    # ------------------------------------------------------------------
    work: list[tuple[str, str | None]] = [(n, None) for n in base_relations]
    steps: list[_Step] = []
    base_step: dict[str, str] = {}

    for v in full_order:
        chosen = [(n, src) for n, src in work if v in ctx.env[n].variables]
        if not chosen:
            continue
        rest = [(n, src) for n, src in work if v not in ctx.env[n].variables]
        name = step_name(len(steps) + 1)
        join_plan = join_chain([n for n, _ in chosen])
        try:
            joined = evaluate(join_plan, ctx)
            keep = [x for x in joined.var_names if x != v]
            # The GroupBy's join input is served from the runtime memo —
            # the materialized table is not recomputed.
            message = evaluate(GroupBy(join_plan, keep), ctx)
        except MPFError as exc:
            exc.add_context(f"VE-cache step {name} (eliminating {v!r})")
            raise
        ctx.bind(name, joined.with_name(name))
        ctx.bind(f"{name}.msg", message.with_name(f"{name}.msg"))
        ctx.count("vecache.steps")

        children = [src for _, src in chosen if src is not None]
        for n, src in chosen:
            if src is None:
                base_step[n] = name
        steps.append(_Step(name=name, children=children, variable=v))
        work = rest + [(f"{name}.msg", name)]

    if not steps:
        raise WorkloadError("view has no variables to cache over")
    if ctx.metrics is not None:
        ctx.metrics.gauge("vecache.tables").set(len(steps))

    # Leftover zero-variable messages hold the total mass of finished
    # connected components; their info must reach the other components
    # for the invariant to hold against the *full* view.
    forest = nx.Graph()
    forest.add_nodes_from(s.name for s in steps)
    for step in steps:
        for child in step.children:
            forest.add_edge(step.name, child)
    components = list(nx.connected_components(forest))
    if len(components) > 1:
        scalars: dict[frozenset, str] = {}
        for n, src in work:
            if ctx.env[n].arity == 0 and src is not None:
                component = frozenset(
                    next(c for c in components if src in c)
                )
                scalars[component] = n
        for step in steps:
            component = frozenset(
                next(c for c in components if step.name in c)
            )
            for other, scalar_name in scalars.items():
                if other != component:
                    patched = evaluate(
                        join_chain([step.name, scalar_name]), ctx
                    )
                    ctx.bind(step.name, patched.with_name(step.name))

    # ------------------------------------------------------------------
    # Lines 3-7: the backward pass, in Algorithm 3's own order — last
    # created first, which sends to every table after its parent.
    # ------------------------------------------------------------------
    program = [
        BPStep(target=child, source=step.name, kind="update")
        for step in reversed(steps)
        for child in step.children
    ]
    tables = {s.name: ctx.env[s.name] for s in steps}
    run_program(ctx, tables, program, semiring)

    return VECache(
        tables=tables,
        forest=forest,
        semiring=semiring,
        elimination_order=tuple(full_order),
        eliminated_by={s.name: s.variable for s in steps},
        base_step=base_step,
        base_relations=base_relations,
        context=ctx,
    )
