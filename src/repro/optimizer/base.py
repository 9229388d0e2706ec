"""Shared optimizer infrastructure.

Every optimization algorithm in Section 5 (CS, CS+, nonlinear CS+, VE,
VE+) works over the same material:

* a *query specification* — which base tables define the MPF view,
  which variables are grouped on, and which equality selections apply
  (restricted-answer / constrained-domain forms);
* *subplans* — (plan tree, derived stats, cumulative cost) triples that
  the dynamic programs compose without re-annotating whole trees;
* the *needed-variables* rule — the semantic-correctness condition of
  Chaudhuri and Shim's line 3: an interior GroupBy may only group on
  the query variables plus every variable that still occurs in a
  relation not yet joined in.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Mapping, Sequence

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import TableStats
from repro.cost.cardinality import JoinSize, group_stats, join_stats, select_stats
from repro.cost.model import CostModel, SimpleCostModel
from repro.errors import OptimizationError
from repro.plans.nodes import GroupBy, IndexScan, PlanNode, ProductJoin, Scan, Select

__all__ = [
    "QuerySpec",
    "SubPlan",
    "OptimizationResult",
    "Optimizer",
    "PlanContext",
]


@dataclass(frozen=True)
class QuerySpec:
    """An MPF query as the optimizer sees it.

    ``tables`` define the view ``r = s1 ⋈* ... ⋈* sn``; ``query_vars``
    is the GroupBy list ``X``; ``selections`` holds equality predicates
    (values may be labels or codes) covering both the restricted-answer
    (selected variable ∈ X) and constrained-domain (∉ X) forms.
    """

    tables: tuple[str, ...]
    query_vars: tuple[str, ...]
    selections: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        if not self.tables:
            raise OptimizationError("query needs at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise OptimizationError("duplicate tables in query spec")
        object.__setattr__(self, "selections", dict(self.selections))


@dataclass
class SubPlan:
    """A plan fragment with its derived statistics and cumulative cost."""

    plan: PlanNode
    stats: TableStats
    cost: float

    @cached_property
    def variables(self) -> frozenset[str]:
        return frozenset(self.stats.var_sizes)


@dataclass
class OptimizationResult:
    """What an optimizer returns.

    ``plans_considered`` counts costed candidate plans — the search
    effort metric plotted against plan quality in Figure 10 (alongside
    ``planning_seconds``).
    """

    plan: PlanNode
    cost: float
    algorithm: str
    planning_seconds: float
    plans_considered: int
    extras: dict = field(default_factory=dict)


class PlanContext:
    """Composition helpers shared by all algorithms.

    Holds the catalog, cost model, and the query; builds selection-
    pushed leaf subplans; costs a join from its output size alone
    (:meth:`cost_join`) and builds the subplan separately
    (:meth:`build_join`), so a search pays for statistics and plan nodes
    only on the candidates it keeps; composes GroupBys with incremental
    cost book-keeping; tracks the plans-considered counter.

    One context serves one ``optimize`` call, so everything a search
    reports besides its plan goes in ``extras`` here, never on the
    (possibly shared) optimizer instance.
    """

    def __init__(
        self,
        spec: QuerySpec,
        catalog: Catalog,
        model: CostModel | None = None,
    ):
        self.spec = spec
        self.catalog = catalog
        self.model = model or SimpleCostModel()
        self.plans_considered = 0
        #: Becomes :attr:`OptimizationResult.extras`.
        self.extras: dict = {}
        self._table_vars: dict[str, frozenset[str]] = {}
        #: ``σ_X`` of every variable of the view.
        self.domain_sizes: dict[str, int] = {}
        for t in spec.tables:
            stats = catalog.stats(t)
            self._table_vars[t] = frozenset(stats.var_sizes)
            self.domain_sizes.update(stats.var_sizes)
        unknown_qv = set(spec.query_vars) - set().union(*self._table_vars.values())
        if unknown_qv:
            raise OptimizationError(
                f"query variables {sorted(unknown_qv)} not in any view table"
            )

    # ------------------------------------------------------------------
    # Leaves
    # ------------------------------------------------------------------
    def leaf(self, table: str) -> SubPlan:
        """Access-path selection for one base relation.

        Selections on the query are pushed down; when exactly one
        predicate applies and the catalog holds a hash index on that
        variable, the index probe is costed against Select(Scan) and
        the cheaper access path wins (the "alternative access methods"
        of Section 5.4).
        """
        stats = self.catalog.stats(table)
        predicate = {
            v: c for v, c in self.spec.selections.items() if v in stats.var_sizes
        }
        scan_plan: PlanNode = Scan(table)
        scan_cost = self.model.scan_cost(stats)
        if not predicate:
            return SubPlan(scan_plan, stats, scan_cost)

        new_stats = select_stats(stats, predicate)
        filter_cost = scan_cost + self.model.select_cost(stats, new_stats)
        best = SubPlan(Select(scan_plan, predicate), new_stats, filter_cost)

        if len(predicate) == 1:
            (var_name, value), = predicate.items()
            if self.catalog.index_on(table, var_name) is not None:
                probe_cost = self.model.index_scan_cost(stats, new_stats)
                if probe_cost < best.cost:
                    self.plans_considered += 1
                    best = SubPlan(
                        IndexScan(table, predicate), new_stats, probe_cost
                    )
        return best

    def leaves(self) -> dict[str, SubPlan]:
        return {t: self.leaf(t) for t in self.spec.tables}

    def table_variables(self, table: str) -> frozenset[str]:
        return self._table_vars[table]

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def cost_join(self, left: SubPlan, right: SubPlan) -> float:
        """Cumulative cost of ``left ⋈* right``, from sizes alone.

        Counts one considered plan.  The join-order DPs rank every
        candidate of a subset on this and :meth:`build_join` only the
        winner.  The output size is a :class:`JoinSize`, estimated only
        if the cost model reads it.
        """
        self.plans_considered += 1
        left_stats, right_stats = left.stats, right.stats
        return (
            left.cost
            + right.cost
            + self.model.join_cost(
                left_stats, right_stats, JoinSize(left_stats, right_stats)
            )
        )

    def build_join(self, left: SubPlan, right: SubPlan, cost: float) -> SubPlan:
        """The join subplan itself, at the ``cost`` :meth:`cost_join` gave."""
        stats = join_stats(left.stats, right.stats)
        return SubPlan(ProductJoin(left.plan, right.plan), stats, cost)

    def join(self, left: SubPlan, right: SubPlan) -> SubPlan:
        return self.build_join(left, right, self.cost_join(left, right))

    def group(self, child: SubPlan, group_names: Sequence[str]) -> SubPlan:
        group_names = tuple(n for n in group_names if n in child.stats.var_sizes)
        stats = group_stats(child.stats, group_names)
        cost = child.cost + self.model.group_cost(child.stats, stats)
        self.plans_considered += 1
        return SubPlan(GroupBy(child.plan, group_names), stats, cost)

    def group_if_useful(
        self, child: SubPlan, needed: frozenset[str]
    ) -> SubPlan | None:
        """GroupBy on ``needed ∩ vars(child)``, or None if it drops nothing."""
        var_sizes = child.stats.var_sizes
        if needed.issuperset(var_sizes):
            return None
        return self.group(child, tuple(v for v in var_sizes if v in needed))

    # ------------------------------------------------------------------
    # Semantic-correctness rule
    # ------------------------------------------------------------------
    def needed_variables(self, unjoined_tables: Sequence[str]) -> frozenset[str]:
        """Variables an interior GroupBy must retain.

        Query variables, plus every variable of every relation not yet
        joined in (the Chaudhuri–Shim correctness condition).
        """
        needed = set(self.spec.query_vars)
        for t in unjoined_tables:
            needed |= self._table_vars[t]
        return frozenset(needed)

    def finalize(self, root: SubPlan) -> SubPlan:
        """Add the root GroupBy on the query variables when required.

        A root that already holds exactly the query variables is kept,
        whatever its column order: the answer takes the query's order
        where it leaves the engine (:meth:`MPFQuery.finish`), so no plan
        or cost depends on it.
        """
        if set(root.stats.var_sizes) == set(self.spec.query_vars):
            return root
        return self.group(root, self.spec.query_vars)


class Optimizer:
    """Base class: times the search and packages the result.

    ``clock`` is the timing source for ``planning_seconds`` — by
    default the process wall clock, but injectable so hosts under a
    controlled clock (the serving runtime's deterministic driver, guard
    tests) time planning on the same clock contract as everything else
    instead of a raw ``time.perf_counter`` call they cannot virtualize.
    """

    algorithm = "abstract"

    def optimize(
        self,
        spec: QuerySpec,
        catalog: Catalog,
        model: CostModel | None = None,
        clock: Callable[[], float] | None = None,
    ) -> OptimizationResult:
        context = PlanContext(spec, catalog, model)
        clock = clock or time.perf_counter
        start = clock()
        best = self._search(context)
        elapsed = clock() - start
        return OptimizationResult(
            plan=best.plan,
            cost=best.cost,
            algorithm=self.algorithm,
            planning_seconds=elapsed,
            plans_considered=context.plans_considered,
            extras=context.extras,
        )

    def _search(self, context: PlanContext) -> SubPlan:
        raise NotImplementedError
