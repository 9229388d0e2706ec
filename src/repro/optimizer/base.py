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
from repro.cost.cardinality import group_stats, join_stats, select_stats
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

    Holds the catalog, cost model, and the query; numbers the view's
    variables once (:attr:`var_bits`, :meth:`mask`), so the searches
    keep scopes as integer bitmasks; builds selection-pushed leaf
    subplans; composes joins and GroupBys with incremental cost
    book-keeping; tracks the plans-considered counter.  The join-order
    DPs (:mod:`repro.optimizer.joinplan`) cost their candidates on lean
    per-subset records of their own and come back here only for the
    plan they return.

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
        #: Variable id ``i`` (first appearance over the view's tables) as
        #: the bit ``1 << i``; and each bit's name and domain size.
        self.var_bits: dict[str, int] = {
            v: 1 << i for i, v in enumerate(self.domain_sizes)
        }
        self._name_of = {1 << i: v for i, v in enumerate(self.domain_sizes)}
        self._size_of = {
            1 << i: size for i, size in enumerate(self.domain_sizes.values())
        }
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

    def table_variables(self, table: str) -> frozenset[str]:
        return self._table_vars[table]

    # ------------------------------------------------------------------
    # Variable numbering
    # ------------------------------------------------------------------
    def mask(self, names) -> int:
        """The bitmask of ``names``; a name outside the view adds nothing
        (no subplan of this query can hold it)."""
        bits = self.var_bits
        out = 0
        for v in names:
            out |= bits.get(v, 0)
        return out

    def names(self, mask: int) -> list[str]:
        """The variables of ``mask``, in id order."""
        name_of = self._name_of
        out = []
        while mask:
            low = mask & -mask
            out.append(name_of[low])
            mask ^= low
        return out

    def domain_product(self, mask: int) -> float:
        """``Π σ_X`` over the variables of ``mask``, in id order (products
        of integer domain sizes are exact below 2^53, so the order moves
        no bits)."""
        size_of = self._size_of
        size = 1.0
        while mask:
            low = mask & -mask
            size *= size_of[low]
            mask ^= low
        return size

    # ------------------------------------------------------------------
    # Composition
    # ------------------------------------------------------------------
    def join(self, left: SubPlan, right: SubPlan) -> SubPlan:
        """``left ⋈* right`` with full statistics; one considered plan."""
        self.plans_considered += 1
        stats = join_stats(left.stats, right.stats)
        cost = left.cost + right.cost + self.model.join_cost(
            left.stats, right.stats, stats
        )
        return SubPlan(ProductJoin(left.plan, right.plan), stats, cost)

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
