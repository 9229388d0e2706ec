"""Plan annotation: estimated statistics and costs per node.

``annotate(plan, catalog, model)`` fills every node's ``stats`` (a
derived :class:`TableStats`), ``op_cost`` (this operator alone) and
``total_cost`` (operator + subtree).  Optimizers compare plans by root
``total_cost``.
"""

from __future__ import annotations

from repro.catalog.catalog import Catalog
from repro.catalog.statistics import TableStats
from repro.cost.cardinality import group_stats, join_stats, select_stats
from repro.cost.model import CostModel, SimpleCostModel
from repro.errors import PlanError
from repro.plans.nodes import GroupBy, IndexScan, PlanNode, ProductJoin, Scan, Select

__all__ = ["annotate", "plan_cost"]


def annotate(
    plan: PlanNode,
    catalog: Catalog,
    model: CostModel | None = None,
    overrides: dict[str, TableStats] | None = None,
    choose_methods: bool = False,
) -> PlanNode:
    """Attach stats and costs to every node; returns the same plan.

    ``overrides`` substitutes statistics for named base tables — used
    when a selection was pushed into a base relation before planning,
    so the optimizer sees post-selection cardinalities.

    ``choose_methods`` additionally performs physical optimization:
    each ProductJoin / GroupBy node gets the cheapest algorithm under
    ``model`` ("hash" vs "sort_merge" joins, "sort" vs "hash"
    aggregation) written into its ``method`` attribute.
    """
    model = model or SimpleCostModel()
    overrides = overrides or {}

    def visit(node: PlanNode) -> None:
        if isinstance(node, Scan):
            node.stats = overrides.get(node.table) or catalog.stats(node.table)
            node.op_cost = model.scan_cost(node.stats)
            node.total_cost = node.op_cost
            return
        if isinstance(node, IndexScan):
            base = overrides.get(node.table) or catalog.stats(node.table)
            node.stats = select_stats(base, node.predicate)
            node.op_cost = model.index_scan_cost(base, node.stats)
            node.total_cost = node.op_cost
            return
        for child in node.children():
            visit(child)
        if isinstance(node, Select):
            node.stats = select_stats(node.child.stats, node.predicate)
            node.op_cost = model.select_cost(node.child.stats, node.stats)
            node.total_cost = node.op_cost + node.child.total_cost
        elif isinstance(node, ProductJoin):
            node.stats = join_stats(node.left.stats, node.right.stats)
            if choose_methods:
                node.method = min(
                    ProductJoin.JOIN_METHODS,
                    key=lambda m: model.join_cost(
                        node.left.stats, node.right.stats, node.stats, m
                    ),
                )
            node.op_cost = model.join_cost(
                node.left.stats, node.right.stats, node.stats, node.method
            )
            node.total_cost = (
                node.op_cost + node.left.total_cost + node.right.total_cost
            )
        elif isinstance(node, GroupBy):
            unknown = set(node.group_names) - set(node.child.stats.var_sizes)
            if unknown:
                raise PlanError(
                    f"GroupBy on {sorted(unknown)} not produced by child "
                    f"(has {list(node.child.stats.var_sizes)})"
                )
            node.stats = group_stats(node.child.stats, node.group_names)
            if choose_methods:
                node.method = min(
                    GroupBy.GROUP_METHODS,
                    key=lambda m: model.group_cost(
                        node.child.stats, node.stats, m
                    ),
                )
            node.op_cost = model.group_cost(
                node.child.stats, node.stats, node.method
            )
            node.total_cost = node.op_cost + node.child.total_cost
        else:  # pragma: no cover - defensive
            raise PlanError(f"unknown plan node {type(node).__name__}")

    visit(plan)
    return plan


def plan_cost(
    plan: PlanNode,
    catalog: Catalog,
    model: CostModel | None = None,
    overrides: dict[str, TableStats] | None = None,
) -> float:
    """Annotate and return the root's cumulative estimated cost."""
    annotate(plan, catalog, model, overrides)
    return float(plan.total_cost)
