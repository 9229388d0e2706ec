"""Evaluation plans: nodes, costing annotations, printing, execution."""

from repro.plans.annotate import annotate, plan_cost
from repro.plans.executor import Executor, execute
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
from repro.plans.printer import explain
from repro.plans.profile import ExecutionProfile, OperatorProfile
from repro.plans.runtime import (
    DEFAULT_WORKMEM_PAGES,
    ExecutionContext,
    Tracer,
    evaluate,
    evaluate_dag,
)
from repro.plans.serialize import (
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)

__all__ = [
    "PlanNode",
    "Scan",
    "IndexScan",
    "FilterScan",
    "Select",
    "ProductJoin",
    "GroupBy",
    "SemiJoin",
    "annotate",
    "plan_cost",
    "explain",
    "Executor",
    "execute",
    "PlanDAG",
    "lower",
    "ExecutionContext",
    "QueryGuard",
    "Tracer",
    "evaluate",
    "evaluate_dag",
    "DEFAULT_WORKMEM_PAGES",
    "ExecutionProfile",
    "OperatorProfile",
    "plan_to_dict",
    "plan_from_dict",
    "plan_to_json",
    "plan_from_json",
]
