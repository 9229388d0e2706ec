"""Plan (de)serialization: plans as plain dicts / JSON.

Lets callers persist a chosen plan (e.g. a plan cache keyed by query
shape) and re-execute it later without re-optimizing — the relational
engine's equivalent of a prepared statement.  Only structure and
physical methods are stored; statistics/cost annotations are
re-derivable via :func:`repro.plans.annotate.annotate`.
"""

from __future__ import annotations

import json

from repro.errors import PlanError
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

__all__ = ["plan_to_dict", "plan_from_dict", "plan_to_json", "plan_from_json"]


# Child slots per op: each names both the node attribute and the dict
# key, and follows the node's own entries in the document.
_CHILDREN = {
    "select": ("child",),
    "product_join": ("left", "right"),
    "group_by": ("child",),
    "semijoin": ("target", "source"),
}


def _own_entries(plan: PlanNode) -> dict:
    """One node's dict entries, children excluded."""
    if isinstance(plan, Scan):
        return {"op": "scan", "table": plan.table}
    if isinstance(plan, IndexScan):
        return {
            "op": "index_scan",
            "table": plan.table,
            "predicate": dict(plan.predicate),
        }
    if isinstance(plan, FilterScan):
        return {
            "op": "filter_scan",
            "table": plan.table,
            "predicate": dict(plan.predicate),
        }
    if isinstance(plan, Select):
        return {"op": "select", "predicate": dict(plan.predicate)}
    if isinstance(plan, ProductJoin):
        return {"op": "product_join", "method": plan.method}
    if isinstance(plan, GroupBy):
        return {
            "op": "group_by",
            "group_names": list(plan.group_names),
            "method": plan.method,
        }
    if isinstance(plan, SemiJoin):
        return {"op": "semijoin", "kind": plan.kind}
    raise PlanError(f"cannot serialize node {type(plan).__name__}")


def plan_to_dict(plan: PlanNode) -> dict:
    """Structural dict encoding of a plan tree (iterative: plans
    thousands of operators deep encode without recursion)."""
    root: dict = {}
    stack = [(plan, root)]
    while stack:
        node, out = stack.pop()
        out.update(_own_entries(node))
        for slot in _CHILDREN.get(out["op"], ()):
            out[slot] = {}
            stack.append((getattr(node, slot), out[slot]))
    return root


def _node_from(data: dict, children: list[PlanNode]) -> PlanNode:
    """One node from its dict entries and already rebuilt children."""
    op = data["op"]
    if op == "scan":
        return Scan(data["table"])
    if op == "index_scan":
        return IndexScan(data["table"], data["predicate"])
    if op == "filter_scan":
        return FilterScan(data["table"], data["predicate"])
    if op == "select":
        return Select(*children, data["predicate"])
    if op == "product_join":
        return ProductJoin(*children, method=data.get("method", "hash"))
    if op == "group_by":
        return GroupBy(
            *children, data["group_names"], method=data.get("method", "sort")
        )
    if op == "semijoin":
        return SemiJoin(*children, kind=data.get("kind", "product"))
    raise PlanError(f"unknown plan op {op!r}")


def plan_from_dict(data: dict) -> PlanNode:
    """Rebuild a plan tree from :func:`plan_to_dict` output."""
    built: list[PlanNode] = []
    stack = [(data, False)]
    while stack:
        entry, children_built = stack.pop()
        try:
            slots = _CHILDREN.get(entry["op"], ())
        except (TypeError, KeyError):
            raise PlanError(f"malformed plan dict: {entry!r}") from None
        if slots and not children_built:
            stack.append((entry, True))
            stack.extend((entry[slot], False) for slot in reversed(slots))
            continue
        # The node's children are the top of ``built``: swap them for it.
        first = len(built) - len(slots)
        built[first:] = [_node_from(entry, built[first:])]
    return built.pop()


def plan_to_json(plan: PlanNode, indent: int | None = None) -> str:
    return json.dumps(plan_to_dict(plan), indent=indent)


def plan_from_json(text: str) -> PlanNode:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise PlanError(f"invalid plan JSON: {exc}") from exc
    return plan_from_dict(data)
