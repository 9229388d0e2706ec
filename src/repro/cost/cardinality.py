"""Cardinality estimation for intermediate results.

The estimators follow the classical System-R style assumptions the
paper's setting inherits:

* **product join** — independence plus containment of value sets:

      |s1 ⋈* s2| ≈ |s1|·|s2| / Π_{v ∈ shared} max(d_{s1}(v), d_{s2}(v))

  where ``d_s(v)`` is the distinct count of ``v`` in ``s``.  For
  *complete* relations (the Section 7.3 views) this is exact: it
  reduces to the product of the union's domain sizes.

* **GroupBy** — output cardinality is bounded by both the input size
  and the product of the group variables' distinct counts.

* **selection** ``v = c`` — uniformity: cardinality shrinks by the
  distinct count of ``v``; the selected variable keeps one distinct
  value.

Derived :class:`TableStats` propagate per-variable distinct counts so
estimates compose through deep plans.
"""

from __future__ import annotations

from typing import Mapping, NamedTuple, Sequence

from repro.catalog.statistics import TableStats

__all__ = ["JoinSize", "join_size", "join_stats", "group_stats", "select_stats"]


def _cap_distincts(
    var_sizes: Mapping[str, int],
    distinct: Mapping[str, float],
    cardinality: float,
) -> dict[str, float]:
    """No variable can have more distinct values than there are rows."""
    return {
        v: max(1.0, min(distinct[v], float(var_sizes[v]), cardinality))
        for v in var_sizes
    }


class JoinSize(NamedTuple):
    """What a :class:`~repro.cost.model.CostModel` reads from a join's output."""

    cardinality: float
    var_sizes: dict[str, int]


def join_size(left: TableStats, right: TableStats) -> JoinSize:
    """Estimated cardinality and merged schema of ``left ⋈* right``.

    Enough to cost the join: ranking candidate joins needs the size of
    the output, not its per-variable distinct counts, so the join-order
    search calls this per candidate and :func:`join_stats` only for the
    plans it keeps.
    """
    left_distinct, right_distinct = left.distinct, right.distinct
    selectivity = 1.0
    for v in left.var_sizes:
        if v in right_distinct:
            selectivity /= max(left_distinct[v], right_distinct[v], 1.0)
    cardinality = max(1.0, left.cardinality * right.cardinality * selectivity)
    var_sizes = dict(left.var_sizes)
    var_sizes.update(right.var_sizes)
    return JoinSize(cardinality, var_sizes)


def join_stats(left: TableStats, right: TableStats, name: str = "") -> TableStats:
    """Estimated stats of ``left ⋈* right``."""
    cardinality, var_sizes = join_size(left, right)
    distinct: dict[str, float] = {}
    for v in var_sizes:
        if v not in right.var_sizes:
            distinct[v] = left.distinct[v]
        elif v not in left.var_sizes:
            distinct[v] = right.distinct[v]
        else:
            distinct[v] = min(left.distinct[v], right.distinct[v])
    distinct = _cap_distincts(var_sizes, distinct, cardinality)
    return TableStats(
        name or f"({left.name}*{right.name})", cardinality, var_sizes, distinct
    )


def group_stats(
    child: TableStats, group_vars: Sequence[str], name: str = ""
) -> TableStats:
    """Estimated stats of ``GroupBy_{group_vars}(child)``."""
    group_vars = [v for v in group_vars if v in child.var_sizes]
    groups = 1.0
    for v in group_vars:
        groups *= child.distinct[v]
    cardinality = max(1.0, min(child.cardinality, groups))
    var_sizes = {v: child.var_sizes[v] for v in group_vars}
    distinct = _cap_distincts(
        var_sizes, {v: child.distinct[v] for v in group_vars}, cardinality
    )
    return TableStats(
        name or f"g({child.name})", cardinality, var_sizes, distinct
    )


def select_stats(
    child: TableStats, predicate: Mapping[str, object], name: str = ""
) -> TableStats:
    """Estimated stats of an equality selection on ``child``."""
    cardinality = child.cardinality
    distinct = dict(child.distinct)
    for v in predicate:
        if v not in child.var_sizes:
            continue
        cardinality /= max(child.distinct[v], 1.0)
        distinct[v] = 1.0
    cardinality = max(1.0, cardinality)
    distinct = _cap_distincts(child.var_sizes, distinct, cardinality)
    return TableStats(
        name or f"sel({child.name})", cardinality, dict(child.var_sizes), distinct
    )
