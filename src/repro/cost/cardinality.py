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

from typing import Mapping, Sequence

from repro.catalog.statistics import TableStats

__all__ = ["JoinSize", "join_size", "join_stats", "group_stats", "select_stats"]


def _capped(distinct: float, size: int, cardinality: float) -> float:
    """``max(1.0, min(distinct, float(size), cardinality))``, spelled as
    comparisons (it runs once per variable of every derived estimate):
    no variable has more distinct values than its domain or the rows."""
    if size < distinct:
        distinct = float(size)
    if cardinality < distinct:
        distinct = cardinality
    return distinct if distinct > 1.0 else 1.0


def join_size(left: TableStats, right: TableStats) -> float:
    """Estimated cardinality of ``left ⋈* right``: one division per
    shared variable, in ``left.var_sizes`` order."""
    left_distinct, right_distinct = left.distinct, right.distinct
    selectivity = 1.0
    for v in left.var_sizes:
        r = right_distinct.get(v)
        if r is not None:
            # max(d, r, 1.0), spelled as its comparisons: it runs once
            # per costed candidate when a model reads the output size.
            d = left_distinct[v]
            most = r if r > d else d
            selectivity /= 1.0 if 1.0 > most else most
    cardinality = left.cardinality * right.cardinality * selectivity
    return cardinality if cardinality > 1.0 else 1.0


class JoinSize:
    """What a :class:`~repro.cost.model.CostModel` reads from a join's
    output — its cardinality and merged schema — each derived from the
    operands on first read.

    The join-order search hands one to the model per costed candidate —
    the same object, re-aimed (:meth:`aim`) at each, so a model may read
    it only during the call.  A model that prices a join from its inputs
    alone (the paper's ``|L|·|R|``) never reads it, so no size is
    estimated for the candidates it only ranks; one that does read it
    gets the numbers :func:`join_stats` would give, computed once.
    """

    __slots__ = ("left", "right", "_cardinality", "_var_sizes")

    def __init__(self, left: TableStats, right: TableStats):
        self.aim(left, right)

    def aim(self, left: TableStats, right: TableStats) -> "JoinSize":
        """Stand for ``left ⋈* right`` instead, nothing yet derived."""
        self.left = left
        self.right = right
        self._cardinality: float | None = None
        self._var_sizes: dict[str, int] | None = None
        return self

    @property
    def cardinality(self) -> float:
        if self._cardinality is None:
            self._cardinality = join_size(self.left, self.right)
        return self._cardinality

    @property
    def var_sizes(self) -> dict[str, int]:
        if self._var_sizes is None:
            self._var_sizes = {**self.left.var_sizes, **self.right.var_sizes}
        return self._var_sizes


def join_stats(left: TableStats, right: TableStats, name: str = "") -> TableStats:
    """Estimated stats of ``left ⋈* right``.

    One pass over the merged schema — ``left``'s variables first, so the
    shared ones divide the selectivity in the order :func:`join_size`
    divides it — where a shared variable takes its domain size from
    ``right`` and the smaller of the two distinct counts; then every
    distinct count is capped by its domain size and the cardinality.
    """
    left_distinct, right_distinct = left.distinct, right.distinct
    var_sizes = dict(left.var_sizes)
    var_sizes.update(right.var_sizes)
    selectivity = 1.0
    distinct: dict[str, float] = {}
    for v in var_sizes:
        d = left_distinct.get(v)
        if d is None:
            d = right_distinct[v]
        elif v in right_distinct:
            r = right_distinct[v]
            selectivity /= max(d, r, 1.0)
            d = min(d, r)
        distinct[v] = d
    cardinality = max(1.0, left.cardinality * right.cardinality * selectivity)
    for v, d in distinct.items():
        distinct[v] = _capped(d, var_sizes[v], cardinality)
    return TableStats(
        name or f"({left.name}*{right.name})", cardinality, var_sizes, distinct
    )


def group_stats(
    child: TableStats, group_vars: Sequence[str], name: str = ""
) -> TableStats:
    """Estimated stats of ``GroupBy_{group_vars}(child)``."""
    child_sizes, child_distinct = child.var_sizes, child.distinct
    group_vars = [v for v in group_vars if v in child_sizes]
    groups = 1.0
    for v in group_vars:
        groups *= child_distinct[v]
    cardinality = max(1.0, min(child.cardinality, groups))
    var_sizes: dict[str, int] = {}
    distinct: dict[str, float] = {}
    for v in group_vars:
        size = var_sizes[v] = child_sizes[v]
        distinct[v] = _capped(child_distinct[v], size, cardinality)
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
    var_sizes = dict(child.var_sizes)
    distinct = {
        v: _capped(distinct[v], size, cardinality)
        for v, size in var_sizes.items()
    }
    return TableStats(
        name or f"sel({child.name})", cardinality, var_sizes, distinct
    )
