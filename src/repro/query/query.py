"""MPF query objects: the four Section 3.1 forms.

* **basic** — ``select X, AGG(f) from r group by X``;
* **restricted answer** — basic plus ``where X = c`` on a query
  variable;
* **constrained domain** — basic plus ``where Y = c`` on a non-query
  variable (probabilistic evidence);
* **constrained range** — a ``having f <op> c`` filter on the result
  measures.

A query validates itself against its view's variables and lowers to
the optimizer's :class:`~repro.optimizer.base.QuerySpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping

from repro.algebra.select import restrict_range
from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.errors import QueryError
from repro.optimizer.base import QuerySpec
from repro.query.view import MPFView

__all__ = ["MPFQuery", "HavingClause"]


@dataclass(frozen=True)
class HavingClause:
    """``having f <op> threshold`` — the constrained-range form."""

    op: str
    threshold: float

    def apply(self, relation: FunctionalRelation) -> FunctionalRelation:
        return restrict_range(relation, self.op, self.threshold)


@dataclass(frozen=True)
class MPFQuery:
    """One MPF query against a view."""

    view: MPFView
    group_by: tuple[str, ...]
    selections: Mapping[str, object] = field(default_factory=dict)
    having: HavingClause | None = None

    def __post_init__(self):
        object.__setattr__(self, "selections", dict(self.selections))
        if not self.group_by and not self.selections:
            # Grouping by nothing is legal (total mass) but flag the
            # common mistake of an empty query.
            pass

    # ------------------------------------------------------------------
    @property
    def form(self) -> str:
        """Which Section 3.1 template this query instantiates."""
        kinds = []
        if self.selections:
            on_query = set(self.selections) & set(self.group_by)
            off_query = set(self.selections) - set(self.group_by)
            if on_query:
                kinds.append("restricted-answer")
            if off_query:
                kinds.append("constrained-domain")
        else:
            kinds.append("basic")
        if self.having is not None:
            kinds.append("constrained-range")
        return "+".join(kinds)

    def validate(self, catalog: Catalog) -> None:
        available = set(self.view.variables(catalog))
        unknown = set(self.group_by) - available
        if unknown:
            raise QueryError(
                f"group-by variables {sorted(unknown)} not in view "
                f"{self.view.name!r} (has {sorted(available)})"
            )
        unknown = set(self.selections) - available
        if unknown:
            raise QueryError(
                f"selection variables {sorted(unknown)} not in view "
                f"{self.view.name!r}"
            )

    def to_spec(self, catalog: Catalog) -> QuerySpec:
        self.validate(catalog)
        return QuerySpec(
            tables=self.view.tables,
            query_vars=tuple(self.group_by),
            selections=dict(self.selections),
        )

    def finish(self, relation: FunctionalRelation) -> FunctionalRelation:
        """The answer as the query asked for it: the group-by columns in
        group-by order, then the post-aggregation having clause, if any."""
        order = tuple(dict.fromkeys(self.group_by))
        if relation.var_names != order and set(relation.var_names) == set(order):
            relation = relation.reorder(order)
        if self.having is None:
            return relation
        return self.having.apply(relation)

    def __repr__(self) -> str:
        parts = [f"select {', '.join(self.group_by) or '<total>'}"]
        parts.append(f"from {self.view.name}")
        if self.selections:
            preds = " and ".join(
                f"{k}={v}" for k, v in self.selections.items()
            )
            parts.append(f"where {preds}")
        if self.group_by:
            parts.append(f"group by {', '.join(self.group_by)}")
        if self.having:
            parts.append(f"having f {self.having.op} {self.having.threshold}")
        return f"MPFQuery({' '.join(parts)})"
