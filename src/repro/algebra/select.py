"""Selection on functional relations.

Two MPF query forms carry equality predicates (Section 3.1):

* *restricted answer set* — ``where X = c`` for a query variable
  ``X``: only part of the answer is wanted;
* *constrained domain* — ``where Y = c`` for a non-query variable
  ``Y``: the function is conditioned on the given value (probabilistic
  evidence in the Section 4 reading).

Both are plain relational selections on variable columns; measure
predicates (the *constrained range* form, ``having f < c``) are a
different operator, :func:`restrict_range`.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.algebra import dense
from repro.data.relation import FunctionalRelation
from repro.errors import SchemaError

__all__ = ["restrict", "restrict_range"]


def restrict(
    relation: FunctionalRelation,
    predicate: Mapping[str, object],
    name: str | None = None,
    shards: np.ndarray | None = None,
):
    """Keep rows matching every ``{variable: value}`` equality.

    Values may be labels or codes.  The selected variables remain in
    the schema (with a single value), matching the paper's queries such
    as ``select wid, sum(inv) ... where wid = w1 group by wid``.

    ``shards`` — the row offsets of a shard-major ``relation`` — makes
    the result ``(relation, offsets)``: surviving rows keep their
    order, so the result is shard-major too and ``offsets`` delimit
    each shard's survivors.
    """
    codes = {}
    for var_name, value in predicate.items():
        if var_name not in relation.variables:
            raise SchemaError(
                f"selection on unknown variable {var_name!r}; relation "
                f"has {relation.var_names}"
            )
        codes[var_name] = relation.variables[var_name].domain.code_of(value)
    if shards is None:
        selected = dense.restrict(relation, codes, name or relation.name)
        if selected is not None:
            return selected
    mask = np.ones(relation.ntuples, dtype=bool)
    for var_name, code in codes.items():
        mask &= relation.columns[var_name] == code
    rows = np.flatnonzero(mask)
    selected = relation.take(rows)
    if name:
        selected = selected.with_name(name)
    if shards is None:
        return selected
    return selected, np.searchsorted(rows, shards)


def restrict_range(
    relation: FunctionalRelation,
    op: str,
    threshold,
    name: str | None = None,
) -> FunctionalRelation:
    """Constrained-range filter on the measure (``having f <op> c``).

    Applied to a *result* relation; the paper notes this form restricts
    function values in the answer (e.g. only investments below a
    threshold).
    """
    ops = {
        "<": np.less,
        "<=": np.less_equal,
        ">": np.greater,
        ">=": np.greater_equal,
        "=": np.equal,
        "==": np.equal,
        "!=": np.not_equal,
    }
    if op not in ops:
        raise SchemaError(f"unsupported range operator {op!r}")
    mask = ops[op](relation.measure, threshold)
    selected = relation.take(np.flatnonzero(mask))
    return selected.with_name(name) if name else selected
