"""An independent MPF oracle, written from the paper's §3 definitions.

The answer to an MPF query is the marginal of the product join of the
view's relations (Definitions 2 and 3).  This module computes exactly
that and nothing cleverer: every relation becomes a dense tensor over
the grid of *all* the view's variables (its absent rows masked out),
the product join is one broadcast product over that grid, and the
marginal is one reduction over the axes that are not grouped.  It
imports nothing from ``repro.algebra`` and shares no code path with the
engine — no group indexes, no join orders, no plans — so an engine
answer that agrees with it is right for a reason of its own.

The grid is the product of the domain sizes, so keep domains small.
"""

from __future__ import annotations

import numpy as np

# (plus, times, zero) per builtin semiring, from the paper's table of
# semirings (§2): ``plus`` is the marginalization aggregate, ``times``
# the product join's combiner, ``zero`` the identity of ``plus``.
SEMIRING_OPS = {
    "sum_product": (np.add, np.multiply, 0.0),
    "log_prob": (np.logaddexp, np.add, -np.inf),
    "min_sum": (np.minimum, np.add, np.inf),
    "max_sum": (np.maximum, np.add, -np.inf),
    "min_product": (np.minimum, np.multiply, np.inf),
    "max_product": (np.maximum, np.multiply, 0.0),
    "boolean": (np.logical_or, np.logical_and, False),
    "counting": (np.add, np.multiply, 0),
}


def mpf_answer(relations, group_names, semiring_name, where=None) -> dict:
    """``{group codes: measure}`` of the MPF query over ``relations``.

    ``relations`` are functional relations (their ``variables``,
    ``columns`` and ``measure`` are read); ``where`` maps variable
    names to the one code each must take.  Only groups that some row of
    the product join falls in are answered.
    """
    plus, times, zero = SEMIRING_OPS[semiring_name]
    sizes: dict[str, int] = {}
    for relation in relations:
        for variable in relation.variables:
            sizes.setdefault(variable.name, variable.size)
    names = list(sizes)
    shape = tuple(sizes[n] for n in names)

    product, present = None, np.ones(shape, dtype=bool)
    for relation in relations:
        # The relation's own axes at full size, every other axis 1.
        own = tuple(
            sizes[n] if n in relation.var_names else 1 for n in names
        )
        dense = np.zeros(own, dtype=relation.measure.dtype)
        mask = np.zeros(own, dtype=bool)
        at = tuple(
            relation.columns[n] if n in relation.var_names
            else np.zeros(relation.ntuples, dtype=np.int64)
            for n in names
        )
        dense[at] = relation.measure
        mask[at] = True
        with np.errstate(invalid="ignore", over="ignore"):
            product = dense if product is None else times(product, dense)
        present = present & mask
    for name, code in (where or {}).items():
        keep = np.zeros(sizes[name], dtype=bool)
        keep[code] = True
        present = present & keep.reshape(
            [sizes[name] if n == name else 1 for n in names]
        )

    product = np.where(present, np.broadcast_to(product, shape), zero)
    summed = tuple(i for i, n in enumerate(names) if n not in group_names)
    marginal = plus.reduce(product, axis=summed)
    answered = np.logical_or.reduce(present, axis=summed)
    # Reduced axes are gone; order the rest as ``group_names``.
    kept = [n for n in names if n in group_names]
    marginal = np.transpose(marginal, [kept.index(n) for n in group_names])
    answered = np.transpose(answered, [kept.index(n) for n in group_names])
    return {
        tuple(int(c) for c in codes): marginal[codes]
        for codes in zip(*np.nonzero(answered))
    }


def engine_answer(relation, group_names) -> dict:
    """The same ``{group codes: measure}`` shape from an engine result."""
    columns = [relation.columns[n] for n in group_names]
    return {
        tuple(int(column[i]) for column in columns): relation.measure[i]
        for i in range(relation.ntuples)
    }


def assert_agrees(got: dict, want: dict, semiring_name: str) -> None:
    """Equal as functions: a group one side lacks has the additive
    identity there (an incomplete relation encodes the same function as
    its zero-padded completion, §2).  Measures are equal — to float
    rounding for real-valued semirings, whose join and fold orders are
    the engine's business.  The rounding is relative to the terms, not
    to the result: a ``log_prob`` marginal of probability one is a sum
    of logs that cancels to about zero, so an absolute slack of a few
    ulps of one is allowed too."""
    zero = SEMIRING_OPS[semiring_name][2]
    exact = semiring_name in ("boolean", "counting")
    for key in got.keys() | want.keys():
        a, b = got.get(key, zero), want.get(key, zero)
        if exact or np.isinf(b):
            assert a == b, (key, a, b)
        else:
            assert np.isclose(a, b, rtol=1e-9, atol=1e-12), (key, a, b)
