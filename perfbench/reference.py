"""Independent reference answers; shares no code with ``repro.algebra``.

``chain_answer`` is NumPy message passing over the acyclic five-table
supply chain (sparse, large domains); ``dense_answer`` is variable
elimination over dense tensors (Bayesian networks, synthetic views);
``joint_enumeration`` is the brute-force joint for tiny networks.
Answers are dense vectors over the query variable's domain, holding the
additive identity (0 for sum, +inf for min) where the view has no row.
"""

from __future__ import annotations

import numpy as np

CHAIN = ("sid", "pid", "wid", "cid", "tid")
LINKS = ("contracts", "location", "warehouses", "ctdeals")
"""``LINKS[i]`` is the table over ``CHAIN[i]`` and ``CHAIN[i + 1]``;
``transporters`` is the unary factor on ``tid``."""

RTOL = 1e-9


def _reduce(agg: str, size: int, index, values):
    if agg == "sum":
        return np.bincount(index, weights=values, minlength=size)
    out = np.full(size, np.inf)
    np.minimum.at(out, index, values)
    return out


def chain_answer(tables, sizes, var, agg, where=None):
    """``select var, agg(measure) from invest [where v = code] group by var``.

    ``tables`` maps a table name to ``(columns, measure)`` with int code
    columns; ``sizes`` maps a variable to its domain size.
    """
    where = where or {}

    def rows(table, names):
        columns, measure = tables[table]
        keep = np.ones(len(measure), dtype=bool)
        for name in names:
            if name in where:
                keep &= columns[name] == where[name]
        return [columns[name][keep] for name in names], measure[keep]

    (tid,), overhead = rows("transporters", ("tid",))
    back = np.full(sizes["tid"], 0.0 if agg == "sum" else np.inf)
    back[tid] = overhead
    q = CHAIN.index(var)
    for i in range(len(LINKS) - 1, q - 1, -1):
        (a, b), f = rows(LINKS[i], CHAIN[i:i + 2])
        back = _reduce(agg, sizes[CHAIN[i]], a, f * back[b])
    ahead = np.ones(sizes[CHAIN[0]])
    for i in range(q):
        (a, b), f = rows(LINKS[i], CHAIN[i:i + 2])
        ahead = _reduce(agg, sizes[CHAIN[i + 1]], b, f * ahead[a])
    return ahead * back


def dense_answer(factors, var, reduce="sum", evidence=None):
    """Eliminate every variable but ``var`` from dense ``(scope, table)``
    factors; ``evidence`` (``{name: code}``) slices tables first."""
    evidence = evidence or {}
    work = []
    for scope, table in factors:
        index = tuple(evidence.get(name, slice(None)) for name in scope)
        kept = tuple(name for name in scope if name not in evidence)
        work.append((kept, np.asarray(table)[index]))
    letters = {}
    for scope, _ in work:
        for name in scope:
            letters.setdefault(name, chr(ord("a") + len(letters)))

    def spelled(scope):
        return "".join(letters[name] for name in scope)

    hidden = set(letters) - {var}
    while hidden:
        def joined_scope(name):
            return sorted({v for s, _ in work if name in s for v in s})

        name = min(sorted(hidden), key=lambda h: len(joined_scope(h)))
        scope = joined_scope(name)
        touching = [(s, t) for s, t in work if name in s]
        spec = ",".join(spelled(s) for s, _ in touching) + "->" + spelled(scope)
        joined = np.einsum(spec, *(t for _, t in touching))
        axis = scope.index(name)
        folded = joined.sum(axis) if reduce == "sum" else joined.max(axis)
        work = [(s, t) for s, t in work if name not in s]
        work.append((tuple(v for v in scope if v != name), folded))
        hidden.discard(name)
    answer = 1.0
    for _, table in work:
        answer = answer * table
    return np.asarray(answer, dtype=float)


def joint_enumeration(factors, order):
    """The full joint tensor over ``order`` by broadcasting (exponential)."""
    joint = np.ones(())
    for scope, table in factors:
        axes = sorted(range(len(scope)), key=lambda i: order.index(scope[i]))
        shape = [1] * len(order)
        for i in axes:
            shape[order.index(scope[i])] = np.shape(table)[i]
        joint = joint * np.transpose(table, axes).reshape(shape)
    return joint


def fingerprint(measure) -> tuple[int, float, float]:
    """``(ntuples, measure-sum, measure-sum-of-squares)`` of an answer."""
    measure = np.asarray(measure, dtype=float)
    return len(measure), float(measure.sum()), float((measure * measure).sum())


def expected_fingerprint(answer, agg="sum"):
    """Fingerprint of a dense reference vector's supported entries."""
    identity = np.inf if agg == "min" else 0.0
    return fingerprint(answer[answer != identity])


def same(got, want) -> bool:
    """Fingerprints agree: equal counts, sums within :data:`RTOL`."""
    return got[0] == want[0] and bool(
        np.allclose(got[1:], want[1:], rtol=RTOL, atol=0.0)
    )
