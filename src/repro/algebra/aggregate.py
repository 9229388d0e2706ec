"""Marginalization: the GroupBy / additive-aggregate operator.

The MPF problem (Definition 3) computes

    π_{X, AGG(r[f])} GroupBy_X (r)

where ``AGG`` is the semiring's additive operation.  Marginalizing is
"summing out" the variables not in ``X``.  Grouping on all variables is
the identity; grouping on none reduces the relation to a single total.

Proposition 1 of the paper shows that when a variable is not needed to
determine the measure (it is outside every base relation's determining
FD), marginalizing it out equals plain duplicate-eliminating projection
— :func:`project_fd` implements that cheaper path.

Both are one pass over a :class:`~repro.algebra.groupindex.GroupIndex`:
the aggregate is a scatter by the row→group inverse, linear in the
rows (``benchmarks/bench_kernels.py``'s ``kernels_aggregate`` table: a
segment ``reduceat`` over the sorted order wins only at a couple of
groups, or for ``or`` by ~0.1 ms on 2e5 rows, and loses up to sixfold
elsewhere).  Building the index is linear too when the group keys are
dense — counting instead of sorting — so a GroupBy over coded variables
costs ``O(n)`` wall time, not the ``n log n`` the simulated clock still
charges a cold one.

**Aggregating through a join.**  The elimination step of VE is "join
the relations that mention X, then GroupBy X away".  When the join kept
its inputs' rows (:mod:`repro.algebra.join`) and every group variable
lives in one input, the GroupBy never gathers the join's columns, over
a chain of joins as over one: each output row of the join *is* one row
of that input, so the input's own group index — a cache hit for a base
table on every query after the first — already says which group each
row falls in.  The measures are scattered by those group ids and the
groups no row fell in are dropped.  The join lists its rows in the
order the materialized join would and a scatter folds each group's
terms in row order (:meth:`~repro.semiring.base.Semiring
.aggregate`), so the fused GroupBy adds each group's terms in exactly
the sequence :func:`marginalize` would on the materialized join: the
two are bit-identical on every semiring, and which one ran is a cost
decision nothing downstream can observe.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.algebra import dense
from repro.algebra.groupindex import GroupIndexCache, group_index
from repro.algebra.join import PROBE_KEEP_FACTOR, _DeferredJoin
from repro.data.relation import FunctionalRelation
from repro.errors import FunctionalDependencyError, SchemaError
from repro.semiring.base import Semiring

__all__ = ["marginalize", "total", "project_fd"]


def marginalize(
    relation: FunctionalRelation,
    group_names: Sequence[str],
    semiring: Semiring,
    name: str | None = None,
    cache: GroupIndexCache | None = None,
    shards: np.ndarray | None = None,
):
    """GroupBy ``group_names`` aggregating the measure with ``plus``.

    The result contains one row per distinct combination of the group
    variables present in the input (lexicographically ordered), so it
    is a functional relation by construction.

    The group structure (first occurrences / inverse) comes from the
    group-index cache: a repeat marginalization over the same relation
    instance and key set skips the index build entirely.
    ``cache=None`` uses the process-wide default cache.

    A deferred join's rows are rows of its inputs: when one input holds
    every group variable and enough of its rows matched that indexing
    all of them is no worse than indexing the matches
    (:data:`~repro.algebra.join.PROBE_KEEP_FACTOR`), the measures are
    scattered on that input's own, cacheable group index and the join's
    columns are never gathered.  The result is the same either way.

    ``shards`` — the row offsets of a shard-major ``relation`` — groups
    by (shard, group) in one scatter and makes the result ``(partials,
    offsets)``: each shard's groups in key order, shard after shard,
    every measure folded in row order — the bytes of marginalizing each
    shard on its own with the sparse kernels and stacking the results.
    A sharded call never runs dense, so a grid-complete shard's answer
    may differ from the dense one in row order and, on float sums, in
    the last place.  Grouping on nothing
    gives one row per shard, empty shards included.
    """
    group_names = tuple(group_names)
    unknown = set(group_names) - set(relation.var_names)
    if unknown:
        raise SchemaError(
            f"cannot group by unknown variables {sorted(unknown)}; "
            f"relation has {relation.var_names}"
        )
    out_vars = relation.variables.subset(group_names)
    if shards is not None:
        return _marginalize_shards(
            relation, out_vars, semiring, name, cache, shards
        )
    folded = dense.marginalize(relation, out_vars, semiring, name)
    if folded is not None:
        return folded
    if not group_names:
        return FunctionalRelation._trusted(
            out_vars,
            {},
            np.asarray([semiring.reduce(relation.measure)], dtype=semiring.dtype),
            name=name,
        )
    # Note: grouping on *all* variables is usually the identity (the FD
    # makes every row its own group), but callers may deliberately feed
    # a key-colliding relation to plus-merge duplicates (alter_domain's
    # transfer semantics), so the general path runs unconditionally.
    return _aggregate(
        *_group_rows(relation, group_names), relation.measure, out_vars,
        semiring, name, cache,
    )


def _group_rows(relation, group_names):
    """``(source, rows)``: whose group index to aggregate on.

    A deferred join's input that holds every group variable, at the
    join's rows, when enough of its rows matched; otherwise the
    relation itself (``rows=None``).
    """
    if isinstance(relation, _DeferredJoin):
        for source, rows in relation.sources:
            if all(n in source.variables for n in group_names) and (
                rows is None
                or len(rows) * PROBE_KEEP_FACTOR >= source.ntuples
            ):
                return source, rows
    return relation, None


def _marginalize_shards(relation, out_vars, semiring, name, cache, shards):
    """Per-(shard, group) aggregates of a shard-major relation, and the
    offsets of each shard's groups among them."""
    n_shards = len(shards) - 1
    shard_of_row = np.repeat(
        np.arange(n_shards, dtype=np.int64), np.diff(shards)
    )
    if not out_vars.names:
        measure = semiring.aggregate(relation.measure, shard_of_row, n_shards)
        partials = FunctionalRelation._trusted(
            out_vars, {}, measure, name=name
        )
        return partials, np.arange(n_shards + 1, dtype=np.int64)
    source, rows = _group_rows(relation, out_vars.names)
    gidx = group_index(source, out_vars.names, cache=cache)
    ids = gidx.inverse if rows is None else gidx.inverse[rows]
    slots = n_shards * gidx.n_groups
    ids = shard_of_row * gidx.n_groups + ids
    occupied = np.flatnonzero(np.bincount(ids, minlength=slots))
    measure = semiring.aggregate(relation.measure, ids, slots)[occupied]
    first_rows = gidx.first_idx[occupied % max(gidx.n_groups, 1)]
    columns = {n: source.columns[n][first_rows] for n in out_vars.names}
    partials = FunctionalRelation._trusted(
        out_vars, columns, measure, name=name
    )
    bounds = np.arange(n_shards + 1, dtype=np.int64) * gidx.n_groups
    return partials, np.searchsorted(occupied, bounds)


def _aggregate(source, rows, measure, out_vars, semiring, name, cache):
    """Aggregate ``measure`` — one value per ``source`` row at
    ``rows``, every row in order when ``None`` — by the groups of
    ``source``'s ``out_vars`` columns."""
    gidx = group_index(source, out_vars.names, cache=cache)
    if rows is None:
        first_rows = gidx.first_idx
        measure = semiring.aggregate(measure, gidx.inverse, gidx.n_groups)
    else:
        # Scatter the measures by their rows' group ids — in row order,
        # as over the materialized join — and keep the groups that got
        # one.  Any row of a group carries its key.
        ids = gidx.inverse[rows]
        occupied = np.flatnonzero(np.bincount(ids, minlength=gidx.n_groups))
        first_rows = gidx.first_idx[occupied]
        measure = semiring.aggregate(measure, ids, gidx.n_groups)[occupied]
    columns = {n: source.columns[n][first_rows] for n in out_vars.names}
    return FunctionalRelation._trusted(out_vars, columns, measure, name=name)


def total(relation: FunctionalRelation, semiring: Semiring):
    """The measure of the whole function: marginalize everything out."""
    return semiring.reduce(relation.measure)


def project_fd(
    relation: FunctionalRelation,
    group_names: Sequence[str],
    name: str | None = None,
    cache: GroupIndexCache | None = None,
) -> FunctionalRelation:
    """Duplicate-eliminating projection (Proposition 1 fast path).

    Valid only when the FD ``group_names -> f`` holds on the input, i.e.
    every group has a single measure value; we verify this cheaply and
    raise if the precondition fails, because silently projecting would
    corrupt measures.
    """
    group_names = tuple(group_names)
    out_vars = relation.variables.subset(group_names)
    gidx = group_index(relation, out_vars.names, cache=cache)
    if gidx.n_groups != relation.ntuples:
        # Duplicate keys: the projection is only valid when every
        # duplicate carries the same measure (one value per group).
        spread = relation.measure[gidx.first_idx][gidx.inverse]
        bad = np.flatnonzero(spread != relation.measure)
        if len(bad):
            i = int(gidx.first_idx[gidx.inverse[bad[0]]])
            j = int(bad[0])
            row = {n: int(relation.columns[n][j]) for n in out_vars.names}
            raise FunctionalDependencyError(
                f"project_fd precondition violated: FD "
                f"{group_names} -> {relation.measure_name} does not hold "
                f"(rows {i} and {j} share group {row} with measures "
                f"{relation.measure[i]!r} and {relation.measure[j]!r})"
            )
    columns = {
        n: relation.columns[n][gidx.first_idx] for n in out_vars.names
    }
    projected = FunctionalRelation(
        out_vars,
        columns,
        relation.measure[gidx.first_idx],
        name=name,
        check_fd=False,
    )
    return projected
