"""The product join (Definition 2).

``s1 ⋈* s2`` joins two functional relations on their shared variables
and multiplies their measures in the semiring:

    s1 ⋈* s2 = π_{Var(s1) ∪ Var(s2), s1[f] * s2[f]} (s1 ⋈ s2)

Measure attributes never participate in the join condition, and the
result is itself a functional relation.  With no shared variables the
product join degenerates to a cross product (required when an MPF view
joins disconnected components).

The implementation is a vectorized build-probe join with no
Python-level per-row loop.  The right (build) side's keys are grouped
once through the group-index cache.  When they are unique and dense —
the functional / foreign-key joins chain and star views are made of —
each left (probe) key finds its one partner by a direct-address lookup
in a table over the key span, linear in the rows; and when every probe
row matches, the left columns pass through to the output without a
gather.  Otherwise each probe key locates its run of equal build keys
by binary search and the matching index pairs are materialized with
``repeat``/``arange`` arithmetic.  Output rows are left-major on either
path, so the two agree bit for bit.
"""

from __future__ import annotations

import numpy as np

from repro.algebra.groupindex import GroupIndex, GroupIndexCache, group_index
from repro.data.encoding import (
    _fits_mixed_radix,
    _mixed_radix,
    encode_rows_pair,
    is_dense_span,
)
from repro.data.relation import FunctionalRelation
from repro.semiring.base import Semiring

__all__ = ["product_join", "quotient_join", "join_match_indices"]


def join_match_indices(
    left: FunctionalRelation,
    right: FunctionalRelation,
    shared_names: tuple[str, ...],
    cache: GroupIndexCache | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """All matching row-index pairs ``(i_left, i_right)`` on shared keys.

    Pairs come left-major: ascending left row, and within one left row
    ascending right row.

    On the mixed-radix key path the build (right) side's group
    structure comes from the group-index cache: each side's pair keys
    equal its own ``key_codes`` there (shared variables have one
    domain), so an index built by an earlier join or marginalization
    over the same relation and key set is reused.  When the build keys
    are unique and dense the probe is one direct-address table lookup;
    otherwise each probe key finds its run by binary search.  The
    ``np.unique`` fallback for oversized key spaces keys the two sides
    jointly and stays uncached.
    """
    i_left, i_right = _match_indices(left, right, shared_names, cache)
    if i_left is None:
        i_left = np.arange(left.ntuples, dtype=np.int64)
    return i_left, i_right


def _match_indices(
    left: FunctionalRelation,
    right: FunctionalRelation,
    shared_names: tuple[str, ...],
    cache: GroupIndexCache | None,
) -> tuple[np.ndarray | None, np.ndarray]:
    """:func:`join_match_indices`, with ``i_left=None`` standing for
    ``arange(left.ntuples)`` — every left row matched exactly once, so
    the caller can pass left's arrays through instead of gathering."""
    n_left, n_right = left.ntuples, right.ntuples
    if not shared_names:
        # Cross product.
        i_left = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
        i_right = np.tile(np.arange(n_right, dtype=np.int64), n_left)
        return i_left, i_right
    sizes = tuple(left.variables[n].size for n in shared_names)
    right_sizes = tuple(right.variables[n].size for n in shared_names)
    if _fits_mixed_radix(sizes) and right_sizes == sizes:
        left_keys = _mixed_radix(
            [left.columns[n] for n in shared_names], sizes
        )
        gidx = group_index(right, shared_names, cache=cache)
        if gidx.n_groups == n_right and n_right:
            # Unique build keys; dense when a table over their span is
            # no more than linear in the rows this join touches anyway.
            low = int(gidx.unique_keys[0])
            span = int(gidx.unique_keys[-1]) - low + 1
            if is_dense_span(span, max(n_left, n_right)):
                return _direct_address_probe(left_keys, gidx, low, span)
        order = gidx.order
        # Locate each probe key's run via the distinct sorted keys:
        # starts[j]..starts[j+1] is exactly the searchsorted lo..hi
        # over the full sorted key column.
        starts_ext = np.concatenate(
            (gidx.starts, np.asarray([n_right], dtype=np.int64))
        )
        pos = np.searchsorted(gidx.unique_keys, left_keys, side="left")
        found = pos < gidx.n_groups
        matched = np.zeros(n_left, dtype=bool)
        matched[found] = gidx.unique_keys[pos[found]] == left_keys[found]
        lo = np.where(matched, starts_ext[np.minimum(pos, gidx.n_groups)], 0)
        hi = np.where(
            matched, starts_ext[np.minimum(pos + 1, gidx.n_groups)], 0
        )
    else:
        left_keys, right_keys = encode_rows_pair(
            [left.columns[n] for n in shared_names],
            [right.columns[n] for n in shared_names],
            sizes,
        )
        order = np.argsort(right_keys, kind="stable")
        sorted_keys = right_keys[order]
        lo = np.searchsorted(sorted_keys, left_keys, side="left")
        hi = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    i_left = np.repeat(np.arange(n_left, dtype=np.int64), counts)
    if total == 0:
        return i_left, np.empty(0, dtype=np.int64)
    run_starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - run_starts
    i_right = order[np.repeat(lo, counts) + offsets]
    return i_left, i_right


def _direct_address_probe(
    left_keys: np.ndarray, gidx: GroupIndex, low: int, span: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Probe unique, dense build keys through a table over their span.

    The functional / foreign-key join that chain and star views are
    made of: each probe row has at most one partner, so one ``take``
    replaces the binary search and the run expansion.  Slot ``k + 1``
    holds the build row whose key is ``low + k``; the two end slots
    stay ``-1`` and catch, by clipping, every probe key outside the
    build side's span.
    """
    table = np.full(span + 2, -1, dtype=np.int64)
    table[gidx.unique_keys - (low - 1)] = gidx.first_idx
    partner = table.take(left_keys - (low - 1), mode="clip")
    matched = partner >= 0
    if matched.all():
        return None, partner
    i_left = np.flatnonzero(matched)
    return i_left, partner[i_left]


def _combined_join(
    left: FunctionalRelation,
    right: FunctionalRelation,
    combine,
    name: str | None,
) -> FunctionalRelation:
    shared = left.variables.intersect(right.variables)
    out_vars = left.variables.union(right.variables)
    i_left, i_right = _match_indices(left, right, shared.names, None)
    columns: dict[str, np.ndarray] = {}
    for v in out_vars:
        if v.name not in left.variables:
            columns[v.name] = right.columns[v.name][i_right]
        elif i_left is None:
            # Relations are immutable, so the output may share left's
            # columns (as with_measure does); a read-only view keeps a
            # careless writer from reaching the input through the output.
            columns[v.name] = left.columns[v.name].view()
            columns[v.name].flags.writeable = False
        else:
            columns[v.name] = left.columns[v.name][i_left]
    left_measure = left.measure if i_left is None else left.measure[i_left]
    measure = combine(left_measure, right.measure[i_right])
    return FunctionalRelation(
        out_vars, columns, measure, name=name, check_fd=False
    )


def product_join(
    left: FunctionalRelation,
    right: FunctionalRelation,
    semiring: Semiring,
    name: str | None = None,
) -> FunctionalRelation:
    """``left ⋈* right`` with measures combined by ``semiring.times``."""
    return _combined_join(left, right, semiring.times, name)


def quotient_join(
    left: FunctionalRelation,
    right: FunctionalRelation,
    semiring: Semiring,
    name: str | None = None,
) -> FunctionalRelation:
    """``left ⋈÷ right``: like the product join but dividing measures.

    Definition 6 uses this inside the update semijoin; it requires the
    semiring to support division.
    """
    return _combined_join(left, right, semiring.divide, name)
