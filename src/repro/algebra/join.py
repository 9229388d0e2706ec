"""The product join (Definition 2).

``s1 ⋈* s2`` joins two functional relations on their shared variables
and multiplies their measures in the semiring:

    s1 ⋈* s2 = π_{Var(s1) ∪ Var(s2), s1[f] * s2[f]} (s1 ⋈ s2)

Measure attributes never participate in the join condition, and the
result is itself a functional relation.  With no shared variables the
product join degenerates to a cross product (required when an MPF view
joins disconnected components).

The implementation is a vectorized build-probe join with no
Python-level per-row loop, and the match is computed once, at the call.
The right side's keys are grouped through the group-index cache.  When
one side's keys are unique and dense — the functional / foreign-key
joins chain and star views are made of — that side is the *build* side
and every row of the other, the *probe* side, finds its at most one
partner by a direct-address lookup in a table over the key span, linear
in the rows.  The right side builds whenever its keys qualify.  The
left side builds instead when it is the smaller one, the probe side is
large enough to be worth a second look (:data:`DEFER_MIN_ROWS`), and at
least one probe row in :data:`PROBE_KEEP_FACTOR` finds a partner — a
count the right side's index gives without touching its rows; below
that fraction, walking every probe row costs more than expanding the
few matching runs.  Otherwise each left key locates its run of equal
right keys by binary search and the matching index pairs are
materialized with ``repeat``/``arange`` arithmetic.

**Row order.**  A join with a build side emits its rows in ascending
*probe*-row order; a run-expanding join and a cross product emit them
left-major (ascending left row, then ascending right row).  The two
rules coincide whenever the left side probes.  Which rule applies is a
function of the two inputs alone.

**Late materialization.**  A large join with a build side returns a
relation whose measure is computed (so errors surface at the call) but
whose columns are gathered one at a time, on first access: ``ntuples``,
``arity``, ``var_names`` and ``fingerprint`` never touch them, a fully
matched probe side's columns pass through as read-only views, and a
join over such a relation reads only its key columns and composes the
row indices of its inputs instead of gathering them.  A GroupBy over it
(:func:`repro.algebra.aggregate.marginalize`) aggregates on the rows
of the input that holds the group variables, never gathering the
join's.  The materialized form
lists the same rows in the same order, so nothing downstream can tell
which happened.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from repro.algebra import dense
from repro.algebra.groupindex import GroupIndex, GroupIndexCache, group_index
from repro.data.encoding import (
    _fits_mixed_radix,
    _mixed_radix,
    encode_rows_pair,
    is_dense_span,
)
from repro.data.relation import FunctionalRelation
from repro.semiring.base import Semiring

__all__ = ["product_join", "quotient_join"]

# A probe side is worth keeping whole — walked row by row through a
# direct-address table, its columns passed through, a GroupBy over it
# fused — when at least one of its rows in PROBE_KEEP_FACTOR finds a
# partner.  Fixed by the ``join_groupby`` table of
# benchmarks/bench_kernels.py (copy in EXPERIMENTS.md, "Aggregate
# through the join"): at half the rows keeping is 1.5-3x ahead when the
# probe side's group index is cached and at worst 1.4x behind when it
# must be built; at a quarter it is behind by more than it is ahead.
PROBE_KEEP_FACTOR = 2

# Below this many probe rows a join runs exactly as it did before late
# materialization existed: the left side probes, the output is built at
# once.  Up to a few thousand rows the two ways are within tens of
# microseconds of each other (same table), so small joins keep the row
# order and the cache traffic they always had.
DEFER_MIN_ROWS = 4096


def _match_indices(
    left: FunctionalRelation,
    right: FunctionalRelation,
    shared_names: tuple[str, ...],
    cache: GroupIndexCache | None,
    either_side_probes: bool = False,
) -> tuple[np.ndarray | None, np.ndarray | None, FunctionalRelation | None]:
    """``(i_left, i_right, probe)``: the matching pairs and which input,
    if any, was probed against the other's unique keys.

    ``None`` for the probe side's indices stands for ``arange`` — every
    probe row matched — so the caller can pass that side's arrays
    through instead of gathering.  Without ``either_side_probes`` only
    the left side ever probes, which keeps the pairs left-major:
    ascending left row, and within one left row ascending right row.

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
    n_left, n_right = left.ntuples, right.ntuples
    if not shared_names:
        # Cross product.
        i_left = np.repeat(np.arange(n_left, dtype=np.int64), n_right)
        i_right = np.tile(np.arange(n_right, dtype=np.int64), n_left)
        return i_left, i_right, None
    sizes = tuple(left.variables[n].size for n in shared_names)
    right_sizes = tuple(right.variables[n].size for n in shared_names)
    if _fits_mixed_radix(sizes) and right_sizes == sizes:
        left_keys = _mixed_radix(
            [left.columns[n] for n in shared_names], sizes
        )
        gidx = group_index(right, shared_names, cache=cache)
        if gidx.n_groups == n_right and n_right:
            span = _dense_unique_span(gidx, max(n_left, n_right))
            if span is not None:
                i_left, partner = _direct_address_probe(
                    left_keys, gidx, *span
                )
                return i_left, partner, left
        # Each left key's run of equal right keys: their lengths decide
        # whether the left side may build instead.
        lo, counts = _runs(left_keys, gidx, n_right)
        if (
            either_side_probes
            and n_left < n_right
            and n_right >= DEFER_MIN_ROWS
            and int(counts.sum()) * PROBE_KEEP_FACTOR >= n_right
        ):
            # Enough right rows match: see whether the smaller left
            # side can build instead.
            build = group_index(left, shared_names, cache=cache)
            if build.n_groups == n_left:
                span = _dense_unique_span(build, n_right)
                if span is not None:
                    right_keys = _mixed_radix(
                        [right.columns[n] for n in shared_names], sizes
                    )
                    i_right, partner = _direct_address_probe(
                        right_keys, build, *span
                    )
                    return partner, i_right, right
        order = gidx.order
    else:
        left_keys, right_keys = encode_rows_pair(
            [left.columns[n] for n in shared_names],
            [right.columns[n] for n in shared_names],
            sizes,
        )
        order = np.argsort(right_keys, kind="stable")
        sorted_keys = right_keys[order]
        lo = np.searchsorted(sorted_keys, left_keys, side="left")
        counts = np.searchsorted(sorted_keys, left_keys, side="right") - lo
    total = int(counts.sum())
    i_left = np.repeat(np.arange(n_left, dtype=np.int64), counts)
    if total == 0:
        return i_left, np.empty(0, dtype=np.int64), None
    run_starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - run_starts
    i_right = order[np.repeat(lo, counts) + offsets]
    return i_left, i_right, None


def _runs(
    keys: np.ndarray, gidx: GroupIndex, n_rows: int
) -> tuple[np.ndarray, np.ndarray]:
    """``(lo, counts)``: where each key's run of equal keys starts in
    ``gidx.order``, and its length — 0 when the key is absent.

    Looked up in tables over the index's key span when building them
    costs less than a binary search per key, searched otherwise.
    """
    n_groups = gidx.n_groups
    if not n_groups:
        zeros = np.zeros(len(keys), dtype=np.int64)
        return zeros, zeros
    lengths = np.diff(gidx.starts, append=n_rows)
    low = int(gidx.unique_keys[0])
    span = int(gidx.unique_keys[-1]) - low + 1
    if span + n_groups <= len(keys) * n_groups.bit_length():
        # Slot k + 1 describes key low + k; the end slots, where keys
        # outside the span are clipped, describe no run.
        slots = gidx.unique_keys - (low - 1)
        at = np.clip(keys - (low - 1), 0, span + 1)
        table = np.zeros(span + 2, dtype=np.int64)
        table[slots] = lengths
        counts = table[at]
        table[slots] = gidx.starts
        return table[at], counts
    pos = np.searchsorted(gidx.unique_keys, keys)
    np.minimum(pos, n_groups - 1, out=pos)
    counts = lengths[pos]
    counts[gidx.unique_keys[pos] != keys] = 0
    return gidx.starts[pos], counts


def _dense_unique_span(gidx: GroupIndex, rows: int) -> tuple[int, int] | None:
    """``(low, span)`` of unique build keys when a table over their span
    is no more than linear in the ``rows`` the join touches anyway."""
    low = int(gidx.unique_keys[0])
    span = int(gidx.unique_keys[-1]) - low + 1
    return (low, span) if is_dense_span(span, rows) else None


def _direct_address_probe(
    probe_keys: np.ndarray, gidx: GroupIndex, low: int, span: int
) -> tuple[np.ndarray | None, np.ndarray]:
    """Probe unique, dense build keys through a table over their span.

    The functional / foreign-key join that chain and star views are
    made of: each probe row has at most one partner, so one ``take``
    replaces the binary search and the run expansion.  Slot ``k`` of
    the table holds the build row whose key is ``k - base``; the end
    slot stays ``-1`` and catches, by clipping, every probe key above
    the build side's span.  Keys are codes, never negative, so when
    the span starts near zero the table starts at zero (``base = 0``)
    and the probe keys index it as they are; otherwise a ``-1`` slot
    below the span catches the keys under it.  Returns ``(i_probe,
    partner)`` in ascending probe-row order, ``i_probe=None`` when
    every probe row matched.
    """
    base = 0 if low <= span else low - 1
    if base:
        probe_keys = probe_keys - base
    table = np.full(low + span + 1 - base, -1, dtype=np.int64)
    table[gidx.unique_keys - base] = gidx.first_idx
    partner = table.take(probe_keys, mode="clip")
    matched = partner >= 0
    if matched.all():
        return None, partner
    i_probe = np.flatnonzero(matched)
    return i_probe, partner[i_probe]


class _DeferredJoin(FunctionalRelation):
    """A join result whose columns are gathered on first access.

    Every output row is one row of each of its ``sources`` — ``(input,
    rows)`` pairs, ``rows`` the input's row of every output row, or
    ``None`` for all of them in order.  The first source is the probe
    side, its rows ascending; the others were probed, one partner row
    each.  A join over a deferred join composes its sources instead of
    gathering them, so the inputs are always plain relations and a
    chain of joins is still one probe relation plus its partners.

    The measure is computed by the join; each column is gathered when
    first read (:class:`_GatheredColumns`) and holds what a plain
    relation built from the same indices would, so every inherited
    method works unchanged and returns plain relations.  Built only by
    :func:`_combined_join`, from validated inputs, which is why it
    skips the public constructor's checks.
    """

    __slots__ = ("_columns", "sources")

    def __init__(self, variables, measure, name, sources):
        self._init(variables, np.asarray(measure), name, "f")
        # Never held dense: checking would gather every column.
        self._dense = None
        self.sources = sources
        self._columns = None

    @property
    def columns(self) -> "_GatheredColumns":
        if self._columns is None:
            self._columns = _GatheredColumns(self.variables, self.sources)
        return self._columns


class _GatheredColumns(Mapping):
    """A deferred join's columns, each gathered from its source on
    first read: a join over it, or a GroupBy on a few variables, never
    touches the others."""

    __slots__ = ("_owner", "_done")

    def __init__(self, variables, sources):
        self._owner = {}
        for v in variables:
            self._owner[v.name] = next(
                (relation, rows) for relation, rows in sources
                if v.name in relation.variables
            )
        self._done: dict[str, np.ndarray] = {}

    def __getitem__(self, name: str) -> np.ndarray:
        column = self._done.get(name)
        if column is None:
            relation, rows = self._owner[name]
            column = self._done[name] = _gather(relation, name, rows)
        return column

    def __iter__(self):
        return iter(self._owner)

    def __len__(self) -> int:
        return len(self._owner)


def _gather(relation, name, rows):
    """``relation``'s column ``name`` at ``rows`` (all of it, ungathered,
    when ``None``)."""
    if rows is not None:
        return relation.columns[name][rows]
    # Relations are immutable, so the output may share the input's
    # columns (as with_measure does); a read-only view keeps a careless
    # writer from reaching the input through the output.
    column = relation.columns[name].view()
    column.flags.writeable = False
    return column


def _gather_columns(variables, probe, i_probe, other, i_other):
    """Output columns of a join: ``probe`` rows ``i_probe`` (all of
    them, ungathered, when ``None``) beside ``other`` rows ``i_other``."""
    return {
        v.name: _gather(probe, v.name, i_probe) if v.name in probe.variables
        else other.columns[v.name][i_other]
        for v in variables
    }


def _sources(relation, rows):
    """``relation`` at ``rows`` as deferred-join sources, composing the
    sources of a relation that is itself deferred."""
    if not isinstance(relation, _DeferredJoin):
        return ((relation, rows),)
    if rows is None:
        return relation.sources
    return tuple(
        (source, rows if inner is None else inner[rows])
        for source, inner in relation.sources
    )


def _combined_join(
    left: FunctionalRelation,
    right: FunctionalRelation,
    semiring: Semiring,
    combine,
    name: str | None,
) -> FunctionalRelation:
    joined = dense.join(left, right, semiring, combine, name)
    if joined is not None:
        return joined
    shared = left.variables.intersect(right.variables)
    out_vars = left.variables.union(right.variables)
    i_left, i_right, probe = _match_indices(
        left, right, shared.names, None, either_side_probes=True
    )
    measure = combine(
        left.measure if i_left is None else left.measure[i_left],
        right.measure if i_right is None else right.measure[i_right],
    )
    if probe is not None and probe.ntuples >= DEFER_MIN_ROWS:
        sides = ((left, i_left), (right, i_right))
        if probe is right:
            sides = sides[::-1]
        return _DeferredJoin(
            out_vars, measure, name,
            _sources(*sides[0]) + _sources(*sides[1]),
        )
    columns = _gather_columns(out_vars, left, i_left, right, i_right)
    return FunctionalRelation._trusted(out_vars, columns, measure, name=name)


def _sharded_join(left, right, combine, name, left_offsets, right_offsets):
    """Join two inputs co-partitioned shard-major on a shared variable.

    Matching rows share the partitioning key, hence the shard, so one
    match over the whole inputs pairs every shard's rows with its own
    partners, left-major: shard after shard, each shard's pairs in the
    order a join of its two slices would list them when the left side
    probes.  Where that slice join would have probed with the right
    side instead (a big, mostly matched right slice against unique,
    dense left keys), the shard's pairs are put in right-row order.
    The result is materialized unless every shard's slice join would
    have deferred its columns the same way.  So each shard's rows are,
    byte for byte and in order, the join of its slices, whatever the
    sizes of the others.
    """
    shared = left.variables.intersect(right.variables).names
    out_vars = left.variables.union(right.variables)
    i_left, i_right, _ = _match_indices(left, right, shared, None)
    rows = np.arange(left.ntuples) if i_left is None else i_left
    offsets = np.searchsorted(rows, left_offsets)
    n_left, n_right = np.diff(left_offsets), np.diff(right_offsets)
    probes = None
    if max(n_left.max(initial=0), n_right.max(initial=0)) >= DEFER_MIN_ROWS:
        probes = _slice_probes(
            left, right, shared, left_offsets, right_offsets,
            np.diff(offsets),
        )
        # The match's index arrays are its own: reorder them in place.
        # A swapped slice's left keys are unique, so each right row has
        # one pair at most: placing the pairs at their right rows sorts
        # them.
        for shard in np.flatnonzero(probes == _RIGHT):
            part = slice(offsets[shard], offsets[shard + 1])
            pairs, low = i_right[part], right_offsets[shard]
            slot = np.full(right_offsets[shard + 1] - low, -1)
            slot[pairs - low] = np.arange(len(pairs))
            order = slot[slot >= 0]
            rows[part] = rows[part][order]
            i_right[part] = i_right[part][order]
            i_left = rows
    measure = combine(
        left.measure if i_left is None else left.measure[i_left],
        right.measure[i_right],
    )
    probe = _deferred_probe(probes, n_left, n_right)
    if probe == _LEFT:
        sources = _sources(left, _all_or(rows, left)) + _sources(right, i_right)
    elif probe == _RIGHT:
        sources = _sources(right, _all_or(i_right, right)) + _sources(left, rows)
    else:
        columns = _gather_columns(out_vars, left, i_left, right, i_right)
        result = FunctionalRelation._trusted(
            out_vars, columns, measure, name=name
        )
        return result, offsets
    return _DeferredJoin(out_vars, measure, name, sources), offsets


# Which input a join of two shard slices probes with.
_NEITHER, _LEFT, _RIGHT = 0, 1, 2


def _slice_probes(left, right, shared, left_offsets, right_offsets, matched):
    """Per shard, the side :func:`_match_indices` would probe with on
    that shard's two slices alone (``either_side_probes``): the same
    decisions, read off the whole inputs' group indices."""
    probes = np.zeros(len(left_offsets) - 1, dtype=np.int64)
    sizes = tuple(left.variables[n].size for n in shared)
    right_sizes = tuple(right.variables[n].size for n in shared)
    if not (_fits_mixed_radix(sizes) and right_sizes == sizes):
        return probes
    n_left, n_right = np.diff(left_offsets), np.diff(right_offsets)
    groups, span = _slice_groups(
        group_index(right, shared), right_offsets
    )
    probes[
        (n_right > 0) & (groups == n_right)
        & is_dense_span(span, np.maximum(n_left, n_right))
    ] = _LEFT
    swap = (
        (probes == _NEITHER) & (n_left < n_right)
        & (n_right >= DEFER_MIN_ROWS)
        & (matched * PROBE_KEEP_FACTOR >= n_right)
    )
    if swap.any():
        groups, span = _slice_groups(
            group_index(left, shared), left_offsets
        )
        probes[swap & (groups == n_left) & is_dense_span(span, n_right)] = (
            _RIGHT
        )
    return probes


def _slice_groups(gidx, offsets):
    """Per shard: how many distinct keys its slice holds, and their span.

    A group's rows share the partitioning key, so its first row names
    its shard."""
    n_shards = len(offsets) - 1
    shard = np.searchsorted(offsets, gidx.first_idx, side="right") - 1
    groups = np.bincount(shard, minlength=n_shards)
    low = np.full(n_shards, np.iinfo(np.int64).max)
    high = np.zeros(n_shards, dtype=np.int64)
    np.minimum.at(low, shard, gidx.unique_keys)
    np.maximum.at(high, shard, gidx.unique_keys)
    span = np.where(groups > 0, high - np.minimum(low, high) + 1, 0)
    return groups, span


def _deferred_probe(probes, n_left, n_right):
    """The side every shard's slice join would have probed with *and*
    deferred on, or :data:`_NEITHER` when they were not all alike."""
    if probes is None or not len(probes):
        return _NEITHER
    side = int(probes[0])
    if side == _NEITHER or (probes != side).any():
        return _NEITHER
    probe_rows = n_left if side == _LEFT else n_right
    return side if (probe_rows >= DEFER_MIN_ROWS).all() else _NEITHER


def _all_or(rows, relation):
    """``None`` for a probe side whose every row matched, in order."""
    return None if len(rows) == relation.ntuples else rows


def product_join(
    left: FunctionalRelation,
    right: FunctionalRelation,
    semiring: Semiring,
    name: str | None = None,
    shards: tuple[np.ndarray, np.ndarray] | None = None,
):
    """``left ⋈* right`` with measures combined by ``semiring.times``.

    ``shards=(left_offsets, right_offsets)`` joins two inputs held
    shard-major and co-partitioned on a shared variable, and makes the
    result ``(relation, offsets)``: shard-major too, each shard's rows
    exactly those of joining its two slices alone with the sparse
    kernels (see :func:`_sharded_join`); a sharded call never runs
    dense.
    """
    if shards is not None:
        return _sharded_join(left, right, semiring.times, name, *shards)
    return _combined_join(left, right, semiring, semiring.times, name)


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
    return _combined_join(left, right, semiring, semiring.divide, name)
