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
whose columns are gathered on first access: ``ntuples``, ``arity``,
``var_names`` and ``fingerprint`` never touch them, and a fully matched
probe side's columns pass through as read-only views.  A GroupBy over
such a relation whose group variables all live on the probe side never
gathers them at all (:mod:`repro.algebra.aggregate`): it aggregates on
the probe relation's own rows.  The materialized form lists the same
rows in the same order, so nothing downstream can tell which happened.
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
from repro.data.relation import _FINGERPRINTS, FunctionalRelation
from repro.semiring.base import Semiring

__all__ = ["product_join", "quotient_join", "join_match_indices"]

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
    i_left, i_right, _ = _match_indices(left, right, shared_names, cache)
    if i_left is None:
        i_left = np.arange(left.ntuples, dtype=np.int64)
    return i_left, i_right


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
    the left side ever probes, which keeps the pairs left-major
    (:func:`join_match_indices`).
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
        gidx = None
        order = np.argsort(right_keys, kind="stable")
        sorted_keys = right_keys[order]
        lo = np.searchsorted(sorted_keys, left_keys, side="left")
        hi = np.searchsorted(sorted_keys, left_keys, side="right")
    counts = hi - lo
    total = int(counts.sum())
    if (
        either_side_probes
        and gidx is not None
        and n_left < n_right
        and n_right >= DEFER_MIN_ROWS
        and total * PROBE_KEEP_FACTOR >= n_right
    ):
        # The right side's runs are known; before expanding them, see
        # whether the smaller left side can build instead.
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
    i_left = np.repeat(np.arange(n_left, dtype=np.int64), counts)
    if total == 0:
        return i_left, np.empty(0, dtype=np.int64), None
    run_starts = np.repeat(np.cumsum(counts) - counts, counts)
    offsets = np.arange(total, dtype=np.int64) - run_starts
    i_right = order[np.repeat(lo, counts) + offsets]
    return i_left, i_right, None


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
    replaces the binary search and the run expansion.  Slot ``k + 1``
    holds the build row whose key is ``low + k``; the two end slots
    stay ``-1`` and catch, by clipping, every probe key outside the
    build side's span.  Returns ``(i_probe, partner)`` in ascending
    probe-row order, ``i_probe=None`` when every probe row matched.
    """
    table = np.full(span + 2, -1, dtype=np.int64)
    table[gidx.unique_keys - (low - 1)] = gidx.first_idx
    partner = table.take(probe_keys - (low - 1), mode="clip")
    i_probe = np.flatnonzero(partner >= 0)
    if len(i_probe) == len(partner):
        return None, partner
    return i_probe, partner[i_probe]


class _DeferredJoin(FunctionalRelation):
    """A join result whose columns are gathered on first access.

    Every output row is one probe row (``i_probe``, ascending; ``None``
    for all of them) with its one build-side partner (``i_build``).  The
    measure is computed by the join; the columns are whatever a plain
    relation built from the same indices would hold, so every inherited
    method works unchanged and returns plain relations.  Built only by
    :func:`_combined_join`, from validated inputs, which is why it
    skips the public constructor's checks.
    """

    __slots__ = ("_columns", "probe", "i_probe", "_build", "_i_build")

    def __init__(
        self, variables, measure, name, probe, i_probe, build, i_build
    ):
        self.variables = variables
        self.measure = np.asarray(measure)
        self.name = name
        self.measure_name = "f"
        self._fingerprint = next(_FINGERPRINTS)
        self._columns = None
        self.probe = probe
        self.i_probe = i_probe
        self._build = build
        self._i_build = i_build

    @property
    def columns(self) -> dict[str, np.ndarray]:
        if self._columns is None:
            self._columns = _gather_columns(
                self.variables, self.probe, self.i_probe,
                self._build, self._i_build,
            )
            # The probe side stays: a GroupBy fuses whether or not
            # anyone has looked at the columns.  The build side is done.
            self._build = self._i_build = None
        return self._columns

    def fuses_group_by(self, group_names: tuple[str, ...]) -> bool:
        """Whether a GroupBy on ``group_names`` can aggregate on the
        probe relation's rows: every group variable lives there, and
        enough probe rows matched that indexing all of them is no worse
        than indexing the matches."""
        return (
            self.ntuples * PROBE_KEEP_FACTOR >= self.probe.ntuples
            and all(n in self.probe.variables for n in group_names)
        )


def _gather_columns(variables, probe, i_probe, other, i_other):
    """Output columns of a join: ``probe`` rows ``i_probe`` (all of
    them, ungathered, when ``None``) beside ``other`` rows ``i_other``."""
    columns: dict[str, np.ndarray] = {}
    for v in variables:
        if v.name not in probe.variables:
            columns[v.name] = other.columns[v.name][i_other]
        elif i_probe is None:
            # Relations are immutable, so the output may share the
            # probe side's columns (as with_measure does); a read-only
            # view keeps a careless writer from reaching the input
            # through the output.
            columns[v.name] = probe.columns[v.name].view()
            columns[v.name].flags.writeable = False
        else:
            columns[v.name] = probe.columns[v.name][i_probe]
    return columns


def _combined_join(
    left: FunctionalRelation,
    right: FunctionalRelation,
    combine,
    name: str | None,
) -> FunctionalRelation:
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
        sides = (
            (left, i_left, right, i_right) if probe is left
            else (right, i_right, left, i_left)
        )
        return _DeferredJoin(out_vars, measure, name, *sides)
    columns = _gather_columns(out_vars, left, i_left, right, i_right)
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
