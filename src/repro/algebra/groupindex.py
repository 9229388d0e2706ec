"""Group-index cache: memoized group structure of composite keys.

Marginalization, the Proposition-1 projection, and the join's build
side all need the same derived structure over a relation's key columns:
the stable sorted order of the composite keys, the segment boundaries
of equal-key runs, the first-occurrence row of each distinct key, and
the row→group inverse (the FAQ framing: a factor is a tensor over a
bounded index space, marginalization an axis reduction, and the axis
layout is reusable).

Keys that already strictly increase — a GroupBy's output keyed on its
own group variables — are their own group structure: every field is the
identity, built in one check.  Otherwise keys are mixed-radix codes, so
their span is known and usually no larger than the row count.  On such
*dense* keys
(:func:`repro.data.encoding.dense_key_counts`) the structure is built
by counting — ``bincount``, prefix sums, and a radix sort of the group
ids — in time linear in the rows; sparse, oversized or non-integer keys
take one comparison ``argsort``.  Which path ran is a property of the
keys, never a setting, and both produce the same bytes.

:class:`GroupIndexCache` memoizes one :class:`GroupIndex` per
``(relation fingerprint, key-name tuple)``.  Fingerprints are
per-instance (see :attr:`FunctionalRelation.fingerprint`), so a
rebuilt or reloaded table can never be served a stale index — entries
keyed on the dead instance age out of the LRU.  The cache is bounded
both by entry count and by the bytes its entries retain
(:attr:`GroupIndex.nbytes`); eviction is strict LRU and fully
deterministic, so hit/miss/eviction sequences are identical across
worker counts (the differential-suite contract).

Either derivation is byte-compatible with
``np.unique(keys, return_index=True, return_inverse=True)``: ``order``
is the stable argsort, so ``order[starts]`` are the first-occurrence
indices and the segment ranks the same inverse ``np.unique`` returns —
cached and uncached operator paths produce bit-identical results.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from repro.data.encoding import dense_key_counts
from repro.data.relation import FunctionalRelation

__all__ = [
    "GroupIndex",
    "GroupIndexCache",
    "DEFAULT_GROUP_INDEX_CACHE",
    "group_index",
]

# Defaults sized so the pinned differential suites never evict (their
# eviction counters must not depend on how warm the process-wide cache
# is when a sweep starts) while still bounding memory on big workloads.
# The byte budget is set by measurement: the entries a long run keeps
# beyond it belong to dead intermediates and are never hit again, and a
# larger budget only raises peak memory (EXPERIMENTS.md, "The planner
# pays per decision").
DEFAULT_CAPACITY = 4096
DEFAULT_BYTE_BUDGET = 32_000_000  # bytes retained across all entries


def _sorted_fields(keys: np.ndarray) -> tuple[np.ndarray, ...]:
    """The five :class:`GroupIndex` arrays by one comparison sort.

    The path for sparse, oversized or non-integer keys, ``O(n log n)``.
    """
    n = len(keys)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    boundaries = np.flatnonzero(sorted_keys[1:] != sorted_keys[:-1]) + 1
    starts = np.concatenate(
        (np.zeros(1, dtype=np.int64), boundaries.astype(np.int64))
    )
    group_of_sorted = np.zeros(n, dtype=np.int64)
    group_of_sorted[boundaries] = 1
    np.cumsum(group_of_sorted, out=group_of_sorted)
    inverse = np.empty(n, dtype=np.int64)
    inverse[order] = group_of_sorted
    return order, starts, order[starts], inverse, sorted_keys[starts]


def _counted_fields(
    keys: np.ndarray, low: int, offsets: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, ...]:
    """The same five arrays from dense keys' counts, ``O(n + span)``.

    Occupied slots of the span are the distinct keys, their prefix sums
    the run starts, and a slot's rank among the occupied ones its group
    id.  The stable order sorts the *group ids*: they are a monotone
    image of the keys, and being ``< n_groups`` they fit a dtype NumPy
    sorts by radix.
    """
    occupied = np.flatnonzero(counts)
    sizes = counts[occupied]
    starts = np.cumsum(sizes) - sizes
    if len(occupied) == len(counts):
        inverse = offsets.astype(np.int64)  # a copy: offsets may be keys
    else:
        rank = np.empty(len(counts), dtype=np.int64)
        rank[occupied] = np.arange(len(occupied), dtype=np.int64)
        inverse = rank[offsets]
    order = _radix_argsort(inverse, len(occupied))
    unique_keys = (occupied + low).astype(keys.dtype, copy=False)
    return order, starts, order[starts], inverse, unique_keys


def _strictly_increasing(keys: np.ndarray) -> bool:
    """Whether ``keys`` are non-empty and strictly increasing — checked
    on a short prefix first, so unordered keys are turned away in
    constant time."""
    head = keys[:16]
    return (
        len(keys) > 0
        and bool((head[1:] > head[:-1]).all())
        and bool((keys[1:] > keys[:-1]).all())
    )


def _radix_argsort(ids: np.ndarray, bound: int) -> np.ndarray:
    """Stable argsort of int64 ``ids`` in ``[0, bound)``.

    NumPy's stable sort is a radix sort for 8- and 16-bit integers and
    a merge sort above; ids beyond 16 bits take two 16-bit passes, low
    digits first (three times faster than the int64 merge sort).
    """
    if bound <= 1 << 8:
        return np.argsort(ids.astype(np.uint8), kind="stable")
    if bound <= 1 << 16:
        return np.argsort(ids.astype(np.uint16), kind="stable")
    if bound <= 1 << 32:
        by_low = np.argsort((ids & 0xFFFF).astype(np.uint16), kind="stable")
        high = (ids >> 16).astype(np.uint16)[by_low]
        return by_low[np.argsort(high, kind="stable")]
    return np.argsort(ids, kind="stable")


class GroupIndex:
    """The reusable group structure of one relation + key-name tuple.

    ``order``
        Stable argsort of the composite keys (row ids, key-major).
    ``starts``
        Start offset of each equal-key run in ``order`` (ascending).
    ``first_idx``
        First-occurrence row index of each distinct key, in sorted key
        order — exactly ``np.unique``'s ``return_index``.
    ``inverse``
        Row → group id (position in the sorted distinct keys) —
        exactly ``np.unique``'s ``return_inverse``.
    ``unique_keys``
        The distinct composite keys, ascending.
    """

    __slots__ = (
        "order", "starts", "first_idx", "inverse", "unique_keys", "n_groups"
    )

    def __init__(self, keys: np.ndarray):
        if _strictly_increasing(keys):
            # Every row its own group, already in key order — a
            # GroupBy's output over its own keys: the identity.
            identity = np.arange(len(keys), dtype=np.int64)
            fields = (identity,) * 4 + (keys,)
        elif (dense := dense_key_counts(keys)) is not None:
            fields = _counted_fields(keys, *dense)
        elif len(keys):
            fields = _sorted_fields(keys)
        else:
            empty = np.empty(0, dtype=np.int64)
            fields = (empty,) * 4 + (np.empty(0, dtype=keys.dtype),)
        (self.order, self.starts, self.first_idx, self.inverse,
         self.unique_keys) = fields
        self.n_groups = len(self.starts)

    @property
    def nbytes(self) -> int:
        """Bytes of the distinct arrays the entry retains — the cache's
        budget unit: ``order`` and ``inverse`` (a row each), ``starts``,
        ``first_idx`` and ``unique_keys`` (a group each), or, for an
        identity index, the one shared array and the keys."""
        retained = {}
        for array in (self.order, self.starts, self.first_idx, self.inverse,
                      self.unique_keys):
            retained[id(array)] = array.nbytes
        return sum(retained.values())


class GroupIndexCache:
    """Bounded LRU of :class:`GroupIndex` entries with hit accounting."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        byte_budget: int = DEFAULT_BYTE_BUDGET,
    ):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self.byte_budget = byte_budget
        self._entries: OrderedDict[tuple, GroupIndex] = OrderedDict()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def keys(self) -> list[tuple]:
        """``(fingerprint, names)`` of every entry, least recent first."""
        return list(self._entries)

    def counters(self) -> tuple[int, int, int]:
        """``(hits, misses, evictions)`` — for delta-based publication."""
        return (self.hits, self.misses, self.evictions)

    def clear(self) -> None:
        """Drop every entry; counters are reset too."""
        self._entries.clear()
        self._bytes = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # ------------------------------------------------------------------
    def contains(self, relation: FunctionalRelation,
                 names: Sequence[str]) -> bool:
        """Whether :meth:`get` would hit — no counters, no LRU motion.

        The cost-clock peek: operators consult this *before* running
        the kernel so a cached group structure is charged as a linear
        gather rather than a sort, without perturbing the hit/miss
        accounting of the actual lookup.
        """
        return (relation.fingerprint, tuple(names)) in self._entries

    def get(
        self, relation: FunctionalRelation, names: Sequence[str]
    ) -> GroupIndex:
        """The group index for ``relation``'s ``names`` columns.

        Served from cache when present (LRU refresh), built and
        inserted otherwise.  An oversized single index (beyond the
        byte budget) is still returned but never retained.
        """
        key = (relation.fingerprint, tuple(names))
        entry = self._entries.get(key)
        if entry is not None:
            self.hits += 1
            self._entries.move_to_end(key)
            return entry
        self.misses += 1
        entry = GroupIndex(relation.key_codes(names))
        size = entry.nbytes
        if size > self.byte_budget:
            return entry
        self._entries[key] = entry
        self._bytes += size
        while (
            len(self._entries) > self.capacity
            or self._bytes > self.byte_budget
        ):
            _, evicted = self._entries.popitem(last=False)
            self._bytes -= evicted.nbytes
            self.evictions += 1
        return entry


DEFAULT_GROUP_INDEX_CACHE = GroupIndexCache()
"""The process-wide cache the algebra kernels use by default.

Module-level on purpose: executors and contexts are short-lived (one
per query in the facade), but base relations persist — a shared cache
is what lets the second query over a table skip the index build the
first one paid for."""


def group_index(
    relation: FunctionalRelation,
    names: Sequence[str],
    cache: GroupIndexCache | None = None,
) -> GroupIndex:
    """Cached group structure of ``relation`` over ``names``.

    ``cache=None`` uses :data:`DEFAULT_GROUP_INDEX_CACHE`.
    """
    if cache is None:
        cache = DEFAULT_GROUP_INDEX_CACHE
    return cache.get(relation, names)
