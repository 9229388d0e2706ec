"""Hash partitioning of functional relations over a domain attribute.

A partitioned table is stored as ``shards`` co-located heap files, one
per hash bucket of a chosen *partitioning key* (one of the relation's
variables).  The shard of a row depends only on the key's int64 domain
code — never on worker counts, insertion order, or process state — so
the decomposition is a pure function of ``(data, key, shards)``.  That
invariant is what makes parallel execution deterministic: results and
merged counters are byte-identical for any number of workers, because
the work units themselves never change.

The bucket function is Fibonacci (multiplicative) hashing over the
code, not Python's randomized ``hash()``: it is stable across runs,
processes, and interpreter versions, and it is vectorized over whole
columns.

Sharding composes through the algebra:

* a selection applied per shard preserves the spec (surviving rows
  keep their key codes, hence their buckets);
* a join whose inputs are both partitioned on a shared variable with
  equal shard counts is *co-partitioned* — matching rows live in
  matching shards, so the join runs shard-wise;
* an aggregation that keeps the partitioning key in its group list is
  complete per shard; one that drops it produces per-shard *partial*
  aggregates which a final semiring-``plus`` merge combines.

Misaligned inputs are re-partitioned explicitly (a shuffle), which the
runtime charges to the cost clock like any other materialization.

A partitioned relation is held *shard-major* (:class:`Sharded`): one
relation whose rows are grouped by shard, in shard order, plus
``shards + 1`` offsets.  A shard is a slice, never a relation of its
own, so an operator calls its kernel once over every shard, and each
shard's task accounts for its own slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.data.relation import FunctionalRelation
from repro.errors import CatalogError

__all__ = [
    "PartitionSpec",
    "Sharded",
    "shard_assignments",
    "shard_major",
    "shard_offsets",
]

# Fixed 64-bit multiplicative-hash constant (2^64 / golden ratio).
_HASH_MULTIPLIER = np.uint64(11400714819323198485)
_HASH_SHIFT = np.uint64(33)


@dataclass(frozen=True)
class PartitionSpec:
    """How one table is decomposed: hash(``key``) into ``shards`` buckets."""

    key: str
    shards: int

    def __post_init__(self):
        if self.shards < 2:
            raise CatalogError(
                f"a partitioning needs at least 2 shards, got {self.shards}"
            )

    def __str__(self) -> str:
        return f"hash({self.key}) % {self.shards}"


def shard_assignments(codes: np.ndarray, shards: int) -> np.ndarray:
    """Deterministic shard number per row from the key's domain codes."""
    hashed = (codes.astype(np.uint64) * _HASH_MULTIPLIER) >> _HASH_SHIFT
    return (hashed % np.uint64(shards)).astype(np.int64)


@dataclass(frozen=True, eq=False)
class Sharded:
    """A partitioned result: one relation in shard-major row order.

    Shard ``s`` holds rows ``offsets[s]:offsets[s + 1]`` of
    ``relation``, every one of them hashing to bucket ``s`` of
    ``spec``.  Kernels run once over the whole relation; the offsets
    say which rows each shard's task accounts for.
    """

    spec: PartitionSpec
    relation: FunctionalRelation
    offsets: np.ndarray

    @cached_property
    def sizes(self) -> list[int]:
        """Rows per shard, in shard order."""
        return np.diff(self.offsets).tolist()


def shard_major(
    relation: FunctionalRelation, key: str, shards: int
) -> tuple[FunctionalRelation, np.ndarray]:
    """``relation``'s rows grouped by shard, and the shard offsets.

    One stable sort by shard number: rows keep their original relative
    order within a shard, so splitting the same relation twice yields
    identical bytes, and shard ``s`` is exactly the rows whose ``key``
    hashes to ``s``.  ``offsets`` has ``shards + 1`` entries; an empty
    shard is an empty slice.
    """
    if key not in relation.columns:
        raise CatalogError(
            f"partitioning key {key!r} is not a variable of "
            f"{relation.name or '<anonymous>'!r} (has {list(relation.var_names)})"
        )
    assignment = shard_assignments(relation.columns[key], shards)
    counts = np.bincount(assignment, minlength=shards)
    # A stable sort of small integers is a radix sort in NumPy.
    small = np.uint8 if shards <= 1 << 8 else np.int64
    order = np.argsort(assignment.astype(small), kind="stable")
    return relation.take(order), _offsets(counts)


def shard_offsets(
    relation: FunctionalRelation, key: str, shards: int
) -> np.ndarray | None:
    """The shard offsets of a relation already in shard-major order on
    ``key``, or ``None`` when its rows are not grouped by shard."""
    if key not in relation.columns:
        return None
    assignment = shard_assignments(relation.columns[key], shards)
    if np.any(assignment[1:] < assignment[:-1]):
        return None
    return _offsets(np.bincount(assignment, minlength=shards))


def _offsets(counts: np.ndarray) -> np.ndarray:
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    return offsets
