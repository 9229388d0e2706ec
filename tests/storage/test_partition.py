"""Unit tests for the hash-partitioning primitive."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import complete_relation, var
from repro.errors import CatalogError
from repro.storage.partition import (
    PartitionSpec,
    shard_assignments,
    shard_major,
    shard_offsets,
)


def _rel(name="r", na=7, nb=5, seed=3):
    rng = np.random.default_rng(seed)
    return complete_relation(
        [var("a", na), var("b", nb)], rng=rng, name=name
    )


class TestShardAssignments:
    def test_deterministic_and_in_range(self):
        codes = np.arange(1000, dtype=np.int64)
        got = shard_assignments(codes, 7)
        again = shard_assignments(codes.copy(), 7)
        assert np.array_equal(got, again)
        assert got.min() >= 0 and got.max() < 7

    def test_spreads_buckets(self):
        # Fibonacci hashing over a contiguous code range must not
        # collapse into one bucket.
        codes = np.arange(64, dtype=np.int64)
        counts = np.bincount(shard_assignments(codes, 4), minlength=4)
        assert (counts > 0).all()

    def test_independent_of_worker_anything(self):
        # The bucket function depends only on (codes, shards): same
        # input, same buckets, across any process or call site.
        codes = np.array([0, 1, 2, 3, 10**9], dtype=np.int64)
        expected = shard_assignments(codes, 3)
        for _ in range(3):
            assert np.array_equal(shard_assignments(codes, 3), expected)


class TestPartitionSpec:
    def test_rejects_single_shard(self):
        with pytest.raises(CatalogError):
            PartitionSpec("a", 1)

    def test_str(self):
        assert str(PartitionSpec("b", 4)) == "hash(b) % 4"


class TestPartitionRelation:
    """The shard-major split: one relation grouped by shard, plus offsets."""

    def test_rows_partition_exactly(self):
        rel = _rel()
        rows, offsets = shard_major(rel, "a", 3)
        assert len(offsets) == 4
        assert offsets[0] == 0 and offsets[-1] == rel.ntuples
        # Every row lands in the slice of the shard its key code hashes to.
        for shard in range(3):
            codes = rows.columns["a"][offsets[shard]:offsets[shard + 1]]
            assert (shard_assignments(codes, 3) == shard).all()

    def test_unknown_key_raises(self):
        with pytest.raises(CatalogError):
            shard_major(_rel(), "zzz", 3)

    def test_roundtrip_restores_rows(self):
        rel = _rel()
        rows, _ = shard_major(rel, "b", 4)
        assert rows.name == rel.name
        k0, m0 = rel.sorted_snapshot()
        k1, m1 = rows.sorted_snapshot()
        assert np.array_equal(k0, k1)
        assert np.array_equal(m0, m1)

    def test_offsets_count_each_shard(self):
        rel = _rel(na=40, nb=3)
        _, offsets = shard_major(rel, "a", 5)
        counts = np.bincount(
            shard_assignments(rel.columns["a"], 5), minlength=5
        )
        assert np.array_equal(np.diff(offsets), counts)

    def test_stable_within_shard_order(self):
        # A shard's slice lists its rows in their original relative
        # order: the rows of the input that hash to it, as they came.
        rel = _rel(na=30, nb=4)
        rows, offsets = shard_major(rel, "a", 3)
        assignment = shard_assignments(rel.columns["a"], 3)
        for shard in range(3):
            mine = np.flatnonzero(assignment == shard)
            part = slice(offsets[shard], offsets[shard + 1])
            for name in rel.var_names:
                assert np.array_equal(
                    rows.columns[name][part], rel.columns[name][mine]
                )
            assert np.array_equal(rows.measure[part], rel.measure[mine])

    def test_empty_shards(self):
        # Two key codes cannot fill seven shards: the rest are empty
        # slices, and the offsets still cover every row once.
        rel = _rel(na=2, nb=3)
        rows, offsets = shard_major(rel, "a", 7)
        sizes = np.diff(offsets)
        assert (sizes == 0).sum() >= 5
        assert sizes.sum() == rel.ntuples == rows.ntuples

    def test_single_shard(self):
        rel = _rel()
        rows, offsets = shard_major(rel, "a", 1)
        assert offsets.tolist() == [0, rel.ntuples]
        for name in rel.var_names:
            assert np.array_equal(rows.columns[name], rel.columns[name])
        assert np.array_equal(rows.measure, rel.measure)

    def test_offsets_rederived_from_the_key_column(self):
        rel = _rel(na=30, nb=4)
        rows, offsets = shard_major(rel, "a", 3)
        assert np.array_equal(shard_offsets(rows, "a", 3), offsets)
        # Rows not grouped by shard have no offsets to derive.
        scrambled = rows.take(np.arange(rows.ntuples)[::-1])
        assert shard_offsets(scrambled, "a", 3) is None
        assert shard_offsets(rows, "zzz", 3) is None


class TestCatalogPartitioning:
    def test_partition_table_and_shard_files(self):
        from repro.catalog.catalog import Catalog

        catalog = Catalog()
        catalog.register(_rel(name="t"), "t")
        assert not catalog.has_partitions
        spec = catalog.partition_table("t", "a", 3)
        assert catalog.has_partitions
        assert catalog.partition_spec("t") == spec
        assert catalog.partitioned_tables == ("t",)
        sharded = catalog.sharded("t")
        files = catalog.shard_heapfiles("t")
        assert sharded.spec == spec
        assert len(sharded.sizes) == len(files) == 3
        assert sharded.sizes == [f.ntuples for f in files]
        assert sum(sharded.sizes) == catalog.relation("t").ntuples
        # Shard heap files have distinct ids, none colliding with the
        # base table's.
        ids = {f.file_id for f in files} | {catalog.heapfile("t").file_id}
        assert len(ids) == 4

    def test_unpartitioned_lookups_raise(self):
        from repro.catalog.catalog import Catalog

        catalog = Catalog()
        catalog.register(_rel(name="t"), "t")
        assert catalog.partition_spec("t") is None
        with pytest.raises(CatalogError):
            catalog.sharded("t")
        with pytest.raises(CatalogError):
            catalog.shard_heapfiles("t")

    def test_unknown_key_raises(self):
        from repro.catalog.catalog import Catalog

        catalog = Catalog()
        catalog.register(_rel(name="t"), "t")
        with pytest.raises(CatalogError):
            catalog.partition_table("t", "zzz", 3)

    def test_replace_repartitions_fresh_data(self):
        from repro.catalog.catalog import Catalog

        catalog = Catalog()
        catalog.register(_rel(name="t", seed=1), "t")
        catalog.partition_table("t", "a", 3)
        fresh = _rel(name="t", seed=2)
        catalog.replace(fresh, "t")
        # Spec survives and the shards hold the *new* rows.
        assert catalog.partition_spec("t") == PartitionSpec("a", 3)
        merged = catalog.sharded("t").relation
        k0, m0 = fresh.sorted_snapshot()
        k1, m1 = merged.sorted_snapshot()
        assert np.array_equal(k0, k1)
        assert np.array_equal(m0, m1)


class TestShardAssignmentProperties:
    """Hypothesis: the shard map is a stable, total function.

    Every code maps to exactly one shard in ``[0, shards)`` for any
    shard count >= 1, and the mapping depends only on the code — not
    on the surrounding array, the process, or any seed.
    """

    @given(
        codes=st.lists(
            st.integers(min_value=0, max_value=2**31 - 1),
            min_size=1, max_size=200,
        ),
        shards=st.integers(min_value=1, max_value=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_total_stable_and_in_range(self, codes, shards):
        arr = np.asarray(codes, dtype=np.int64)
        got = shard_assignments(arr, shards)
        # Total: one shard per value, always in range.
        assert got.shape == arr.shape
        assert got.min() >= 0 and got.max() < shards
        # Stable: recomputing yields the same map, and each value's
        # shard is independent of its neighbours (pointwise equals
        # whole-array).
        assert np.array_equal(got, shard_assignments(arr.copy(), shards))
        pointwise = [
            shard_assignments(np.asarray([c], dtype=np.int64), shards)[0]
            for c in codes
        ]
        assert np.array_equal(got, np.asarray(pointwise, dtype=np.int64))

    def test_golden_values_pin_process_independence(self):
        # Hard-coded expected shards: Fibonacci hashing is a pure
        # function of (code, shards), so these values must never
        # change across runs, processes, or platforms.  A failure
        # here means existing partitioned data would be mis-routed.
        codes = np.asarray([0, 1, 2, 3, 1000, 2**31 - 1], dtype=np.int64)
        assert shard_assignments(codes, 1).tolist() == [0, 0, 0, 0, 0, 0]
        assert shard_assignments(codes, 3).tolist() == [0, 1, 1, 0, 2, 2]
        assert shard_assignments(codes, 7).tolist() == [0, 6, 4, 4, 3, 1]
