"""Unit and differential tests for the group-index kernel cache."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra import dense, marginalize, product_join
from repro.algebra.groupindex import (
    DEFAULT_GROUP_INDEX_CACHE,
    GroupIndex,
    GroupIndexCache,
    group_index,
)
from repro.algebra.join import join_match_indices
from repro.data import FunctionalRelation, complete_relation, encoding, var
from repro.semiring import ALL_SEMIRINGS, SUM_PRODUCT


def _relation(n_rows=20, seed=0):
    rng = np.random.default_rng(seed)
    a, b = var("a", 4), var("b", 5)
    return FunctionalRelation(
        [a, b],
        {
            "a": rng.integers(0, 4, n_rows).astype(np.int64),
            "b": rng.integers(0, 5, n_rows).astype(np.int64),
        },
        rng.random(n_rows),
        check_fd=False,
    )


class TestGroupIndex:
    def test_matches_np_unique(self):
        rel = _relation()
        keys = rel.key_codes(("a", "b"))
        gidx = GroupIndex(keys)
        uniq, first, inverse = np.unique(
            keys, return_index=True, return_inverse=True
        )
        assert np.array_equal(gidx.unique_keys, uniq)
        assert np.array_equal(gidx.first_idx, first)
        assert np.array_equal(gidx.inverse, inverse.reshape(-1))
        assert gidx.n_groups == len(uniq)

    def test_empty_input(self):
        gidx = GroupIndex(np.empty(0, dtype=np.int64))
        assert gidx.n_groups == 0
        assert len(gidx.order) == 0
        assert gidx.nbytes == 0


class TestRetainedBytes:
    """An entry is charged the bytes of the distinct arrays it keeps,
    whichever builder made it."""

    def test_identity(self):
        keys = np.arange(0, 60, 3, dtype=np.int64)  # strictly increasing
        gidx = GroupIndex(keys)
        assert gidx.order is gidx.inverse is gidx.starts is gidx.first_idx
        # One shared int64 array, and the keys.
        assert gidx.nbytes == 8 * 20 + keys.nbytes

    @pytest.mark.parametrize("factor", [math.inf, 0], ids=["counted", "sorted"])
    def test_counted_and_sorted(self, factor):
        keys = np.array([4, 1, 4, 2, 1, 4, 0, 2], dtype=np.int64)
        gidx = build_with_factor(keys, factor)
        n, g = len(keys), gidx.n_groups
        assert g == 4
        # order, inverse: a row each; starts, first_idx, unique_keys: a
        # group each.
        assert gidx.nbytes == 8 * (2 * n) + 8 * (3 * g)

    def test_never_more_than_eight_bytes_per_element_once_charged(self):
        """Bytes are bounded by 8 × the ``4n + 2g`` elements the cache
        once charged: that count overstated what an entry keeps."""
        rng = np.random.default_rng(5)
        for keys in (
            np.arange(50, dtype=np.int64),
            rng.integers(0, 7, 50).astype(np.int64),
            rng.integers(0, 10**12, 50).astype(np.int64),
        ):
            gidx = GroupIndex(keys)
            assert gidx.nbytes <= 8 * (4 * len(keys) + 2 * gidx.n_groups)


def build_with_factor(keys, factor):
    """``GroupIndex(keys)`` with the counting path forced (``math.inf``)
    or switched off (``0``)."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoding, "DENSE_SPAN_FACTOR", factor)
        return GroupIndex(keys)


FIELDS = ("order", "starts", "first_idx", "inverse", "unique_keys")


def assert_dense_sort_unique_agree(keys):
    """Counting ≡ sorting ≡ ``np.unique``, field by field, dtype too."""
    dense = build_with_factor(keys, math.inf)
    sort = build_with_factor(keys, 0)
    for field in FIELDS:
        got, want = getattr(dense, field), getattr(sort, field)
        assert got.dtype == want.dtype, field
        assert np.array_equal(got, want), field
    assert dense.n_groups == sort.n_groups
    assert dense.nbytes == sort.nbytes
    uniq, first, inverse = np.unique(
        keys, return_index=True, return_inverse=True
    )
    assert dense.unique_keys.dtype == uniq.dtype
    assert np.array_equal(dense.unique_keys, uniq)
    assert np.array_equal(dense.first_idx, first)
    assert np.array_equal(dense.inverse, inverse.reshape(-1))
    assert np.array_equal(dense.order, np.argsort(keys, kind="stable"))
    return dense


class TestIncreasingKeys:
    """Strictly increasing keys — a GroupBy's output over its own group
    variables — are their own group structure, built in one check."""

    @pytest.mark.parametrize("keys", [
        [7], [0, 1, 2, 3], list(range(0, 300, 3)), [5, 9, 10, 2_000_000],
    ], ids=["one", "dense", "strided", "sparse"])
    def test_identity_fields_equal_the_other_builds(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        gidx = assert_dense_sort_unique_agree(keys)
        identity = np.arange(len(keys))
        for field in ("order", "starts", "first_idx", "inverse"):
            assert np.array_equal(getattr(gidx, field), identity)

    @pytest.mark.parametrize("at", [1, 15, 16, 40, 99])
    def test_one_repeat_anywhere_is_not_the_identity(self, at):
        # The check looks at a short prefix first; a repeat past it
        # must still be seen.
        keys = np.arange(100, dtype=np.int64)
        keys[at] = keys[at - 1]
        gidx = assert_dense_sort_unique_agree(keys)
        assert gidx.n_groups == 99

    def test_decreasing_keys_are_not_the_identity(self):
        gidx = assert_dense_sort_unique_agree(np.arange(50, 0, -1))
        assert np.array_equal(gidx.order, np.arange(49, -1, -1))


class TestDenseKeys:
    """The counting build is the sort build, bit for bit."""

    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 64])
    @pytest.mark.parametrize("low", [0, 5])
    def test_small_inputs(self, n, low):
        rng = np.random.default_rng(n)
        assert_dense_sort_unique_agree(rng.integers(low, low + 4, n))

    def test_all_equal_keys(self):
        gidx = assert_dense_sort_unique_agree(np.full(50, 9, dtype=np.int64))
        assert gidx.n_groups == 1
        assert np.array_equal(gidx.order, np.arange(50))

    def test_all_distinct_keys(self):
        rng = np.random.default_rng(1)
        gidx = assert_dense_sort_unique_agree(rng.permutation(300) + 3)
        assert gidx.n_groups == 300

    @pytest.mark.parametrize("span", [255, 256, 257, 65_535, 65_536, 65_537])
    def test_radix_width_boundaries(self, span):
        # Every slot occupied, so the group count — what picks the
        # 8-bit, 16-bit or two-pass order — sits on the boundary.
        rng = np.random.default_rng(span)
        keys = np.concatenate(
            (rng.permutation(span), rng.integers(0, span, span // 2))
        )
        gidx = assert_dense_sort_unique_agree(keys)
        assert gidx.n_groups == span

    def test_gaps_in_the_span(self):
        rng = np.random.default_rng(4)
        keys = rng.choice(np.arange(0, 900, 7), size=500) + 100
        assert_dense_sort_unique_agree(keys)

    @pytest.mark.parametrize("dtype", [np.int32, np.uint8, np.uint64])
    def test_other_integer_dtypes(self, dtype):
        rng = np.random.default_rng(5)
        assert_dense_sort_unique_agree(rng.integers(3, 40, 200).astype(dtype))

    def test_threshold_picks_the_path(self, monkeypatch):
        taken = []
        real = encoding.dense_key_counts

        def spy(keys):
            found = real(keys)
            taken.append(found is not None)
            return found

        monkeypatch.setattr("repro.algebra.groupindex.dense_key_counts", spy)
        n = 100
        for span, dense in [
            (encoding.DENSE_SPAN_FACTOR * n, True),
            (encoding.DENSE_SPAN_FACTOR * n + 1, False),
        ]:
            keys = np.random.default_rng(span).integers(0, span, n)
            keys[:2] = 0, span - 1
            gidx = GroupIndex(keys)
            assert taken[-1] is dense
            assert np.array_equal(gidx.unique_keys, np.unique(keys))

    def test_inputs_the_counting_path_cannot_take(self):
        # Sparse, huge and non-integer keys fall back to the sort.
        for keys in (
            np.asarray([0, 2**61, 7, 2**61], dtype=np.int64),
            np.asarray([0.5, 0.25, 0.5]),
            np.empty(0, dtype=np.int64),
        ):
            assert encoding.dense_key_counts(keys) is None
            gidx = GroupIndex(keys)
            uniq, first, inverse = np.unique(
                keys, return_index=True, return_inverse=True
            )
            assert np.array_equal(gidx.unique_keys, uniq)
            assert np.array_equal(gidx.first_idx, first)
            assert np.array_equal(gidx.inverse, inverse.reshape(-1))

    def test_inverse_never_aliases_the_keys(self):
        keys = np.arange(10, dtype=np.int64)[::-1].copy()
        gidx = GroupIndex(keys)
        assert not np.shares_memory(gidx.inverse, keys)

    @given(
        st.lists(st.integers(0, 400), max_size=120),
        st.integers(0, 2**40),
    )
    @settings(max_examples=150, deadline=None)
    def test_property_dense_equals_sort_equals_unique(self, codes, low):
        assert_dense_sort_unique_agree(
            np.asarray(codes, dtype=np.int64) + low
        )


class TestGroupIndexCache:
    def test_hit_miss_counters(self):
        cache = GroupIndexCache()
        rel = _relation()
        assert cache.counters() == (0, 0, 0)
        first = group_index(rel, ("a",), cache=cache)
        assert cache.counters() == (0, 1, 0)
        second = group_index(rel, ("a",), cache=cache)
        assert second is first
        assert cache.counters() == (1, 1, 0)
        # A different key-name tuple is a distinct entry.
        group_index(rel, ("a", "b"), cache=cache)
        assert cache.counters() == (1, 2, 0)

    def test_lru_eviction(self):
        cache = GroupIndexCache(capacity=2)
        r1, r2, r3 = _relation(seed=1), _relation(seed=2), _relation(seed=3)
        group_index(r1, ("a",), cache=cache)
        group_index(r2, ("a",), cache=cache)
        # Refresh r1 so r2 is the least recently used.
        group_index(r1, ("a",), cache=cache)
        group_index(r3, ("a",), cache=cache)  # evicts r2
        assert cache.evictions == 1
        assert cache.contains(r1, ("a",))
        assert not cache.contains(r2, ("a",))
        assert cache.contains(r3, ("a",))

    def test_byte_budget_eviction(self):
        rel = _relation(n_rows=100)
        entry_size = GroupIndex(rel.key_codes(("a", "b"))).nbytes
        cache = GroupIndexCache(capacity=100, byte_budget=entry_size)
        group_index(rel, ("a", "b"), cache=cache)
        assert len(cache) == 1
        other = _relation(n_rows=100, seed=9)
        group_index(other, ("a", "b"), cache=cache)
        # Both entries cannot fit under the budget: the older one left.
        assert len(cache) == 1
        assert cache.evictions == 1
        assert cache.contains(other, ("a", "b"))

    def test_oversized_entry_not_retained(self):
        cache = GroupIndexCache(byte_budget=1)
        rel = _relation()
        gidx = group_index(rel, ("a",), cache=cache)
        assert gidx.n_groups > 0  # still served
        assert len(cache) == 0
        assert cache.evictions == 0

    def test_rebuilt_relation_misses(self):
        """Fingerprints are per-instance: a rebuilt table cannot be
        served the stale index of its predecessor."""
        cache = GroupIndexCache()
        rel = _relation()
        group_index(rel, ("a",), cache=cache)
        rebuilt = FunctionalRelation(
            list(rel.variables),
            {n: rel.columns[n].copy() for n in rel.var_names},
            rel.measure.copy(),
            check_fd=False,
        )
        assert rel.fingerprint != rebuilt.fingerprint
        assert not cache.contains(rebuilt, ("a",))
        group_index(rebuilt, ("a",), cache=cache)
        assert cache.counters() == (0, 2, 0)

    def test_contains_moves_nothing(self):
        cache = GroupIndexCache()
        rel = _relation()
        assert not cache.contains(rel, ("a",))
        group_index(rel, ("a",), cache=cache)
        before = cache.counters()
        assert cache.contains(rel, ("a",))
        assert cache.counters() == before

    def test_clear_resets_everything(self):
        cache = GroupIndexCache(capacity=1)
        group_index(_relation(seed=1), ("a",), cache=cache)
        group_index(_relation(seed=2), ("a",), cache=cache)
        assert cache.counters() == (0, 2, 1)
        cache.clear()
        assert cache.counters() == (0, 0, 0)
        assert len(cache) == 0


@st.composite
def sparse_relation(draw, var_names=("a", "b"), sizes=None):
    sizes = sizes or {n: draw(st.integers(1, 4)) for n in var_names}
    total = 1
    for n in var_names:
        total *= sizes[n]
    n_rows = draw(st.integers(1, total))
    flat = draw(
        st.lists(
            st.integers(0, total - 1),
            min_size=n_rows, max_size=n_rows, unique=True,
        )
    )
    columns = {}
    remaining = np.asarray(flat, dtype=np.int64)
    divisor = total
    for n in var_names:
        divisor //= sizes[n]
        columns[n] = (remaining // divisor) % sizes[n]
    measure = np.asarray(
        draw(
            st.lists(
                st.floats(0.01, 10.0, allow_nan=False),
                min_size=n_rows, max_size=n_rows,
            )
        )
    )
    return FunctionalRelation(
        [var(n, sizes[n]) for n in var_names], columns, measure,
        check_fd=False,
    )


class TestDifferentialByteIdentity:
    """Cached and uncached kernels must agree to the last bit."""

    @given(sparse_relation(), st.sampled_from(range(len(ALL_SEMIRINGS))))
    @settings(max_examples=60, deadline=None)
    def test_marginalize_cached_vs_uncached(self, rel, idx):
        semiring = ALL_SEMIRINGS[idx]
        measure = rel.measure
        if semiring.dtype.kind == "b":
            measure = measure > 5.0
        elif semiring.dtype.kind in "iu":
            measure = (measure * 10).astype(semiring.dtype)
        else:
            measure = measure.astype(semiring.dtype)
        rel = rel.with_measure(measure)

        cache = GroupIndexCache()
        # The sparse kernels, also where the draw is grid-complete.
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dense, "dense_form", lambda relation: None)
            cold = marginalize(rel, ["a"], semiring, cache=cache)
            warm = marginalize(rel, ["a"], semiring, cache=cache)
            # A throwaway cache per call — every lookup is a build.
            uncached = marginalize(
                rel, ["a"], semiring, cache=GroupIndexCache()
            )
        assert cache.hits >= 1
        for out in (warm, uncached):
            assert out.var_names == cold.var_names
            assert np.array_equal(
                out.measure, cold.measure
            ), f"{semiring.name}: cached/uncached measures differ"
            for n in out.var_names:
                assert np.array_equal(out.columns[n], cold.columns[n])
        # Where it is grid-complete the dense path answers the same
        # and never asks the cache.
        if dense.dense_form(rel) is not None:
            untouched = GroupIndexCache()
            folded = marginalize(rel, ["a"], semiring, cache=untouched)
            assert untouched.counters() == (0, 0, 0)
            assert folded.equals(cold, semiring)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_join_indices_cached_vs_uncached(self, data):
        # Both sides must agree on the shared variable's domain (as
        # real joins do) — that is the cached probe path's guard.
        b_size = data.draw(st.integers(1, 4))
        left = data.draw(sparse_relation(
            ("a", "b"), sizes={"a": data.draw(st.integers(1, 4)),
                               "b": b_size},
        ))
        right = data.draw(sparse_relation(
            ("b", "c"), sizes={"b": b_size,
                               "c": data.draw(st.integers(1, 4))},
        ))
        cache = GroupIndexCache()
        il_cold, ir_cold = join_match_indices(
            left, right, ("b",), cache=cache
        )
        il_warm, ir_warm = join_match_indices(
            left, right, ("b",), cache=cache
        )
        assert cache.hits >= 1
        assert np.array_equal(il_cold, il_warm)
        assert np.array_equal(ir_cold, ir_warm)
        # And the joined relations themselves agree bit for bit.
        joined = product_join(left, right, SUM_PRODUCT)
        rejoined = product_join(left, right, SUM_PRODUCT)
        assert np.array_equal(joined.measure, rejoined.measure)
        for n in joined.var_names:
            assert np.array_equal(joined.columns[n], rejoined.columns[n])

    def test_marginalize_after_join_reuses_probe_sort(self):
        """A join's probe-side sort is the marginalization's hit."""
        rng = np.random.default_rng(3)
        a, b = var("a", 3), var("b", 4)
        left = complete_relation([a], rng=rng)
        # One cell short of the grid, so the GroupBy runs sparse.
        right = complete_relation([a, b], rng=rng).take(np.arange(11))
        assert dense.dense_form(right) is None
        cache = GroupIndexCache()
        join_match_indices(left, right, ("a",), cache=cache)
        assert cache.counters() == (0, 1, 0)
        marginalize(right, ["a"], SUM_PRODUCT, cache=cache)
        assert cache.counters() == (1, 1, 0)

    def test_dense_marginalize_leaves_the_probe_sort_alone(self):
        """Over a grid-complete relation the GroupBy is a fold: the
        join's sort is neither used nor built again."""
        rng = np.random.default_rng(3)
        a, b = var("a", 3), var("b", 4)
        left = complete_relation([a], rng=rng)
        right = complete_relation([a, b], rng=rng)
        cache = GroupIndexCache()
        join_match_indices(left, right, ("a",), cache=cache)
        assert cache.counters() == (0, 1, 0)
        before = dense.dense_ops()
        folded = marginalize(right, ["a"], SUM_PRODUCT, cache=cache)
        assert cache.counters() == (0, 1, 0)
        assert dense.dense_ops() == before + 1
        # Each group's four terms added left to right, as the scatter
        # adds them over the relation's rows.
        cells = right.measure.reshape(3, 4)
        want = ((cells[:, 0] + cells[:, 1]) + cells[:, 2]) + cells[:, 3]
        assert folded.measure.tobytes() == want.tobytes()


class TestDefaultCacheWiring:
    def test_operators_share_the_default_cache(self):
        DEFAULT_GROUP_INDEX_CACHE.clear()
        rel = _relation()
        marginalize(rel, ["a"], SUM_PRODUCT)
        marginalize(rel, ["a"], SUM_PRODUCT)
        hits, misses, evictions = DEFAULT_GROUP_INDEX_CACHE.counters()
        assert (hits, misses, evictions) == (1, 1, 0)
