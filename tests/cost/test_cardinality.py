"""Unit tests for cardinality estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Catalog, TableStats
from repro.cost import group_stats, join_size, join_stats, select_stats
from repro.data import complete_relation, var


def _stats(name, card, sizes, distinct=None):
    distinct = distinct or {k: float(min(card, v)) for k, v in sizes.items()}
    return TableStats(name, card, sizes, distinct)


class TestJoinStats:
    def test_complete_relations_exact(self):
        """For complete relations the estimate is exact: the join is
        complete over the union of domains."""
        s1 = _stats("s1", 12, {"a": 3, "b": 4})
        s2 = _stats("s2", 8, {"b": 4, "c": 2})
        out = join_stats(s1, s2)
        assert out.cardinality == 24  # 3 * 4 * 2

    def test_matches_actual_join(self, rng):
        from repro.algebra import product_join
        from repro.semiring import SUM_PRODUCT

        a, b, c = var("a", 3), var("b", 4), var("c", 2)
        r1 = complete_relation([a, b], rng=rng, name="r1")
        r2 = complete_relation([b, c], rng=rng, name="r2")
        cat = Catalog()
        cat.register_all([r1, r2])
        est = join_stats(cat.stats("r1"), cat.stats("r2"))
        actual = product_join(r1, r2, SUM_PRODUCT)
        assert est.cardinality == actual.ntuples

    def test_cross_product(self):
        s1 = _stats("s1", 5, {"a": 5})
        s2 = _stats("s2", 7, {"z": 7})
        assert join_stats(s1, s2).cardinality == 35

    def test_shared_distinct_takes_min(self):
        s1 = _stats("s1", 10, {"a": 10, "b": 20}, {"a": 10.0, "b": 10.0})
        s2 = _stats("s2", 5, {"b": 20, "c": 5}, {"b": 5.0, "c": 5.0})
        out = join_stats(s1, s2)
        assert out.distinct["b"] == 5.0

    def test_output_distinct_capped_by_cardinality(self):
        s1 = _stats("s1", 2, {"a": 100}, {"a": 2.0})
        s2 = _stats("s2", 2, {"a": 100, "b": 100}, {"a": 2.0, "b": 2.0})
        out = join_stats(s1, s2)
        for d in out.distinct.values():
            assert d <= out.cardinality

    def test_never_below_one(self):
        s1 = _stats("s1", 1, {"a": 1000}, {"a": 1.0})
        s2 = _stats("s2", 1, {"a": 1000}, {"a": 1.0})
        assert join_stats(s1, s2).cardinality >= 1


@st.composite
def stats_pair(draw):
    """Two derived-looking TableStats over overlapping variable pools,
    with ``distinct`` keyed in a different order than ``var_sizes``."""
    pool = [f"x{i}" for i in range(6)]
    sizes = {v: draw(st.integers(1, 50)) for v in pool}

    def one(name):
        names = draw(st.lists(st.sampled_from(pool), min_size=1, unique=True))
        card = draw(st.floats(1.0, 1e9, allow_nan=False))
        distinct = {
            v: draw(st.floats(0.5, float(sizes[v]), allow_nan=False))
            for v in reversed(names)
        }
        return TableStats(name, card, {v: sizes[v] for v in names}, distinct)

    return one("l"), one("r")


class TestJoinSize:
    """``join_size`` is the part of ``join_stats`` a cost model reads."""

    @given(stats_pair())
    def test_agrees_with_join_stats_bitwise(self, pair):
        left, right = pair
        size, full = join_size(left, right), join_stats(left, right)
        assert size.cardinality == full.cardinality
        assert list(size.var_sizes) == list(full.var_sizes)
        assert size.var_sizes == full.var_sizes

    @given(stats_pair())
    def test_cardinality_arithmetic_unchanged(self, pair):
        """The estimate as ``join_stats`` computed it before the split:
        shared variables in ``left.var_sizes`` order, one division each."""
        left, right = pair
        shared = [v for v in left.var_sizes if v in right.var_sizes]
        selectivity = 1.0
        for v in shared:
            selectivity /= max(left.distinct[v], right.distinct[v], 1.0)
        want = max(1.0, left.cardinality * right.cardinality * selectivity)
        assert join_size(left, right).cardinality == want

    def test_var_sizes_is_a_fresh_dict(self):
        s1 = _stats("s1", 12, {"a": 3, "b": 4})
        s2 = _stats("s2", 8, {"b": 4, "c": 2})
        join_size(s1, s2).var_sizes["z"] = 1
        assert list(s1.var_sizes) == ["a", "b"]
        assert list(s2.var_sizes) == ["b", "c"]


class TestGroupStats:
    def test_bounded_by_input(self):
        s = _stats("s", 10, {"a": 100}, {"a": 10.0})
        assert group_stats(s, ["a"]).cardinality == 10

    def test_bounded_by_distinct_product(self):
        s = _stats("s", 1000, {"a": 3, "b": 4}, {"a": 3.0, "b": 4.0})
        assert group_stats(s, ["a", "b"]).cardinality == 12

    def test_empty_group(self):
        s = _stats("s", 1000, {"a": 3}, {"a": 3.0})
        out = group_stats(s, [])
        assert out.cardinality == 1
        assert out.var_sizes == {}

    def test_unknown_vars_ignored(self):
        s = _stats("s", 10, {"a": 3}, {"a": 3.0})
        out = group_stats(s, ["a", "ghost"])
        assert list(out.var_sizes) == ["a"]


class TestSelectStats:
    def test_uniform_shrink(self):
        s = _stats("s", 100, {"a": 10, "b": 10}, {"a": 10.0, "b": 10.0})
        out = select_stats(s, {"a": 3})
        assert out.cardinality == pytest.approx(10.0)
        assert out.distinct["a"] == 1.0

    def test_selection_on_absent_variable_is_noop(self):
        s = _stats("s", 100, {"a": 10}, {"a": 10.0})
        out = select_stats(s, {"z": 1})
        assert out.cardinality == 100

    def test_conjunctive(self):
        s = _stats("s", 100, {"a": 10, "b": 5}, {"a": 10.0, "b": 5.0})
        out = select_stats(s, {"a": 0, "b": 0})
        assert out.cardinality == pytest.approx(2.0)
