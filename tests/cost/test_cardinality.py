"""Unit tests for cardinality estimation."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.catalog import Catalog, TableStats
from repro.cost import JoinSize, group_stats, join_size, join_stats, select_stats
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


def _reference_join_stats(left, right):
    """``join_stats`` as three passes — size, dict merge, then distinct
    counts and their caps — the way it was first written."""
    selectivity = 1.0
    for v in left.var_sizes:
        if v in right.distinct:
            selectivity /= max(left.distinct[v], right.distinct[v], 1.0)
    cardinality = max(1.0, left.cardinality * right.cardinality * selectivity)
    var_sizes = dict(left.var_sizes)
    var_sizes.update(right.var_sizes)
    distinct = {}
    for v in var_sizes:
        if v not in right.var_sizes:
            distinct[v] = left.distinct[v]
        elif v not in left.var_sizes:
            distinct[v] = right.distinct[v]
        else:
            distinct[v] = min(left.distinct[v], right.distinct[v])
    distinct = {
        v: max(1.0, min(distinct[v], float(var_sizes[v]), cardinality))
        for v in var_sizes
    }
    return cardinality, var_sizes, distinct


class TestJoinSize:
    """``JoinSize`` is the part of ``join_stats`` a cost model reads."""

    @given(stats_pair())
    def test_agrees_with_join_stats_bitwise(self, pair):
        left, right = pair
        size, full = JoinSize(left, right), join_stats(left, right)
        assert size.cardinality == full.cardinality
        assert list(size.var_sizes) == list(full.var_sizes)
        assert size.var_sizes == full.var_sizes

    @given(stats_pair())
    def test_cardinality_arithmetic_unchanged(self, pair):
        """The estimate as ``join_stats`` computed it before the split:
        shared variables in ``left.var_sizes`` order, one division each."""
        left, right = pair
        want, _, _ = _reference_join_stats(left, right)
        assert join_size(left, right) == want
        assert JoinSize(left, right).cardinality == want

    @given(stats_pair())
    def test_one_pass_join_stats_is_bitwise_the_three_pass_one(self, pair):
        left, right = pair
        cardinality, var_sizes, distinct = _reference_join_stats(left, right)
        got = join_stats(left, right)
        assert got.cardinality == cardinality
        assert list(got.var_sizes.items()) == list(var_sizes.items())
        assert list(got.distinct.items()) == list(distinct.items())

    def test_derived_once_on_first_read(self, monkeypatch):
        import repro.cost.cardinality as cardinality

        calls = []
        monkeypatch.setattr(
            cardinality, "join_size",
            lambda left, right: calls.append(1) or 24.0,
        )
        size = JoinSize(
            _stats("s1", 12, {"a": 3, "b": 4}), _stats("s2", 8, {"b": 4, "c": 2})
        )
        assert calls == []
        assert size.cardinality == size.cardinality == 24.0
        assert calls == [1]

    def test_var_sizes_is_a_fresh_dict(self):
        s1 = _stats("s1", 12, {"a": 3, "b": 4})
        s2 = _stats("s2", 8, {"b": 4, "c": 2})
        JoinSize(s1, s2).var_sizes["z"] = 1
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

    @given(stats_pair(), st.lists(st.sampled_from([f"x{i}" for i in range(7)])))
    def test_estimate_bitwise_as_first_written(self, pair, group_vars):
        """Caps spelled as comparisons give ``max(1, min(d, σ, |R|))``
        bit for bit, duplicates and unknown variables included."""
        child, _ = pair
        kept = [v for v in group_vars if v in child.var_sizes]
        groups = 1.0
        for v in kept:
            groups *= child.distinct[v]
        cardinality = max(1.0, min(child.cardinality, groups))
        var_sizes = {v: child.var_sizes[v] for v in kept}
        got = group_stats(child, group_vars)
        assert got.cardinality == cardinality
        assert list(got.var_sizes.items()) == list(var_sizes.items())
        assert list(got.distinct.items()) == [
            (v, max(1.0, min(child.distinct[v], float(size), cardinality)))
            for v, size in var_sizes.items()
        ]


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
