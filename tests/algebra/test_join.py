"""Unit tests for the product join (Definition 2)."""

import numpy as np
import pytest

from repro.algebra import join, product_join, quotient_join
from repro.algebra.groupindex import GroupIndexCache
from repro.algebra.hypothetical import apply_patch
from repro.algebra.join import join_match_indices
from repro.data import FunctionalRelation, complete_relation, encoding, var
from repro.errors import SchemaError, SemiringError
from repro.semiring import BOOLEAN, MIN_SUM, SUM_PRODUCT


@pytest.fixture
def abc():
    return var("a", 3), var("b", 4), var("c", 2)


class TestProductJoin:
    def test_matches_nested_loop_oracle(self, abc, rng):
        a, b, c = abc
        s1 = complete_relation([a, b], rng=rng)
        s2 = complete_relation([b, c], rng=rng)
        joined = product_join(s1, s2, SUM_PRODUCT)
        d1, d2 = s1.to_dict(), s2.to_dict()
        expected = {}
        for (av, bv), f1 in d1.items():
            for (bv2, cv), f2 in d2.items():
                if bv == bv2:
                    expected[(av, bv, cv)] = f1 * f2
        assert joined.to_dict() == pytest.approx(expected)

    def test_result_is_functional_relation(self, abc, rng):
        a, b, c = abc
        s1 = complete_relation([a, b], rng=rng)
        s2 = complete_relation([b, c], rng=rng)
        joined = product_join(s1, s2, SUM_PRODUCT)
        keys = joined.key_codes()
        assert len(np.unique(keys)) == joined.ntuples

    def test_sparse_inner_join_semantics(self, abc):
        a, b, c = abc
        s1 = FunctionalRelation.from_rows([a, b], [(0, 0, 2.0), (1, 3, 3.0)])
        s2 = FunctionalRelation.from_rows([b, c], [(0, 1, 5.0)])
        joined = product_join(s1, s2, SUM_PRODUCT)
        assert joined.to_dict() == {(0, 0, 1): 10.0}

    def test_empty_result(self, abc):
        a, b, c = abc
        s1 = FunctionalRelation.from_rows([a, b], [(0, 0, 2.0)])
        s2 = FunctionalRelation.from_rows([b, c], [(1, 1, 5.0)])
        joined = product_join(s1, s2, SUM_PRODUCT)
        assert joined.ntuples == 0
        assert joined.var_names == ("a", "b", "c")

    def test_cross_product_when_disjoint(self, rng):
        s1 = complete_relation([var("a", 3)], rng=rng)
        s2 = complete_relation([var("z", 4)], rng=rng)
        joined = product_join(s1, s2, SUM_PRODUCT)
        assert joined.ntuples == 12

    def test_min_sum_adds_measures(self, abc):
        a, b, _ = abc
        s1 = FunctionalRelation.from_rows([a], [(0, 2.0)])
        s2 = FunctionalRelation.from_rows([a, b], [(0, 1, 5.0)])
        joined = product_join(s1, s2, MIN_SUM)
        assert joined.value_at({"a": 0, "b": 1}) == 7.0

    def test_boolean_join(self, abc):
        a, b, _ = abc
        s1 = FunctionalRelation.from_rows([a], [(0, True), (1, False)])
        s2 = FunctionalRelation.from_rows([a, b], [(0, 0, True), (1, 0, True)])
        joined = product_join(s1, s2, BOOLEAN)
        assert joined.value_at({"a": 0, "b": 0})
        assert not joined.value_at({"a": 1, "b": 0})

    def test_conflicting_domains_rejected(self):
        s1 = complete_relation([var("a", 3)])
        s2 = complete_relation([var("a", 5)])
        with pytest.raises(SchemaError):
            product_join(s1, s2, SUM_PRODUCT)

    def test_join_with_scalar_relation(self, abc, rng):
        a, _, _ = abc
        s1 = complete_relation([a], rng=rng)
        scalar = FunctionalRelation.constant(2.0)
        joined = product_join(s1, scalar, SUM_PRODUCT)
        assert np.allclose(joined.measure, s1.measure * 2.0)

    def test_associativity_up_to_row_order(self, abc, rng):
        a, b, c = abc
        s1 = complete_relation([a, b], rng=rng)
        s2 = complete_relation([b, c], rng=rng)
        s3 = complete_relation([a, c], rng=rng)
        left = product_join(product_join(s1, s2, SUM_PRODUCT), s3, SUM_PRODUCT)
        right = product_join(s1, product_join(s2, s3, SUM_PRODUCT), SUM_PRODUCT)
        assert left.equals(right, SUM_PRODUCT)

    def test_commutativity(self, abc, rng):
        a, b, c = abc
        s1 = complete_relation([a, b], rng=rng)
        s2 = complete_relation([b, c], rng=rng)
        assert product_join(s1, s2, SUM_PRODUCT).equals(
            product_join(s2, s1, SUM_PRODUCT), SUM_PRODUCT
        )


class TestQuotientJoin:
    def test_divides(self, abc):
        a, _, _ = abc
        s1 = FunctionalRelation.from_rows([a], [(0, 6.0)])
        s2 = FunctionalRelation.from_rows([a], [(0, 2.0)])
        out = quotient_join(s1, s2, SUM_PRODUCT)
        assert out.value_at({"a": 0}) == 3.0

    def test_requires_division(self, abc):
        a, _, _ = abc
        s1 = FunctionalRelation.from_rows([a], [(0, True)])
        with pytest.raises(SemiringError):
            quotient_join(s1, s1, BOOLEAN)


def _keyed(names, sizes, columns, rng):
    n = len(next(iter(columns.values())))
    return FunctionalRelation(
        [var(name, size) for name, size in zip(names, sizes)],
        {k: np.asarray(v, dtype=np.int64) for k, v in columns.items()},
        rng.random(n) + 0.5,
        check_fd=False,
    )


def _assert_same_relation(got, want):
    assert got.var_names == want.var_names
    assert got.measure.dtype == want.measure.dtype
    assert got.measure.tobytes() == want.measure.tobytes()
    for name in want.var_names:
        assert np.array_equal(got.columns[name], want.columns[name])


class TestDirectAddressProbe:
    """Unique dense build keys probe through a table; the result is the
    binary-search path's, bit for bit."""

    @pytest.fixture
    def probes(self, monkeypatch):
        calls = []
        real = join._direct_address_probe

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(join, "_direct_address_probe", spy)
        return calls

    @staticmethod
    def _both_paths(kernel, monkeypatch):
        """``kernel()`` as shipped and with the dense paths switched off."""
        direct = kernel()
        with monkeypatch.context() as patch:
            patch.setattr(encoding, "DENSE_SPAN_FACTOR", 0)
            generic = kernel()
        return direct, generic

    # k has 40 codes; the build side holds a unique subset of them.
    CASES = {
        "every_probe_row_matches_once": ([3, 5, 4, 9], [5, 5, 3, 9, 4, 4]),
        "partial_match": ([3, 5, 4, 9], [5, 8, 3, 6, 4, 7]),
        "no_match": ([3, 5, 4, 9], [6, 7, 8, 6]),
        "probe_keys_beyond_the_build_span": (
            [13, 15, 14, 19], [0, 15, 39, 12, 20, 13, 1],
        ),
        "single_build_row": ([7], [7, 6, 7, 8]),
        "empty_probe_side": ([3, 5, 4], []),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_unique_build_keys(self, case, rng, probes, monkeypatch):
        build, probe = self.CASES[case]
        left = _keyed(
            ("k", "a"), (40, 50),
            {"k": probe, "a": np.arange(len(probe))}, rng,
        )
        right = _keyed(
            ("k", "z"), (40, 3), {"k": build, "z": [1] * len(build)}, rng
        )
        direct, generic = self._both_paths(
            lambda: join_match_indices(
                left, right, ("k",), cache=GroupIndexCache()
            ),
            monkeypatch,
        )
        assert len(probes) == 1
        for got, want in zip(direct, generic):
            assert got.dtype == want.dtype
            assert np.array_equal(got, want)
        joined, baseline = self._both_paths(
            lambda: product_join(left, right, SUM_PRODUCT), monkeypatch
        )
        _assert_same_relation(joined, baseline)

    def test_non_unique_build_keys_keep_the_generic_path(
        self, rng, probes, monkeypatch
    ):
        left = _keyed(("k",), (40,), {"k": [3, 4, 9]}, rng)
        right = _keyed(
            ("k", "z"), (40, 5),
            {"k": [4, 3, 4, 9, 4], "z": [0, 1, 2, 3, 4]}, rng,
        )
        direct, generic = self._both_paths(
            lambda: product_join(left, right, SUM_PRODUCT), monkeypatch
        )
        assert probes == []
        _assert_same_relation(direct, generic)
        assert direct.ntuples == 5

    def test_large_right_side_probes_a_small_unique_left_side(
        self, rng, probes, monkeypatch
    ):
        """The same shape once the right side is large enough to be
        worth keeping whole (the floor is lowered to the test's size):
        the unique left keys build, every right row looks its partner
        up, and the rows come in right-row order — the same relation,
        which is all ``product_join`` promises."""
        monkeypatch.setattr(join, "DEFER_MIN_ROWS", 5)
        left = _keyed(("k",), (40,), {"k": [3, 4, 9]}, rng)
        right = _keyed(
            ("k", "z"), (40, 5),
            {"k": [4, 3, 4, 9, 4], "z": [0, 1, 2, 3, 4]}, rng,
        )
        direct, generic = self._both_paths(
            lambda: product_join(left, right, SUM_PRODUCT), monkeypatch
        )
        assert len(probes) == 1
        assert isinstance(direct, FunctionalRelation)
        assert direct.ntuples == generic.ntuples == 5
        assert direct.equals(generic, SUM_PRODUCT)
        assert direct.columns["z"].tolist() == [0, 1, 2, 3, 4]
        assert generic.columns["z"].tolist() == [1, 0, 2, 4, 3]
        # A partial match keeps right-row order too ...
        partial = product_join(
            left.take(np.array([1, 0])), right, SUM_PRODUCT
        )
        assert len(probes) == 2
        assert partial.columns["z"].tolist() == [0, 1, 2, 4]
        # ... and too few matches leave the right side's runs to be
        # expanded, left-major, as before.
        probes.clear()
        few = _keyed(("k",), (40,), {"k": [9]}, rng)
        expanded = product_join(few, right, SUM_PRODUCT)
        assert probes == [] and expanded.columns["z"].tolist() == [3]
        # join_match_indices keeps its left-major contract regardless.
        i_left, i_right = join_match_indices(
            left, right, ("k",), cache=GroupIndexCache()
        )
        assert i_left.tolist() == [0, 1, 1, 1, 2]
        assert i_right.tolist() == [1, 0, 2, 4, 3]

    def test_sparse_unique_build_keys_keep_the_generic_path(
        self, rng, probes
    ):
        left = _keyed(("k",), (10**6,), {"k": [5, 999_999]}, rng)
        right = _keyed(("k",), (10**6,), {"k": [999_999, 5]}, rng)
        i_left, i_right = join_match_indices(
            left, right, ("k",), cache=GroupIndexCache()
        )
        assert probes == []
        assert i_left.tolist() == [0, 1] and i_right.tolist() == [1, 0]

    def test_empty_build_side(self, rng, probes):
        left = _keyed(("k",), (40,), {"k": [3, 4]}, rng)
        right = _keyed(("k", "z"), (40, 2), {"k": [], "z": []}, rng)
        joined = product_join(left, right, SUM_PRODUCT)
        assert joined.ntuples == 0 and probes == []

    def test_cross_product_unchanged(self, rng, probes, monkeypatch):
        left = _keyed(("a",), (3,), {"a": [0, 1, 2]}, rng)
        right = _keyed(("z",), (2,), {"z": [1, 0]}, rng)
        direct, generic = self._both_paths(
            lambda: product_join(left, right, SUM_PRODUCT), monkeypatch
        )
        assert probes == []
        _assert_same_relation(direct, generic)
        assert direct.ntuples == 6

    def test_composite_key(self, rng, probes, monkeypatch):
        left = _keyed(
            ("a", "b", "c"), (4, 5, 9),
            {"a": [0, 3, 1, 3, 2], "b": [1, 4, 0, 4, 2],
             "c": [0, 1, 2, 3, 4]}, rng,
        )
        right = _keyed(
            ("a", "b"), (4, 5), {"a": [3, 0, 1], "b": [4, 1, 1]}, rng
        )
        direct, generic = self._both_paths(
            lambda: product_join(left, right, SUM_PRODUCT), monkeypatch
        )
        assert len(probes) == 1
        _assert_same_relation(direct, generic)
        assert direct.ntuples == 3

    def test_through_quotient_join(self, rng, probes, monkeypatch):
        left = _keyed(
            ("k", "a"), (40, 9), {"k": [5, 3, 5, 8], "a": [0, 1, 2, 3]}, rng
        )
        right = _keyed(("k",), (40,), {"k": [3, 5, 4]}, rng)
        direct, generic = self._both_paths(
            lambda: quotient_join(left, right, SUM_PRODUCT), monkeypatch
        )
        assert len(probes) == 1
        _assert_same_relation(direct, generic)
        assert direct.ntuples == 3

    def test_through_apply_patch(self, rng, probes, monkeypatch):
        target = _keyed(
            ("k", "a"), (40, 9),
            {"k": [5, 3, 5, 8, 4], "a": [0, 1, 2, 3, 4]}, rng,
        )
        patch = _keyed(("k",), (40,), {"k": [5, 4]}, rng)
        direct, generic = self._both_paths(
            lambda: apply_patch(target, patch, SUM_PRODUCT), monkeypatch
        )
        assert len(probes) == 1
        _assert_same_relation(direct, generic)
        want = target.measure.copy()
        want[[0, 2]] *= patch.measure[0]
        want[4] *= patch.measure[1]
        assert np.array_equal(direct.measure, want)
        # The fully matched case: every target row has one patch row.
        whole = _keyed(("k",), (40,), {"k": [8, 3, 5, 4]}, rng)
        direct, generic = self._both_paths(
            lambda: apply_patch(target, whole, SUM_PRODUCT), monkeypatch
        )
        _assert_same_relation(direct, generic)

    def test_shared_left_columns_cannot_reach_the_input(self, rng):
        """Every probe row matched once: the output reuses the left
        columns instead of gathering them — read-only, so writing
        through the output can never change the input relation."""
        left = _keyed(
            ("k", "a"), (40, 9), {"k": [5, 3, 5, 4], "a": [0, 1, 2, 3]}, rng
        )
        right = _keyed(("k", "z"), (40, 2), {"k": [3, 5, 4], "z": [1, 0, 1]}, rng)
        before = {n: c.copy() for n, c in left.columns.items()}
        measure_before = left.measure.copy()
        joined = product_join(left, right, SUM_PRODUCT)
        assert joined.ntuples == left.ntuples
        for name in left.var_names:
            assert np.shares_memory(joined.columns[name], left.columns[name])
            with pytest.raises(ValueError, match="read-only"):
                joined.columns[name][0] = 7
            assert left.columns[name].flags.writeable
        assert not np.shares_memory(joined.measure, left.measure)
        joined.measure[:] = 0.0
        for name, column in before.items():
            assert np.array_equal(left.columns[name], column)
        assert np.array_equal(left.measure, measure_before)
        # The frozen columns keep flowing through later operators.
        again = product_join(joined, right, SUM_PRODUCT)
        assert again.ntuples == left.ntuples
