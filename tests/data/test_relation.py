"""Unit tests for FunctionalRelation (Definition 1)."""

import numpy as np
import pytest

from repro.data import FunctionalRelation, complete_relation, var
from repro.errors import FunctionalDependencyError, SchemaError
from repro.semiring import SUM_PRODUCT


@pytest.fixture
def ab():
    return var("a", 3), var("b", 2)


class TestConstruction:
    def test_from_rows(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows(
            [a, b], [(0, 0, 1.5), (1, 1, 2.5)], name="r"
        )
        assert rel.ntuples == 2
        assert rel.var_names == ("a", "b")
        assert rel.value_at({"a": 0, "b": 0}) == 1.5

    def test_fd_violation_detected(self, ab):
        a, b = ab
        with pytest.raises(FunctionalDependencyError):
            FunctionalRelation.from_rows(
                [a, b], [(0, 0, 1.0), (0, 0, 2.0)]
            )

    def test_fd_duplicate_same_measure_still_rejected(self, ab):
        # The FD is about rows, not values: duplicate keys are invalid.
        a, b = ab
        with pytest.raises(FunctionalDependencyError):
            FunctionalRelation.from_rows(
                [a, b], [(1, 1, 2.0), (1, 1, 2.0)]
            )

    def test_fd_error_names_the_first_offending_pair(self):
        # Same message whether the duplicate test counted (dense keys)
        # or sorted (a key space too sparse to count over).
        for size in (6, 10**7):
            a = var("a", size)
            with pytest.raises(FunctionalDependencyError) as caught:
                FunctionalRelation(
                    [a],
                    {"a": np.array([size - 1, 2, 0, 2, size - 1])},
                    np.array([1.0, 2.0, 3.0, 4.0, 5.0]),
                )
            assert str(caught.value) == (
                "FD violated: rows 1 and 3 share variables {'a': 2} "
                f"with measures {np.float64(2.0)!r} and {np.float64(4.0)!r}"
            )

    def test_fd_holds_on_dense_and_sparse_keys(self):
        for size in (6, 10**7):
            a = var("a", size)
            rel = FunctionalRelation(
                [a], {"a": np.array([size - 1, 2, 0])}, np.ones(3)
            )
            assert rel.ntuples == 3

    def test_column_length_mismatch(self, ab):
        a, b = ab
        with pytest.raises(SchemaError):
            FunctionalRelation(
                [a, b],
                {"a": np.array([0]), "b": np.array([0, 1])},
                np.array([1.0, 2.0]),
            )

    def test_out_of_domain_code(self, ab):
        a, b = ab
        with pytest.raises(SchemaError):
            FunctionalRelation(
                [a, b],
                {"a": np.array([5]), "b": np.array([0])},
                np.array([1.0]),
            )

    def test_missing_column(self, ab):
        a, b = ab
        with pytest.raises(SchemaError):
            FunctionalRelation([a, b], {"a": np.array([0])}, np.array([1.0]))

    def test_extra_column(self, ab):
        a, b = ab
        with pytest.raises(SchemaError):
            FunctionalRelation(
                [a],
                {"a": np.array([0]), "b": np.array([0])},
                np.array([1.0]),
            )

    def test_constant(self):
        rel = FunctionalRelation.constant(42.0)
        assert rel.arity == 0
        assert rel.ntuples == 1
        assert rel.measure[0] == 42.0

    def test_zero_variable_multirow_rejected(self):
        with pytest.raises(FunctionalDependencyError):
            FunctionalRelation([], {}, np.array([1.0, 2.0]))

    def test_row_width_mismatch(self, ab):
        a, b = ab
        with pytest.raises(SchemaError):
            FunctionalRelation.from_rows([a, b], [(0, 1.0)])


class TestProperties:
    def test_completeness(self, ab):
        a, b = ab
        rel = complete_relation([a, b])
        assert rel.is_complete()
        assert rel.domain_size() == 6

    def test_incomplete(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0)])
        assert not rel.is_complete()

    def test_value_at_missing(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0)])
        with pytest.raises(KeyError):
            rel.value_at({"a": 2, "b": 1})


class TestEquality:
    def test_equals_up_to_row_order(self, ab):
        a, b = ab
        r1 = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0), (1, 1, 2.0)])
        r2 = FunctionalRelation.from_rows([a, b], [(1, 1, 2.0), (0, 0, 1.0)])
        assert r1.equals(r2, SUM_PRODUCT)

    def test_equals_up_to_column_order(self, ab):
        a, b = ab
        r1 = FunctionalRelation.from_rows([a, b], [(0, 1, 3.0)])
        r2 = FunctionalRelation.from_rows([b, a], [(1, 0, 3.0)])
        assert r1.equals(r2, SUM_PRODUCT)

    def test_not_equal_different_measure(self, ab):
        a, b = ab
        r1 = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0)])
        r2 = FunctionalRelation.from_rows([a, b], [(0, 0, 9.0)])
        assert not r1.equals(r2, SUM_PRODUCT)

    def test_not_equal_different_schema(self, ab):
        a, b = ab
        r1 = FunctionalRelation.from_rows([a], [(0, 1.0)])
        r2 = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0)])
        assert not r1.equals(r2, SUM_PRODUCT)

    def test_ignore_zero_rows(self, ab):
        a, b = ab
        r1 = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0), (1, 1, 0.0)])
        r2 = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0)])
        assert r1.equals(r2, SUM_PRODUCT, ignore_zero_rows=True)
        assert not r1.equals(r2, SUM_PRODUCT)


class TestManipulation:
    def test_take(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows(
            [a, b], [(0, 0, 1.0), (1, 0, 2.0), (2, 1, 3.0)]
        )
        sub = rel.take(np.array([2, 0]))
        assert sub.ntuples == 2
        assert sub.measure.tolist() == [3.0, 1.0]

    def test_reorder(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 1, 5.0)])
        swapped = rel.reorder(["b", "a"])
        assert swapped.var_names == ("b", "a")
        assert swapped.value_at({"a": 0, "b": 1}) == 5.0

    def test_reorder_not_permutation(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 1, 5.0)])
        with pytest.raises(SchemaError):
            rel.reorder(["a"])

    def test_rename(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 1, 5.0)])
        renamed = rel.rename({"a": "x"})
        assert renamed.var_names == ("x", "b")
        assert renamed.variables["x"].size == 3

    def test_with_measure_length_check(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 1, 5.0)])
        with pytest.raises(SchemaError):
            rel.with_measure(np.array([1.0, 2.0]))

    def test_copy_is_deep_for_columns(self, ab):
        a, b = ab
        rel = FunctionalRelation.from_rows([a, b], [(0, 1, 5.0)])
        dup = rel.copy()
        dup.columns["a"][0] = 2
        assert rel.columns["a"][0] == 0

    def test_head_formats(self, ab):
        a, b = ab
        rel = complete_relation([a, b], name="r")
        text = rel.head(2)
        assert "a\tb\tf" in text
        assert "more rows" in text

    def test_labels_in_iter_rows(self):
        c = var("c", 2, labels=("no", "yes"))
        rel = FunctionalRelation.from_rows([c], [("yes", 0.7), ("no", 0.3)])
        rows = list(rel.iter_rows(labels=True))
        assert rows[0][0] == "yes"


class TestKeyCodes:
    def test_key_codes_match_lexicographic(self, ab):
        a, b = ab
        rel = complete_relation([a, b])
        keys = rel.key_codes()
        assert sorted(keys.tolist()) == list(range(6))

    def test_empty_key_names(self, ab):
        a, b = ab
        rel = complete_relation([a, b])
        keys = rel.key_codes([])
        assert (keys == 0).all()

    def test_huge_domain_fallback(self):
        # Domains whose product overflows int64 take the unique-rank path.
        big1 = var("x", 2**40)
        big2 = var("y", 2**40)
        rel = FunctionalRelation(
            [big1, big2],
            {
                "x": np.array([0, 2**39, 5], dtype=np.int64),
                "y": np.array([1, 1, 2], dtype=np.int64),
            },
            np.array([1.0, 2.0, 3.0]),
        )
        keys = rel.key_codes()
        assert len(np.unique(keys)) == 3
