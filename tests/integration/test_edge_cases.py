"""Numeric and structural edge cases across the stack."""

import numpy as np
import pytest

from repro.algebra import marginalize, product_join
from repro.catalog import Catalog
from repro.data import FunctionalRelation, complete_relation, var
from repro.errors import QueryError
from repro.optimizer import CSPlusNonlinear, QuerySpec, VariableElimination
from repro.plans import (
    ExecutionContext,
    GroupBy,
    IndexScan,
    ProductJoin,
    Scan,
    Select,
    SemiJoin,
    evaluate,
    execute,
)
from repro.semiring import MIN_SUM, SUM_PRODUCT


class TestDegenerateDomains:
    def test_domain_of_size_one(self):
        a, b = var("a", 1), var("b", 3)
        s1 = complete_relation([a, b], name="s1")
        s2 = complete_relation([b], name="s2")
        cat = Catalog()
        cat.register_all([s1, s2])
        spec = QuerySpec(tables=("s1", "s2"), query_vars=("a",))
        result = CSPlusNonlinear().optimize(spec, cat)
        got, _ = execute(result.plan, cat, SUM_PRODUCT)
        assert got.ntuples == 1

    def test_single_row_relations(self):
        a, b = var("a", 5), var("b", 5)
        s1 = FunctionalRelation.from_rows([a, b], [(2, 3, 4.0)], name="s1")
        s2 = FunctionalRelation.from_rows([b], [(3, 2.0)], name="s2")
        cat = Catalog()
        cat.register_all([s1, s2])
        spec = QuerySpec(tables=("s1", "s2"), query_vars=("a",))
        for opt in (CSPlusNonlinear(), VariableElimination("degree")):
            result = opt.optimize(spec, cat)
            got, _ = execute(result.plan, cat, SUM_PRODUCT)
            assert got.to_dict() == {(2,): 8.0}

    def test_empty_join_result_through_plan(self):
        a, b = var("a", 3), var("b", 3)
        s1 = FunctionalRelation.from_rows([a, b], [(0, 0, 1.0)], name="s1")
        s2 = FunctionalRelation.from_rows([b], [(2, 1.0)], name="s2")
        cat = Catalog()
        cat.register_all([s1, s2])
        spec = QuerySpec(tables=("s1", "s2"), query_vars=("a",))
        result = CSPlusNonlinear().optimize(spec, cat)
        got, _ = execute(result.plan, cat, SUM_PRODUCT)
        assert got.ntuples == 0

    def test_selection_matching_nothing(self, tiny_supply_chain):
        sc = tiny_supply_chain
        # A tid in the domain that no ctdeals row carries: drop its
        # rows from a copy of ctdeals.
        missing = 0
        deals = sc.catalog.relation("ctdeals")
        cat = Catalog()
        for table in sc.tables:
            relation = sc.catalog.relation(table)
            if table == "ctdeals":
                relation = deals.take(
                    np.flatnonzero(deals.columns["tid"] != missing)
                )
                assert 0 < relation.ntuples < deals.ntuples
            cat.register(relation, table)
        spec = QuerySpec(
            tables=sc.tables, query_vars=("cid",),
            selections={"tid": missing},
        )
        result = CSPlusNonlinear().optimize(spec, cat)
        got, _ = execute(result.plan, cat, SUM_PRODUCT)
        assert got.ntuples == 0


class TestEmptyRelationsThroughOperators:
    """A zero-tuple relation must flow through every physical operator."""

    @pytest.fixture
    def env(self):
        a, b, c = var("a", 3), var("b", 4), var("c", 2)
        rng = np.random.default_rng(9)
        return {
            "empty": FunctionalRelation.from_rows([a, b], [], name="empty"),
            "full": complete_relation([b, c], rng=rng, name="full"),
        }

    def _eval(self, plan, env):
        return evaluate(plan, ExecutionContext(env, SUM_PRODUCT))

    def test_scan_empty(self, env):
        out = self._eval(Scan("empty"), env)
        assert out.ntuples == 0 and out.arity == 2

    def test_select_on_empty(self, env):
        out = self._eval(Select(Scan("empty"), {"a": 1}), env)
        assert out.ntuples == 0

    def test_product_join_empty_either_side(self, env):
        for plan in (
            ProductJoin(Scan("empty"), Scan("full")),
            ProductJoin(Scan("full"), Scan("empty")),
            ProductJoin(Scan("empty"), Scan("full"), method="sort_merge"),
        ):
            out = self._eval(plan, env)
            assert out.ntuples == 0
            assert set(v.name for v in out.variables) == {"a", "b", "c"}

    def test_group_by_empty_both_methods(self, env):
        for method in GroupBy.GROUP_METHODS:
            out = self._eval(
                GroupBy(Scan("empty"), ["a"], method=method), env
            )
            assert out.ntuples == 0

    def test_group_by_to_scalar_on_empty(self, env):
        # Full marginalization of nothing: the empty sum, i.e. the
        # semiring's additive identity.
        out = self._eval(GroupBy(Scan("empty"), []), env)
        assert out.ntuples == 1
        assert out.measure[0] == SUM_PRODUCT.zero

    def test_semijoin_empty_target_and_source(self, env):
        for kind in SemiJoin.KINDS:
            out = self._eval(
                SemiJoin(Scan("empty"), Scan("full"), kind), env
            )
            assert out.ntuples == 0
        out = self._eval(
            SemiJoin(Scan("full"), Scan("empty"), "product"), env
        )
        assert out.ntuples == 0  # no matching source groups survive

    def test_index_scan_on_empty_relation(self, env):
        cat = Catalog()
        cat.register(env["empty"])
        cat.create_index("empty", "a")
        got, _ = execute(IndexScan("empty", {"a": 0}), cat, SUM_PRODUCT)
        assert got.ntuples == 0

    def test_full_pipeline_over_empty_base(self, env):
        plan = GroupBy(
            Select(ProductJoin(Scan("empty"), Scan("full")), {"c": 1}),
            ["a"],
        )
        out = self._eval(plan, env)
        assert out.ntuples == 0


class TestZeroProbabilityEvidence:
    def test_impossible_evidence_raises_query_error(self):
        from repro.bayes import BayesianNetwork, MPFInference
        from repro.bayes.cpd import CPD

        # B is deterministically equal to A; evidence {A=0, B=1} has
        # zero mass, so the posterior cannot be normalized.
        A, B = var("A", 2), var("B", 2)
        bn = BayesianNetwork(
            [
                CPD(A, (), np.array([0.5, 0.5])),
                CPD(B, (A,), np.array([[1.0, 0.0], [0.0, 1.0]])),
            ]
        )
        mpf = MPFInference(bn)
        with pytest.raises(QueryError, match="zero"):
            mpf.query("A", evidence={"A": 0, "B": 1})

    def test_possible_evidence_still_fine(self):
        from repro.bayes import BayesianNetwork, MPFInference
        from repro.bayes.cpd import CPD

        A, B = var("A", 2), var("B", 2)
        bn = BayesianNetwork(
            [
                CPD(A, (), np.array([0.5, 0.5])),
                CPD(B, (A,), np.array([[1.0, 0.0], [0.0, 1.0]])),
            ]
        )
        posterior = MPFInference(bn).query("A", evidence={"B": 1})
        assert posterior.value_at({"A": 1}) == pytest.approx(1.0)


class TestBatchSizeExtremes:
    def _database(self):
        from repro.engine import Database
        from repro.query import MPFQuery, MPFView

        rng = np.random.default_rng(4)
        a, b = var("a", 3), var("b", 4)
        db = Database()
        db.register(complete_relation([a, b], rng=rng, name="r_ab"))
        db.create_view("v", ("r_ab",))
        view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
        return db, MPFQuery(view, ("a",))

    def test_empty_batch_rejected(self):
        db, _ = self._database()
        with pytest.raises(QueryError, match="at least one"):
            db.run_batch([])

    def test_single_query_batch_matches_solo_run(self):
        db, query = self._database()
        batch = db.run_batch([query])
        assert len(batch.succeeded) == 1 and not batch.failed
        solo = self._database()[0].run_query(query)
        assert batch.reports[0].result.equals(solo.result, SUM_PRODUCT)


class TestNumericExtremes:
    def test_huge_measures_do_not_overflow_into_nan(self):
        a, b = var("a", 3), var("b", 3)
        s1 = complete_relation(
            [a, b], measure_fn=lambda c: np.full(9, 1e150)
        ).with_name("s1")
        s2 = complete_relation(
            [b], measure_fn=lambda c: np.full(3, 1e150)
        ).with_name("s2")
        joined = product_join(s1, s2, SUM_PRODUCT)
        # 1e300 is representable; the sum as well.
        assert np.isfinite(joined.measure).all()

    def test_min_sum_with_infinities(self):
        a = var("a", 2)
        s1 = FunctionalRelation.from_rows(
            [a], [(0, np.inf), (1, 3.0)], name="s1"
        )
        s2 = FunctionalRelation.from_rows(
            [a], [(0, 1.0), (1, 2.0)], name="s2"
        )
        joined = product_join(s1, s2, MIN_SUM)
        total = marginalize(joined, [], MIN_SUM)
        assert total.measure[0] == 5.0  # the a=0 path is "blocked"

    def test_zero_probability_rows_flow_through(self):
        a, b = var("a", 2), var("b", 2)
        s1 = FunctionalRelation.from_rows(
            [a, b], [(0, 0, 0.0), (0, 1, 1.0), (1, 0, 0.5), (1, 1, 0.5)],
            name="s1",
        )
        s2 = FunctionalRelation.from_rows(
            [b], [(0, 0.25), (1, 0.75)], name="s2"
        )
        out = marginalize(product_join(s1, s2, SUM_PRODUCT), ["a"],
                          SUM_PRODUCT)
        assert out.value_at({"a": 0}) == pytest.approx(0.75)
        assert out.value_at({"a": 1}) == pytest.approx(0.125 + 0.375)


class TestWideSchemas:
    def test_many_tables_linear_chain(self):
        """A 9-table chain exercises bitmask DP breadth."""
        rng = np.random.default_rng(0)
        variables = [var(f"v{i}", 3) for i in range(10)]
        cat = Catalog()
        names = []
        for i in range(9):
            rel = complete_relation(
                [variables[i], variables[i + 1]], rng=rng, name=f"t{i}"
            )
            names.append(cat.register(rel))
        spec = QuerySpec(tables=tuple(names), query_vars=("v0",))
        ve = VariableElimination("width").optimize(spec, cat)
        got, _ = execute(ve.plan, cat, SUM_PRODUCT)
        assert got.ntuples == 3

    def test_repeated_variable_across_many_tables(self):
        rng = np.random.default_rng(1)
        hub = var("h", 4)
        cat = Catalog()
        names = []
        for i in range(6):
            other = var(f"u{i}", 3)
            rel = complete_relation([hub, other], rng=rng, name=f"t{i}")
            names.append(cat.register(rel))
        spec = QuerySpec(tables=tuple(names), query_vars=("h",))
        result = VariableElimination("width").optimize(spec, cat)
        got, _ = execute(result.plan, cat, SUM_PRODUCT)
        from functools import reduce

        joint = reduce(
            lambda a, b: product_join(a, b, SUM_PRODUCT),
            [cat.relation(t) for t in names],
        )
        assert got.equals(
            marginalize(joint, ["h"], SUM_PRODUCT), SUM_PRODUCT
        )
