"""Unit tests for plan nodes, annotation, printing, and execution."""

import pytest

from repro.catalog import Catalog
from repro.algebra import marginalize, product_join, restrict
from repro.cost import IOCostModel, SimpleCostModel
from repro.data import complete_relation, var
from repro.errors import PlanError
from repro.plans import (
    ExecutionContext,
    GroupBy,
    ProductJoin,
    Scan,
    Select,
    annotate,
    execute,
    explain,
    plan_cost,
)
from repro.semiring import MIN_SUM, SUM_PRODUCT
from repro.storage import BufferPool


@pytest.fixture
def small_catalog(rng):
    a, b, c = var("a", 4), var("b", 3), var("c", 2)
    cat = Catalog()
    cat.register(complete_relation([a, b], rng=rng, name="s1"))
    cat.register(complete_relation([b, c], rng=rng, name="s2"))
    return cat


class TestNodes:
    def test_base_tables(self, small_catalog):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        assert plan.base_tables() == ("s1", "s2")

    def test_count_nodes(self):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        assert plan.count_nodes() == 4
        assert plan.count_nodes(Scan) == 2
        assert plan.count_nodes(GroupBy) == 1

    def test_is_linear(self):
        linear = ProductJoin(ProductJoin(Scan("a"), Scan("b")), Scan("c"))
        assert linear.is_linear()
        bushy = ProductJoin(
            ProductJoin(Scan("a"), Scan("b")),
            ProductJoin(Scan("c"), Scan("d")),
        )
        assert not bushy.is_linear()

    def test_groupby_through_select_is_linear(self):
        plan = ProductJoin(Scan("a"), GroupBy(Scan("b"), ["x"]))
        assert plan.is_linear()

    def test_select_requires_predicate(self):
        with pytest.raises(PlanError):
            Select(Scan("a"), {})

    def test_output_variables_requires_annotation(self):
        with pytest.raises(PlanError):
            Scan("s1").output_variables()


class TestAnnotate:
    def test_fills_stats_and_costs(self, small_catalog):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        annotate(plan, small_catalog)
        for node in plan.walk():
            assert node.stats is not None
            assert node.total_cost is not None
        assert plan.stats.cardinality == 4
        assert plan.output_variables() == ("a",)

    def test_costs_accumulate(self, small_catalog):
        join = ProductJoin(Scan("s1"), Scan("s2"))
        plan = GroupBy(join, ["a"])
        annotate(plan, small_catalog)
        assert plan.total_cost == plan.op_cost + join.total_cost

    def test_groupby_on_missing_variable_rejected(self, small_catalog):
        plan = GroupBy(Scan("s1"), ["c"])
        with pytest.raises(PlanError):
            annotate(plan, small_catalog)

    def test_plan_cost_convenience(self, small_catalog):
        plan = ProductJoin(Scan("s1"), Scan("s2"))
        cost = plan_cost(plan, small_catalog)
        assert cost == 12 * 6  # |s1| * |s2| under the simple model

    def test_io_model_changes_costs(self, small_catalog):
        plan = ProductJoin(Scan("s1"), Scan("s2"))
        simple = plan_cost(plan, small_catalog, SimpleCostModel())
        io = plan_cost(plan, small_catalog, IOCostModel())
        assert simple != io

    def test_select_annotation(self, small_catalog):
        plan = Select(Scan("s1"), {"a": 1})
        annotate(plan, small_catalog)
        assert plan.stats.cardinality == pytest.approx(3.0)

    def test_stats_override(self, small_catalog):
        from repro.cost import select_stats

        base = small_catalog.stats("s1")
        reduced = select_stats(base, {"a": 0})
        plan = Scan("s1")
        annotate(plan, small_catalog, overrides={"s1": reduced})
        assert plan.stats.cardinality == reduced.cardinality


class TestExplain:
    def test_tree_rendering(self, small_catalog):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        text = explain(plan)
        assert "GroupBy(a)" in text
        assert text.count("Scan") == 2
        # Children indented under parents.
        lines = text.splitlines()
        assert lines[0].startswith("GroupBy")
        assert lines[1].startswith("  ProductJoin")

    def test_annotations_rendered(self, small_catalog):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        annotate(plan, small_catalog)
        assert "card=" in explain(plan)
        assert "cost=" in explain(plan)

    def test_empty_groupby_symbol(self):
        assert "∅" in GroupBy(Scan("x"), []).label()


class TestExecutor:
    def test_matches_algebra_oracle(self, small_catalog):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        result, stats = execute(plan, small_catalog, SUM_PRODUCT)
        expected = marginalize(
            product_join(
                small_catalog.relation("s1"),
                small_catalog.relation("s2"),
                SUM_PRODUCT,
            ),
            ["a"],
            SUM_PRODUCT,
        )
        assert result.equals(expected, SUM_PRODUCT)
        assert stats.page_reads >= 2
        assert stats.operators_run == 4

    def test_select_node(self, small_catalog):
        plan = Select(Scan("s1"), {"a": 1})
        result, _ = execute(plan, small_catalog, SUM_PRODUCT)
        expected = restrict(small_catalog.relation("s1"), {"a": 1})
        assert result.equals(expected, SUM_PRODUCT)

    def test_min_sum_execution(self, small_catalog):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["c"])
        result, _ = execute(plan, small_catalog, MIN_SUM)
        expected = marginalize(
            product_join(
                small_catalog.relation("s1"),
                small_catalog.relation("s2"),
                MIN_SUM,
            ),
            ["c"],
            MIN_SUM,
        )
        assert result.equals(expected, MIN_SUM)

    def test_unknown_table(self, small_catalog):
        with pytest.raises(PlanError):
            execute(Scan("ghost"), small_catalog, SUM_PRODUCT)

    def test_plain_mapping_environment(self, rng):
        a = var("a", 3)
        rel = complete_relation([a], rng=rng, name="r")
        result, stats = execute(Scan("r"), {"r": rel}, SUM_PRODUCT)
        assert result.equals(rel, SUM_PRODUCT)

    def test_buffer_reuse_across_queries(self, small_catalog):
        pool = BufferPool()
        executor = ExecutionContext(small_catalog, SUM_PRODUCT, pool=pool)
        plan = ProductJoin(Scan("s1"), Scan("s2"))
        _, stats1 = executor.run(plan)
        _, stats2 = executor.run(plan)
        assert stats2.page_reads == 0  # everything cached
        assert stats2.buffer_hits > 0

    def test_custom_empty_pool_is_honored(self, small_catalog):
        """Regression: a freshly constructed (empty, hence falsy) pool
        must not be silently replaced by the default one."""
        pool = BufferPool(capacity_pages=1)
        executor = ExecutionContext(small_catalog, SUM_PRODUCT, pool=pool)
        assert executor.pool is pool

    def test_tiny_pool_rereads_pages(self, rng):
        big = complete_relation(
            [var("x", 400), var("y", 40)], rng=rng, name="big"
        )
        cat = Catalog()
        cat.register(big)
        pool = BufferPool(capacity_pages=2)
        executor = ExecutionContext(cat, SUM_PRODUCT, pool=pool)
        _, first = executor.run(Scan("big"))
        _, second = executor.run(Scan("big"))
        assert second.page_reads == first.page_reads  # nothing cached
        assert second.buffer_hits == 0

    def test_spill_charged_for_large_results(self, rng):
        big1 = complete_relation([var("x", 300), var("y", 300)], rng=rng, name="b1")
        big2 = complete_relation([var("y", 300), var("z", 2)], rng=rng, name="b2")
        cat = Catalog()
        cat.register_all([big1, big2])
        plan = ProductJoin(Scan("b1"), Scan("b2"))
        executor = ExecutionContext(cat, SUM_PRODUCT, workmem_pages=4)
        _, stats = executor.run(plan)
        assert stats.page_writes > 0
