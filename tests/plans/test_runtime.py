"""The physical-operator runtime: context, memo, tracer, spill."""

import pytest

from repro.algebra import marginalize, product_join
from repro.algebra.semijoin import product_semijoin, update_semijoin
from repro.data import complete_relation, var
from repro.errors import PlanError
from repro.plans import (
    ExecutionContext,
    GroupBy,
    IndexScan,
    ProductJoin,
    Scan,
    SemiJoin,
    evaluate,
    evaluate_dag,
    lower,
)
from repro.plans.nodes import PlanNode
from repro.semiring import BOOLEAN, SUM_PRODUCT
from repro.storage import BufferPool, PageGeometry


@pytest.fixture
def relations(rng):
    a, b, c = var("a", 4), var("b", 3), var("c", 2)
    return {
        "s1": complete_relation([a, b], rng=rng, name="s1"),
        "s2": complete_relation([b, c], rng=rng, name="s2"),
    }


@pytest.fixture
def ctx(relations):
    return ExecutionContext(relations, SUM_PRODUCT)


class _RecordingTracer:
    def __init__(self):
        self.executed = []
        self.memoized = []

    def on_execute(self, node, result, delta):
        self.executed.append((node.label(), delta))

    def on_memo_hit(self, node, result):
        self.memoized.append(node.label())


class TestEvaluate:
    def test_matches_algebra(self, ctx, relations):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        result = evaluate(plan, ctx)
        expected = marginalize(
            product_join(relations["s1"], relations["s2"], SUM_PRODUCT),
            ["a"],
            SUM_PRODUCT,
        )
        assert result.equals(expected, SUM_PRODUCT)
        assert ctx.stats.page_reads > 0

    def test_unknown_table(self, ctx):
        with pytest.raises(PlanError):
            evaluate(Scan("ghost"), ctx)

    def test_shared_subplan_executes_once(self, ctx):
        join = ProductJoin(Scan("s1"), Scan("s2"))
        tracer = _RecordingTracer()
        ctx.tracer = tracer
        dag = lower([GroupBy(join, ["a"]), GroupBy(join, ["c"])])
        evaluate_dag(dag, ctx)
        labels = [label for label, _ in tracer.executed]
        assert labels.count("ProductJoin") == 1
        assert len(labels) == dag.unique_nodes
        assert not tracer.memoized


class TestMemo:
    def test_hit_across_calls_on_same_context(self, ctx):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        first = evaluate(plan, ctx)
        reads = ctx.stats.page_reads
        again = evaluate(plan, ctx)
        assert again.equals(first, SUM_PRODUCT)
        assert ctx.stats.page_reads == reads  # no IO the second time
        assert ctx.stats.memo_hits == 1

    def test_memoized_subtree_is_skipped(self, ctx):
        join = ProductJoin(Scan("s1"), Scan("s2"))
        evaluate(join, ctx)
        tracer = _RecordingTracer()
        ctx.tracer = tracer
        evaluate(GroupBy(join, ["a"]), ctx)
        # Only the GroupBy runs; the join comes from the memo and its
        # scans are never visited.
        assert [label for label, _ in tracer.executed] == ["GroupBy(a)"]
        assert tracer.memoized == ["ProductJoin"]

    def test_bind_invalidates_dependents(self, ctx, relations):
        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        evaluate(plan, ctx)
        doubled = relations["s1"].with_measure(relations["s1"].measure * 2)
        ctx.bind("s1", doubled)
        result = evaluate(plan, ctx)
        expected = marginalize(
            product_join(doubled, relations["s2"], SUM_PRODUCT),
            ["a"],
            SUM_PRODUCT,
        )
        assert result.equals(expected, SUM_PRODUCT)
        # Only Scan(s2) — independent of the rebound name — survives.
        assert ctx.stats.memo_hits == 1

    def test_bind_keeps_independent_entries(self, ctx, relations):
        s1_only = GroupBy(Scan("s1"), ["a"])
        s2_only = GroupBy(Scan("s2"), ["c"])
        evaluate(s1_only, ctx)
        evaluate(s2_only, ctx)
        ctx.bind("s1", relations["s1"])
        evaluate(s2_only, ctx)
        assert ctx.stats.memo_hits == 1

    def test_reset_memo(self, ctx):
        plan = GroupBy(Scan("s1"), ["a"])
        evaluate(plan, ctx)
        ctx.reset_memo()
        evaluate(plan, ctx)
        assert ctx.stats.memo_hits == 0


class TestSemiJoinOperator:
    def test_product_kind(self, ctx, relations):
        result = evaluate(SemiJoin(Scan("s1"), Scan("s2"), "product"), ctx)
        expected = product_semijoin(
            relations["s1"], relations["s2"], SUM_PRODUCT
        )
        assert result.equals(expected, SUM_PRODUCT)

    def test_update_kind(self, ctx, relations):
        result = evaluate(SemiJoin(Scan("s1"), Scan("s2"), "update"), ctx)
        expected = update_semijoin(
            relations["s1"], relations["s2"], SUM_PRODUCT
        )
        assert result.equals(expected, SUM_PRODUCT)

    def test_kind_validated(self):
        with pytest.raises(PlanError):
            SemiJoin(Scan("s1"), Scan("s2"), "sideways")

    def test_unknown_node_type_rejected(self, relations):
        class Mystery(PlanNode):
            def label(self):
                return "Mystery"

            def _key(self):
                return ("Mystery",)

        # Unregistered and registered on the schedule alike.
        for workers in (1, 2):
            ctx = ExecutionContext(relations, SUM_PRODUCT, workers=workers)
            with pytest.raises(PlanError, match="unknown plan node Mystery"):
                evaluate_dag(lower(Mystery()), ctx)
            assert not ctx.memo


class TestSpillAccounting:
    def _measure_pages(self, relations):
        joined = product_join(
            relations["s1"], relations["s2"], SUM_PRODUCT
        )
        return PageGeometry(joined.arity).pages_for(joined.ntuples), joined

    def test_no_spill_at_exact_budget(self, relations):
        pages, _ = self._measure_pages(relations)
        ctx = ExecutionContext(relations, SUM_PRODUCT, workmem_pages=pages)
        evaluate(ProductJoin(Scan("s1"), Scan("s2")), ctx)
        assert ctx.stats.page_writes == 0

    def test_spill_charges_exact_pages_past_budget(self, relations):
        pages, _ = self._measure_pages(relations)
        ctx = ExecutionContext(
            relations, SUM_PRODUCT, workmem_pages=pages - 1
        )
        evaluate(ProductJoin(Scan("s1"), Scan("s2")), ctx)
        assert ctx.stats.page_writes == pages


class TestContext:
    def test_supplied_empty_pool_is_used(self, relations):
        pool = BufferPool(capacity_pages=8)
        ctx = ExecutionContext(relations, SUM_PRODUCT, pool=pool)
        assert ctx.pool is pool

    def test_index_scan_needs_catalog(self, ctx):
        with pytest.raises(PlanError):
            evaluate(IndexScan("s1", {"a": 0}), ctx)

    def test_boolean_semiring_runs(self, relations):
        bool_rels = {
            name: rel.with_measure(rel.measure > rel.measure.mean())
            for name, rel in relations.items()
        }
        ctx = ExecutionContext(bool_rels, BOOLEAN)
        result = evaluate(
            GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"]), ctx
        )
        expected = marginalize(
            product_join(bool_rels["s1"], bool_rels["s2"], BOOLEAN),
            ["a"],
            BOOLEAN,
        )
        assert result.equals(expected, BOOLEAN)
