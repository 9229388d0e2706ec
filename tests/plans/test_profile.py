"""Tests for the execution profiler."""

import pytest

from repro.catalog import Catalog
from repro.data import complete_relation, var
from repro.plans import (
    GroupBy,
    ProductJoin,
    Scan,
    execute,
    profile_execution,
)
from repro.semiring import SUM_PRODUCT


@pytest.fixture
def setting(rng):
    cat = Catalog()
    cat.register(complete_relation([var("a", 6), var("b", 5)], rng=rng,
                                   name="s1"))
    cat.register(complete_relation([var("b", 5), var("c", 4)], rng=rng,
                                   name="s2"))
    plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
    return cat, plan


class TestProfile:
    def test_result_matches_plain_execution(self, setting):
        cat, plan = setting
        profile = profile_execution(plan, cat, SUM_PRODUCT)
        expected, _ = execute(plan, cat, SUM_PRODUCT)
        assert profile.result.equals(expected, SUM_PRODUCT)

    def test_one_entry_per_operator(self, setting):
        cat, plan = setting
        profile = profile_execution(plan, cat, SUM_PRODUCT)
        assert len(profile.operators) == plan.count_nodes()
        labels = [op.label for op in profile.operators]
        assert labels[-1].startswith("GroupBy")  # root finishes last
        assert labels[0].startswith("Scan")

    def test_deltas_sum_to_total(self, setting):
        cat, plan = setting
        profile = profile_execution(plan, cat, SUM_PRODUCT)
        assert sum(op.tuples for op in profile.operators) == (
            profile.total.tuples_processed
        )
        assert sum(op.page_reads for op in profile.operators) == (
            profile.total.page_reads
        )
        assert sum(op.elapsed for op in profile.operators) == pytest.approx(
            profile.total.elapsed()
        )

    def test_scans_carry_the_reads(self, setting):
        cat, plan = setting
        profile = profile_execution(plan, cat, SUM_PRODUCT)
        for op in profile.operators:
            if op.label.startswith("Scan"):
                assert op.page_reads >= 1
            else:
                assert op.page_reads == 0

    def test_formatted_table(self, setting):
        cat, plan = setting
        text = profile_execution(plan, cat, SUM_PRODUCT).formatted()
        assert "operator" in text
        assert "total" in text
        assert "Scan(s1)" in text


class TestProfileReporting:
    """Regression: formatted() used to drop buffer hits, memo hits,
    and retries even though IOStats tracked all three."""

    def test_buffer_hits_column(self, setting):
        from repro.storage import BufferPool

        cat, plan = setting
        pool = BufferPool(capacity_pages=1024)
        profile_execution(plan, cat, SUM_PRODUCT, pool=pool)  # warm
        profile = profile_execution(plan, cat, SUM_PRODUCT, pool=pool)
        assert profile.total.buffer_hits > 0
        assert "hits" in profile.formatted().splitlines()[0]
        scans = [
            op for op in profile.operators if op.label.startswith("Scan")
        ]
        assert sum(op.buffer_hits for op in scans) == (
            profile.total.buffer_hits
        )

    def test_memo_hits_footer(self, setting):
        from repro.obs import QueryTracer
        from repro.plans import lower
        from repro.plans.profile import ExecutionProfile
        from repro.plans.runtime import ExecutionContext, evaluate_dag

        cat, plan = setting
        tracer = QueryTracer()
        ctx = ExecutionContext(cat, SUM_PRODUCT, tracer=tracer)
        tracer.bind_stats(ctx.stats)
        evaluate_dag(lower(plan), ctx)
        (result,) = evaluate_dag(lower(plan), ctx)  # served from memo
        profile = ExecutionProfile(
            result=result, operators=tracer.operators, total=ctx.stats
        )
        assert profile.total.memo_hits == 1
        text = profile.formatted()
        assert "memo hits: 1" in text
        assert "[memo]" in text

    def test_retries_column_and_footer(self, setting):
        from repro.plans import QueryGuard
        from repro.storage import BufferPool, Faults, PageId

        cat, plan = setting
        faults = Faults()
        heapfile = cat.heapfile("s1")
        for page_no in range(heapfile.n_pages):
            faults.target(
                "page.read", "transient",
                PageId(heapfile.file_id, page_no), times=1,
            )
        profile = profile_execution(
            plan, cat, SUM_PRODUCT,
            pool=BufferPool(faults=faults),
            guard=QueryGuard(retry_budget=1000),
        )
        assert profile.total.retries == heapfile.n_pages
        text = profile.formatted()
        assert f"retries: {heapfile.n_pages} (waited" in text
        scan_rows = [
            op for op in profile.operators if op.label == "Scan(s1)"
        ]
        assert scan_rows[0].retries == heapfile.n_pages

    def test_to_dict_round_trips(self, setting):
        import json

        cat, plan = setting
        profile = profile_execution(plan, cat, SUM_PRODUCT)
        operators = [op.to_dict() for op in profile.operators]
        trace = profile.trace.to_dict()
        assert json.loads(json.dumps(operators)) == operators
        assert json.loads(json.dumps(trace)) == trace
        assert len(operators) == plan.count_nodes()
        assert sum(op["elapsed"] for op in operators) == pytest.approx(
            profile.total.elapsed()
        )
        assert trace["name"] == "query"
