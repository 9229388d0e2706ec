"""QueryGuard: deadlines, budgets, cancellation, ceilings, degrade."""

import pytest

from repro.catalog import Catalog
from repro.data import complete_relation, var
from repro.errors import (
    MemoryLimitExceeded,
    QueryCancelled,
    QueryTimeout,
)
from repro.plans import (
    ExecutionContext,
    GroupBy,
    ProductJoin,
    QueryGuard,
    Scan,
    evaluate,
)
from repro.obs.metrics import MetricsRegistry
from repro.semiring import SUM_PRODUCT
from repro.storage import IOStats, PageGeometry


class FakeClock:
    def __init__(self, now=0.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def relations(rng):
    a, b, c = var("a", 4), var("b", 3), var("c", 2)
    return {
        "s1": complete_relation([a, b], rng=rng, name="s1"),
        "s2": complete_relation([b, c], rng=rng, name="s2"),
    }


PLAN = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])


class TestDeadline:
    def test_wall_clock_deadline_raises(self, relations):
        clock = FakeClock()
        guard = QueryGuard(deadline_seconds=10.0, clock=clock)
        stats = IOStats()
        guard.restart(stats)
        guard.check(stats)  # within deadline
        clock.advance(11.0)
        with pytest.raises(QueryTimeout):
            guard.check(stats)

    def test_restart_opens_fresh_window(self, relations):
        clock = FakeClock()
        guard = QueryGuard(deadline_seconds=10.0, clock=clock)
        stats = IOStats()
        guard.restart(stats)
        clock.advance(11.0)
        guard.restart(stats)
        guard.check(stats)  # new window, no timeout

    def test_cost_budget_is_deterministic(self, relations):
        stats = IOStats()
        guard = QueryGuard(cost_budget=500.0)
        guard.restart(stats)
        stats.charge_cpu(400)
        guard.check(stats)
        stats.charge_cpu(200)
        with pytest.raises(QueryTimeout):
            guard.check(stats)

    def test_cost_budget_window_excludes_prior_work(self):
        stats = IOStats()
        stats.charge_cpu(10_000)  # earlier queries' spend
        guard = QueryGuard(cost_budget=500.0)
        guard.restart(stats)
        guard.check(stats)  # only spend since restart counts

    def test_tiny_cost_budget_stops_evaluation(self, relations):
        guard = QueryGuard(cost_budget=1.0)
        ctx = ExecutionContext(relations, SUM_PRODUCT, guard=guard)
        with pytest.raises(QueryTimeout):
            evaluate(PLAN, ctx)

    def test_unlimited_guard_never_fires(self, relations):
        guard = QueryGuard()
        ctx = ExecutionContext(relations, SUM_PRODUCT, guard=guard)
        result = evaluate(PLAN, ctx)
        assert result.ntuples == 4


class TestCancellation:
    def test_cancel_raises_on_next_check(self):
        guard = QueryGuard()
        stats = IOStats()
        guard.restart(stats)
        guard.cancel()
        assert guard.cancelled
        with pytest.raises(QueryCancelled):
            guard.check(stats)

    def test_cancellation_survives_restart(self):
        guard = QueryGuard()
        stats = IOStats()
        guard.cancel()
        guard.restart(stats)
        with pytest.raises(QueryCancelled):
            guard.check(stats)

    def test_uncancel_restores_service(self):
        guard = QueryGuard()
        stats = IOStats()
        guard.cancel()
        guard.uncancel()
        guard.restart(stats)
        guard.check(stats)

    def test_cancelled_guard_stops_evaluation(self, relations):
        guard = QueryGuard()
        guard.cancel()
        ctx = ExecutionContext(relations, SUM_PRODUCT, guard=guard)
        with pytest.raises(QueryCancelled):
            evaluate(PLAN, ctx)


class TestMemoryCeiling:
    def test_admit_pages_accumulates(self):
        guard = QueryGuard(memory_limit_pages=10)
        guard.restart()
        guard.admit_pages(6)
        guard.admit_pages(4)  # exactly at the ceiling: fine
        with pytest.raises(MemoryLimitExceeded):
            guard.admit_pages(1)

    def test_restart_resets_quota(self):
        guard = QueryGuard(memory_limit_pages=10)
        guard.restart()
        guard.admit_pages(10)
        guard.restart()
        guard.admit_pages(10)  # fresh window, fresh quota

    def test_no_limit_admits_anything(self):
        guard = QueryGuard()
        guard.restart()
        guard.admit_pages(10**9)

    def test_oversized_intermediate_aborts_query(self, rng):
        # ~8000-row join output: several pages of intermediates.
        a, b, c = var("a", 20), var("b", 20), var("c", 20)
        relations = {
            "s1": complete_relation([a, b], rng=rng, name="s1"),
            "s2": complete_relation([b, c], rng=rng, name="s2"),
        }
        guard = QueryGuard(memory_limit_pages=1)
        ctx = ExecutionContext(relations, SUM_PRODUCT, guard=guard)
        with pytest.raises(MemoryLimitExceeded):
            evaluate(GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"]), ctx)


class _DegradeTracer:
    def __init__(self):
        self.degraded = []

    def on_execute(self, node, result, delta):
        pass

    def on_memo_hit(self, node, result):
        pass

    def on_degrade(self, node, description):
        self.degraded.append((node.label(), description))


class _PlainTracer:
    """A tracer without the optional on_degrade hook."""

    def __init__(self):
        self.executed = 0

    def on_execute(self, node, result, delta):
        self.executed += 1

    def on_memo_hit(self, node, result):
        pass


class TestGracefulDegradation:
    @pytest.fixture
    def big_relations(self, rng):
        # 400 tuples of arity 2 -> more than one page.
        a, b, c = var("a", 20), var("b", 20), var("c", 2)
        return {
            "s1": complete_relation([a, b], rng=rng, name="s1"),
            "s2": complete_relation([b, c], rng=rng, name="s2"),
        }

    def _pages(self, relations, name):
        rel = relations[name]
        return PageGeometry(rel.arity).pages_for(rel.ntuples)

    def test_hash_join_degrades_to_sort_merge(self, big_relations):
        assert self._pages(big_relations, "s1") > 1
        guard = QueryGuard()
        tracer = _DegradeTracer()
        ctx = ExecutionContext(
            big_relations, SUM_PRODUCT, workmem_pages=1,
            guard=guard, tracer=tracer,
        )
        plan = ProductJoin(Scan("s1"), Scan("s2"), method="hash")
        result = evaluate(plan, ctx)
        assert result.ntuples == 20 * 20 * 2
        assert guard.degradations
        assert "sort-merge" in guard.degradations[0]
        assert tracer.degraded and tracer.degraded[0][0] == "ProductJoin"

    def test_hash_aggregation_degrades_to_sort(self, big_relations):
        guard = QueryGuard()
        ctx = ExecutionContext(
            big_relations, SUM_PRODUCT, workmem_pages=1, guard=guard
        )
        result = evaluate(GroupBy(Scan("s1"), ["a"], method="hash"), ctx)
        assert result.ntuples == 20
        assert any("sort" in d for d in guard.degradations)

    def test_degradation_disabled_raises(self, big_relations):
        guard = QueryGuard(allow_degrade=False)
        ctx = ExecutionContext(
            big_relations, SUM_PRODUCT, workmem_pages=1, guard=guard
        )
        plan = ProductJoin(Scan("s1"), Scan("s2"), method="hash")
        with pytest.raises(MemoryLimitExceeded):
            evaluate(plan, ctx)

    def test_degraded_result_matches_undegraded(self, big_relations):
        plan = GroupBy(
            ProductJoin(Scan("s1"), Scan("s2"), method="hash"),
            ["a"], method="hash",
        )
        plain = evaluate(
            plan, ExecutionContext(big_relations, SUM_PRODUCT)
        )
        guarded = evaluate(
            plan,
            ExecutionContext(
                big_relations, SUM_PRODUCT, workmem_pages=1,
                guard=QueryGuard(),
            ),
        )
        assert guarded.equals(plain, SUM_PRODUCT)

    def test_tracer_without_on_degrade_is_tolerated(self, big_relations):
        tracer = _PlainTracer()
        ctx = ExecutionContext(
            big_relations, SUM_PRODUCT, workmem_pages=1,
            guard=QueryGuard(), tracer=tracer,
        )
        plan = ProductJoin(Scan("s1"), Scan("s2"), method="hash")
        evaluate(plan, ctx)
        assert tracer.executed > 0

    def test_no_degradation_without_guard(self, big_relations):
        # Unguarded runs keep the historical spill behavior untouched.
        ctx = ExecutionContext(big_relations, SUM_PRODUCT, workmem_pages=1)
        plan = ProductJoin(Scan("s1"), Scan("s2"), method="hash")
        evaluate(plan, ctx)  # no guard, no degrade, no error

    def test_profile_reports_degradation(self, big_relations):
        from repro.obs import QueryTracer

        tracer = QueryTracer()
        ctx = ExecutionContext(
            big_relations, SUM_PRODUCT, workmem_pages=1,
            guard=QueryGuard(), tracer=tracer,
        )
        tracer.bind_stats(ctx.stats)
        evaluate(ProductJoin(Scan("s1"), Scan("s2"), method="hash"), ctx)
        rows = [op.to_dict() for op in tracer.operators]
        degraded = [row for row in rows if row["degraded"] is not None]
        assert [row["label"] for row in degraded] == ["ProductJoin"]
        assert degraded[0]["degraded"].startswith(
            "hash join degraded to sort-merge"
        )


class TestDegradationOnBothPaths:
    """The degrade decision is taken once per node on the merged input,
    so an unpartitioned run and a per-shard run agree on everything."""

    SHARDS = 3
    PLANS = {
        "join": ProductJoin(Scan("s1"), Scan("s2"), method="hash"),
        # Groups on `a` span the `b` shards: partials plus a combine.
        "groupby": GroupBy(Scan("s1"), ["a"], method="hash"),
    }

    def _catalog(self, partitioned):
        # Integer-valued measures: every sum is exact, so per-shard
        # partial aggregation cannot perturb the result bytes.
        a, b, c = var("a", 20), var("b", 20), var("c", 2)

        def measure(cols):
            return 1.0 + sum(cols.values()) % 5

        catalog = Catalog()
        catalog.register(complete_relation([a, b], measure, name="s1"))
        catalog.register(complete_relation([b, c], measure, name="s2"))
        if partitioned:
            catalog.partition_table("s1", "b", self.SHARDS)
            catalog.partition_table("s2", "b", self.SHARDS)
        return catalog

    def _build_pages(self):
        s1 = self._catalog(False).relation("s1")
        return PageGeometry(s1.arity).pages_for(s1.ntuples)

    @staticmethod
    def _result_bytes(relation):
        keys, measure = relation.sorted_snapshot()
        return keys.tobytes() + measure.tobytes()

    def _run(self, plan, partitioned, guard):
        registry = MetricsRegistry()
        ctx = ExecutionContext(
            self._catalog(partitioned), SUM_PRODUCT, workmem_pages=1,
            guard=guard, metrics=registry,
        )
        return evaluate(plan, ctx), registry.snapshot()

    @pytest.mark.parametrize("partitioned", [False, True])
    @pytest.mark.parametrize("kind", ["join", "groupby"])
    def test_degrades_once_per_node(self, kind, partitioned):
        pages = self._build_pages()
        assert pages > 1
        guard = QueryGuard()
        result, metrics = self._run(self.PLANS[kind], partitioned, guard)
        assert guard.degradations == [{
            "join": f"hash join degraded to sort-merge: build side "
                    f"({pages} pages) exceeds the memory allowance",
            "groupby": f"hash aggregation degraded to sort: table "
                       f"({pages} pages) exceeds the memory allowance",
        }[kind]]
        assert metrics.get("query.degradations") == 1
        if partitioned:
            assert metrics.get("shard.tasks") >= self.SHARDS
        else:
            assert metrics.get("shard.tasks") == 0
        # The undegraded, unpartitioned run is the reference.
        reference, _ = self._run(self.PLANS[kind], False, None)
        assert self._result_bytes(result) == self._result_bytes(reference)

    @pytest.mark.parametrize("partitioned", [False, True])
    @pytest.mark.parametrize("kind", ["join", "groupby"])
    def test_degradation_disabled_message(self, kind, partitioned):
        pages = self._build_pages()
        with pytest.raises(MemoryLimitExceeded) as raised:
            self._run(
                self.PLANS[kind], partitioned,
                QueryGuard(allow_degrade=False),
            )
        assert str(raised.value) == {
            "join": f"hash-join build side needs {pages} pages, over the "
                    "memory allowance, and degradation is disabled",
            "groupby": f"hash aggregation table needs {pages} pages, over "
                       "the memory allowance, and degradation is disabled",
        }[kind]


class TestExecutorIntegration:
    def test_run_with_guard_restores_context(self, relations):
        executor = ExecutionContext(relations, SUM_PRODUCT)
        guard = QueryGuard(cost_budget=10**9)
        result, stats = executor.run(PLAN, guard=guard)
        assert result.ntuples == 4
        assert executor.guard is None

    def test_run_guard_violation_restores_context(self, relations):
        executor = ExecutionContext(relations, SUM_PRODUCT)
        with pytest.raises(QueryTimeout):
            executor.run(PLAN, guard=QueryGuard(cost_budget=1.0))
        assert executor.guard is None
        # The executor still works afterwards.
        result, _ = executor.run(PLAN)
        assert result.ntuples == 4


class TestDatabaseGuardFactory:
    def test_make_guard_inherits_injected_clock(self):
        from repro.engine import Database

        clock = FakeClock(now=100.0)
        db = Database(clock=clock)
        guard = db.make_guard(deadline_seconds=10.0)
        stats = IOStats()
        guard.restart(stats)
        guard.check(stats)
        clock.advance(11.0)
        with pytest.raises(QueryTimeout):
            guard.check(stats)

    def test_make_guard_without_clock_uses_wall_default(self):
        from repro.engine import Database

        guard = Database().make_guard(deadline_seconds=3600.0)
        stats = IOStats()
        guard.restart(stats)
        guard.check(stats)  # an hour of wall clock has not passed

    def test_make_guard_explicit_clock_wins(self):
        from repro.engine import Database

        db_clock, guard_clock = FakeClock(), FakeClock()
        db = Database(clock=db_clock)
        guard = db.make_guard(clock=guard_clock)
        assert guard._clock is guard_clock
