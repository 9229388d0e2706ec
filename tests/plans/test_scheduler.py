"""Unit tests for the critical-path clock and the ordered pool."""

import threading

import pytest

from repro.catalog import Catalog
from repro.data import complete_relation, var
from repro.errors import PlanError
from repro.plans import GroupBy, ProductJoin, Scan, evaluate_dag, lower
from repro.plans.runtime import ExecutionContext
from repro.plans.scheduler import CriticalPathClock, OrderedPool
from repro.semiring import SUM_PRODUCT
from repro.storage import (
    DEFAULT_RETRY_POLICY,
    BufferPool,
    Faults,
    IOStats,
    PageId,
    read_with_retry,
)


def _context_run(workers, charge, column):
    """Dispatch ``charge`` over ``column`` as one operator's shard
    tasks, on the clock and stats of a context with ``workers`` modeled
    executors.

    The worker count lives in the context (it sizes the
    :class:`CriticalPathClock`); the pool takes none, and must behave
    the same whatever the count.
    """
    ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers)
    assert ctx.schedule.workers == workers
    shards = len(column)
    OrderedPool().run(
        ctx.schedule, ctx.stats, [()] * shards, "op", charge, column
    )


class TestCriticalPathClock:
    def test_rejects_zero_workers(self):
        with pytest.raises(ValueError):
            CriticalPathClock(0)

    def test_empty_schedule(self):
        clock = CriticalPathClock(4)
        report = clock.report()
        assert report.tasks == 0
        assert report.makespan == 0.0
        assert report.speedup == 1.0

    def test_serial_chain_has_no_speedup(self):
        clock = CriticalPathClock(4)
        prev = clock.add_task((), 10.0)
        for _ in range(4):
            prev = clock.add_task((prev,), 10.0)
        report = clock.report()
        assert report.serial_elapsed == 50.0
        assert report.makespan == 50.0
        assert report.speedup == 1.0

    def test_independent_tasks_pack_onto_workers(self):
        clock = CriticalPathClock(2)
        for _ in range(4):
            clock.add_task((), 10.0)
        # 4 x 10 over 2 workers: two rounds of two.
        assert clock.makespan() == 20.0
        assert clock.report().speedup == 2.0

    def test_one_worker_is_serial_sum(self):
        clock = CriticalPathClock(1)
        clock.add_task((), 3.0)
        clock.add_task((), 4.0)
        clock.add_task((0, 1), 5.0)
        assert clock.makespan() == clock.serial_elapsed() == 12.0

    def test_diamond_critical_path(self):
        clock = CriticalPathClock(8)
        top = clock.add_task((), 1.0)
        fast = clock.add_task((top,), 1.0)
        slow = clock.add_task((top,), 10.0)
        clock.add_task((fast, slow), 1.0)
        # 1 + max(1, 10) + 1: the slow branch is the critical path.
        assert clock.makespan() == 12.0

    def test_forward_and_out_of_range_deps_ignored(self):
        clock = CriticalPathClock(2)
        task = clock.add_task((5, -1), 2.0)  # no such tasks yet
        assert task == 0
        assert clock.makespan() == 2.0

    def test_makespan_never_beats_work_bound(self):
        clock = CriticalPathClock(3)
        for i in range(10):
            deps = (i - 1,) if i % 3 == 0 and i else ()
            clock.add_task(deps, float(i + 1))
        report = clock.report()
        assert report.makespan >= report.serial_elapsed / 3
        assert report.makespan <= report.serial_elapsed


class TestOrderedPool:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_results_in_order(self, workers):
        # One task per shard, in shard order, each registering what its
        # own charge cost on the clock.
        ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers)
        rows = [3, 0, 7, 1, 4]
        task_ids = OrderedPool().run(
            ctx.schedule, ctx.stats, [()] * 5, "op", ctx.stats.charge_cpu,
            rows,
        )
        assert task_ids == tuple(range(5))
        weight = ctx.stats.cpu_weight
        assert ctx.schedule._elapsed == [weight * n for n in rows]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mutation_order_is_serial(self, workers):
        # The determinism contract: shared state mutates in shard
        # order regardless of worker count.
        log = []
        _context_run(workers, log.append, range(20))
        assert log == list(range(20))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exception_suppresses_later_thunks(self, workers):
        ran = []

        def charge(i):
            if i == 2:
                raise RuntimeError("boom")
            ran.append(i)

        ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers)
        with pytest.raises(RuntimeError):
            OrderedPool().run(
                ctx.schedule, ctx.stats, [()] * 6, "op", charge, range(6)
            )
        assert ran == [0, 1]
        # A failed operator registers no task, as it memoizes no result.
        assert len(ctx.schedule) == 0

    def test_base_exception_propagates(self):
        # Injected crashes are BaseException subclasses; those
        # must cross the pool boundary too.
        class Crash(BaseException):
            pass

        def charge(i):
            if i == 1:
                raise Crash()

        with pytest.raises(Crash):
            _context_run(1, charge, range(3))

    def test_every_thunk_runs_on_the_calling_thread(self, monkeypatch):
        # Dispatch is an in-order loop: four modeled workers over a
        # partitioned catalog start no thread, and every shard task
        # runs on the thread that called evaluate_dag.
        a, b, c = var("a", 6), var("b", 5), var("c", 4)
        catalog = Catalog()
        catalog.register(complete_relation([a, b], name="r_ab"))
        catalog.register(complete_relation([b, c], name="r_bc"))
        catalog.partition_table("r_ab", "b", 3)
        catalog.partition_table("r_bc", "b", 3)
        ctx = ExecutionContext(catalog, SUM_PRODUCT, workers=4)

        seen = []  # (thread id, live threads) inside each shard charge
        run = OrderedPool.run

        def recording_run(pool, clock, stats, deps_list, label, charge,
                          *columns):
            def record(*row):
                seen.append((threading.get_ident(), threading.active_count()))
                charge(*row)

            return run(pool, clock, stats, deps_list, label, record, *columns)

        monkeypatch.setattr(OrderedPool, "run", recording_run)
        here = (threading.get_ident(), threading.active_count())
        plan = GroupBy(ProductJoin(Scan("r_ab"), Scan("r_bc")), ["a"])
        evaluate_dag(lower(plan), ctx)
        # Every task but the partial GroupBy's combine is a shard task.
        assert len(seen) == ctx.schedule.report().tasks - 1 > 4
        assert set(seen) == {here}
        assert threading.active_count() == here[1]

    def test_context_rejects_zero_workers(self):
        with pytest.raises(PlanError):
            ExecutionContext({}, SUM_PRODUCT, workers=0)


def _read_tasks(workers, faults, shards):
    """One operator whose shard ``i`` reads page ``i`` of file 7 through
    a pool hosting ``faults``, dispatched the way the runtime does.
    Returns the charge log and each shard task's elapsed."""
    pool = BufferPool(faults=faults)
    ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers, pool=pool)
    log = []

    def charge(i):
        log.append(i)
        read_with_retry(ctx.pool, PageId(7, i), ctx.stats)

    OrderedPool().run(
        ctx.schedule, ctx.stats, [()] * shards, "op", charge, range(shards)
    )
    return log, list(ctx.schedule._elapsed)


class TestTaskRuntime:
    """The task loop under storage faults: a shard's charge reads its
    pages with retry, so a transient fault is absorbed inside the task
    that hit it and shows only as that task's elapsed."""

    def test_passthrough_without_injector(self):
        log, elapsed = _read_tasks(2, None, 3)
        one_read = IOStats()
        one_read.charge_read()
        assert log == [0, 1, 2]
        assert elapsed == [one_read.elapsed()] * 3

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mutation_order_is_serial_under_faults(self, workers):
        faults = Faults()
        faults.target("page.read", "transient", PageId(7, 3), times=2)
        faults.target("page.read", "transient", PageId(7, 11))
        log, elapsed = _read_tasks(workers, faults, 20)
        # Retries re-read inside the faulted task; no shard is charged
        # twice and none out of order.
        assert log == list(range(20))
        assert faults.counts[("page.read", "transient")] == 3
        clean = _read_tasks(workers, None, 20)[1]
        policy = DEFAULT_RETRY_POLICY
        backoff = {
            3: policy.delay_for(0) + policy.delay_for(1),
            11: policy.delay_for(0),
        }
        assert elapsed == [
            spent + backoff.get(i, 0.0) for i, spent in enumerate(clean)
        ]
