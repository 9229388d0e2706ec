"""Unit tests for the critical-path clock and the ordered pool."""

import math
import threading

import pytest

from repro.catalog import Catalog
from repro.data import complete_relation, var
from repro.errors import PlanError, WorkerError
from repro.plans import GroupBy, ProductJoin, Scan, evaluate_dag, lower
from repro.plans.runtime import ExecutionContext
from repro.plans.scheduler import (
    CriticalPathClock,
    OrderedPool,
    TaskPolicy,
    TaskRuntime,
)
from repro.semiring import SUM_PRODUCT
from repro.storage import Faults


def _context_pool(workers):
    """The dispatch seam of a context with ``workers`` modeled executors.

    The worker count lives in the context (it sizes the
    :class:`CriticalPathClock`); the pool it dispatches through takes
    none, and must behave the same whatever the count.
    """
    ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers)
    assert ctx.schedule.workers == workers
    pool = ctx._task_runtime.pool
    assert isinstance(pool, OrderedPool)
    return pool


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
        pool = _context_pool(workers)
        results = pool.run([lambda i=i: i * i for i in range(10)])
        assert results == [i * i for i in range(10)]

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mutation_order_is_serial(self, workers):
        # The determinism contract: shared state mutates in list
        # order regardless of worker count.
        log = []
        pool = _context_pool(workers)
        pool.run([lambda i=i: log.append(i) for i in range(20)])
        assert log == list(range(20))

    @pytest.mark.parametrize("workers", [1, 3])
    def test_exception_suppresses_later_thunks(self, workers):
        ran = []

        def make(i):
            def thunk():
                if i == 2:
                    raise RuntimeError("boom")
                ran.append(i)

            return thunk

        pool = _context_pool(workers)
        with pytest.raises(RuntimeError):
            pool.run([make(i) for i in range(6)])
        assert ran == [0, 1]

    def test_base_exception_propagates(self):
        # Injected crashes are BaseException subclasses; those
        # must cross the pool boundary too.
        class Crash(BaseException):
            pass

        def boom():
            raise Crash()

        pool = OrderedPool()
        with pytest.raises(Crash):
            pool.run([lambda: 1, boom, lambda: 3])

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

        seen = []  # (thread id, live threads) inside each thunk
        run = OrderedPool.run

        def recording_run(pool, thunks):
            def record(thunk):
                def call():
                    seen.append(
                        (threading.get_ident(), threading.active_count())
                    )
                    return thunk()

                return call

            return run(pool, [record(thunk) for thunk in thunks])

        monkeypatch.setattr(OrderedPool, "run", recording_run)
        here = (threading.get_ident(), threading.active_count())
        plan = GroupBy(ProductJoin(Scan("r_ab"), Scan("r_bc")), ["a"])
        evaluate_dag(lower(plan), ctx)
        assert len(seen) == ctx.schedule.report().tasks > 4
        assert set(seen) == {here}
        assert threading.active_count() == here[1]

    def test_context_rejects_zero_workers(self):
        with pytest.raises(PlanError):
            ExecutionContext({}, SUM_PRODUCT, workers=0)


def _scripted(script, slow_factor=4.0):
    """A registry faulting the scripted attempts: {(seq, attempt): kind},
    each task's faulted attempts running from 0."""
    faults = Faults(slow_factor=slow_factor)
    for (seq, attempt), kind in script.items():
        if (seq, attempt + 1) not in script:
            faults.target("task", kind, seq, times=attempt + 1)
    return faults


class TestTaskPolicy:
    def test_rejects_zero_attempts(self):
        with pytest.raises(ValueError):
            TaskPolicy(max_attempts=0)

    def test_rejects_nonpositive_timeout_and_hedge(self):
        with pytest.raises(ValueError):
            TaskPolicy(timeout=0.0)
        with pytest.raises(ValueError):
            TaskPolicy(hedge_after=-1.0)
        # A NaN or infinite duration would turn the schedule into NaN.
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                TaskPolicy(timeout=bad)
            with pytest.raises(ValueError):
                TaskPolicy(hedge_after=bad)

    def test_rejects_bad_breaker_threshold(self):
        with pytest.raises(ValueError):
            TaskPolicy(breaker_threshold=0.0)
        with pytest.raises(ValueError):
            TaskPolicy(breaker_threshold=1.5)

    def test_backoff_doubles_then_caps(self):
        policy = TaskPolicy(base_delay=100.0, max_delay=350.0)
        assert [policy.delay_for(i) for i in range(4)] == [
            100.0, 200.0, 350.0, 350.0,
        ]


def _counting():
    counts = {}

    def count(name, amount=1, **labels):
        key = (name, tuple(sorted(labels.items())))
        counts[key] = counts.get(key, 0) + amount

    return counts, count


class TestTaskRuntime:
    def test_passthrough_without_injector(self):
        runtime = TaskRuntime(OrderedPool())
        assert runtime.run([lambda: 5.0, lambda: 7.0]) == [5.0, 7.0]
        assert not runtime.degraded

    def test_crash_retries_with_backoff(self):
        counts, count = _counting()
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(base_delay=100.0),
            faults=_scripted({(0, 0): "crash"}),
            count=count,
        )
        calls = []
        modeled = runtime.run([lambda: calls.append(1) or 10.0])
        # Winning attempt ran exactly once; the modeled elapsed folds
        # in the backoff before the retry.
        assert calls == [1]
        assert modeled == [10.0 + 100.0]
        assert counts[("scheduler.task_retries", ())] == 1
        assert counts[("faults.worker_injected", (("kind", "crash"),))] == 1

    def test_lost_result_charges_the_wasted_run(self):
        counts, count = _counting()
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(base_delay=100.0),
            faults=_scripted({(0, 0): "lost"}),
            count=count,
        )
        calls = []
        modeled = runtime.run([lambda: calls.append(1) or 10.0])
        # The lost attempt did the work before dropping the result:
        # winning run + one lost run + backoff.  Shared state still
        # saw the work exactly once.
        assert calls == [1]
        assert modeled == [10.0 + 10.0 + 100.0]

    def test_hang_killed_at_timeout_then_retried(self):
        counts, count = _counting()
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(timeout=500.0, base_delay=100.0),
            faults=_scripted({(0, 0): "hang"}),
            count=count,
        )
        modeled = runtime.run([lambda: 10.0])
        assert modeled == [10.0 + 500.0 + 100.0]
        assert counts[("scheduler.task_timeouts", ())] == 1

    def test_hang_rescued_by_hedge(self):
        counts, count = _counting()
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(hedge_after=300.0),
            faults=_scripted({(0, 0): "hang"}),
            count=count,
        )
        modeled = runtime.run([lambda: 10.0])
        assert modeled == [10.0 + 300.0]
        assert counts[("scheduler.hedges", ())] == 1

    def test_straggler_capped_by_hedge(self):
        counts, count = _counting()
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(hedge_after=15.0),
            faults=_scripted({(0, 0): "slow"}, slow_factor=10.0),
            count=count,
        )
        modeled = runtime.run([lambda: 10.0])
        # Unhedged the straggler would take 100; the hedge finishes at
        # hedge_after + one clean run.
        assert modeled == [10.0 + 15.0]
        assert counts[("scheduler.hedges", ())] == 1

    def test_exhausted_budget_degrades_and_reruns(self):
        counts, count = _counting()
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(max_attempts=2, base_delay=100.0),
            faults=_scripted(
                {(0, 0): "crash", (0, 1): "crash", (1, 0): "crash"}
            ),
            count=count,
        )
        calls = []
        modeled = runtime.run(
            [lambda: calls.append(0) or 10.0, lambda: calls.append(1) or 20.0]
        )
        # Task 0 exhausts its budget and re-runs serially; task 1's
        # scripted fault is bypassed because the runtime degraded.
        assert calls == [0, 1]
        assert modeled[0] == 10.0 + 100.0
        assert modeled[1] == 20.0
        assert runtime.degraded
        assert runtime.degraded_reasons == ["retry_budget"]
        assert counts[
            ("scheduler.degraded", (("reason", "retry_budget"),))
        ] == 1

    def test_worker_error_when_degradation_disabled(self):
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(max_attempts=1, allow_degrade=False),
            faults=_scripted({(0, 0): "crash"}),
        )
        with pytest.raises(WorkerError, match="retry budget exhausted"):
            runtime.run([lambda: 10.0])

    def test_hang_without_timeout_or_hedge_is_unrecoverable(self):
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(allow_degrade=False),
            faults=_scripted({(0, 0): "hang"}),
        )
        with pytest.raises(WorkerError, match="no task timeout"):
            runtime.run([lambda: 10.0])

    def test_breaker_trips_on_fault_rate(self):
        counts, count = _counting()
        script = {(i, 0): "crash" for i in range(8)}
        runtime = TaskRuntime(
            OrderedPool(),
            policy=TaskPolicy(breaker_min_tasks=4, breaker_threshold=0.5),
            faults=_scripted(script),
            count=count,
        )
        runtime.run([lambda i=i: float(i) for i in range(8)])
        assert runtime.degraded
        assert "breaker" in runtime.degraded_reasons
        assert counts[("scheduler.degraded", (("reason", "breaker"),))] == 1

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_mutation_order_is_serial_under_faults(self, workers):
        log = []
        runtime = TaskRuntime(
            _context_pool(workers),
            policy=TaskPolicy(timeout=100.0, hedge_after=50.0),
            faults=_scripted(
                {(3, 0): "crash", (7, 0): "hang", (11, 0): "slow",
                 (15, 0): "lost"}
            ),
        )
        runtime.run([lambda i=i: log.append(i) or 1.0 for i in range(20)])
        assert log == list(range(20))
