"""Differential worker-fault oracle (acceptance for fault-tolerant
task execution).

The contract of ``docs/robustness.md`` ("Worker fault tolerance"):
for every registered fault kind and every injection site, a
partitioned 16-query batch — and a BP workload — run under injected
worker faults produces **byte-identical results and structural
counters** (the cost clock, ``shard.*``, ``query.*``, ``bufferpool.*``
families) to the fault-free serial run, at workers 1, 2, and 4.  The
injected faults are visible only in the modeled schedule and the new
``scheduler.task_retries`` / ``scheduler.task_timeouts`` /
``scheduler.hedges`` / ``faults.worker_injected`` metrics.

The degradation half: an exhausted retry budget (or a tripped
failure-rate breaker) degrades the pool to serial re-execution — the
batch still succeeds, byte-identically, recorded as
``scheduler.degraded`` — while ``allow_degrade=False`` surfaces the
fault as ``WorkerError`` instead.
"""

import math

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.errors import WorkerError
from repro.obs.metrics import MetricsRegistry
from repro.plans.runtime import ExecutionContext
from repro.plans.scheduler import TaskPolicy
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import SITES, BufferPool, Faults
from repro.workload.bp import belief_propagation

WORKER_SWEEP = (1, 2, 4)

# Structural-counter identity excludes the modeled schedule and the
# fault-visibility metrics — exactly the families the docs carve out.
NON_STRUCTURAL = ("scheduler.", "faults.")

# Injection sites, by task-label substring: the shard scans, the
# repartition shuffles, the partial-aggregate combine barrier, and the
# sharded join tasks.  Each site must actually fire (asserted via
# ``faults.counts``), so a renamed label breaks the oracle loudly.
LABEL_SITES = ("Scan(", "shuffle[", "+combine", "ProductJoin")

# A policy under which every fault kind is recoverable without
# degradation: hangs are hedged, stragglers capped, crashes retried.
RECOVERING_POLICY = TaskPolicy(timeout=50_000.0, hedge_after=1_000.0)


def _result_bytes(relation) -> bytes:
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


def _report_fingerprint(report):
    if report.error is not None:
        return ("error", type(report.error).__name__)
    return ("ok", _result_bytes(report.result))


def _counters(registry, exclude_prefixes=NON_STRUCTURAL) -> dict:
    return {
        key: entry
        for key, entry in registry.snapshot().to_dict().items()
        if not key.startswith(exclude_prefixes)
    }


def _batch_db(metrics=None, workers=1, task_policy=None, faults=None):
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(
        metrics=metrics, workers=workers, task_policy=task_policy,
        pool=BufferPool(faults=faults),
    )
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.register(complete_relation([c, d], rng=rng, name="r_cd"))
    db.catalog.partition_table("r_ab", "b", 3)
    db.catalog.partition_table("r_bc", "b", 3)
    db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def _sixteen_queries(db):
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    queries = [MPFQuery(view, (g,)) for g in ("a", "b", "c", "d")]
    for g, sel in (("a", {"b": 1}), ("b", {"c": 0}), ("c", {"d": 2}),
                   ("d", {"a": 3})):
        queries.append(MPFQuery(view, (g,), selections=sel))
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        queries.append(MPFQuery(view, pair))
    queries.append(MPFQuery(view, ("a",), selections={"a": 0}))
    queries.append(MPFQuery(view, ("b", "d")))
    queries.append(MPFQuery(view, ("nope",)))
    queries.append(MPFQuery(view, ("also_nope",)))
    assert len(queries) == 16
    return queries


def _run_batch(workers=1, task_policy=None, faults=None):
    registry = MetricsRegistry()
    db = _batch_db(
        metrics=registry, workers=workers, task_policy=task_policy,
        faults=faults,
    )
    batch = db.run_batch(_sixteen_queries(db))
    prints = [_report_fingerprint(r) for r in batch.reports]
    return prints, registry, batch


@pytest.fixture(scope="module")
def reference():
    """Fault-free serial run: the identity every faulted run must hit."""
    prints, registry, _ = _run_batch(workers=1)
    return prints, _counters(registry)


class TestFaultDifferentialOracle:
    @pytest.mark.parametrize("kind", SITES["task"])
    @pytest.mark.parametrize("site", LABEL_SITES)
    @pytest.mark.parametrize("workers", WORKER_SWEEP)
    def test_kind_by_site_sweep(self, reference, kind, site, workers):
        ref_prints, ref_counters = reference
        faults = Faults(11).target("task", kind, label=site)
        prints, registry, _ = _run_batch(
            workers=workers, task_policy=RECOVERING_POLICY,
            faults=faults,
        )
        # The site fired (a label that never matches is a test bug)...
        assert faults.counts[("task", kind)] >= 1, (kind, site)
        # ...and left results and structural counters byte-identical.
        assert prints == ref_prints
        assert _counters(registry) == ref_counters
        # Fault handling is visible in the fault metrics alone.
        snap = registry.snapshot().to_dict()
        assert any(
            key.startswith("faults.worker_injected") for key in snap
        )

    def test_seeded_rate_sweep(self, reference):
        ref_prints, ref_counters = reference
        for workers in WORKER_SWEEP:
            faults = Faults(5).rate("task", SITES["task"], 0.25)
            prints, registry, _ = _run_batch(
                workers=workers, task_policy=RECOVERING_POLICY,
                faults=faults,
            )
            assert faults.counts, "seeded faults never fired"
            assert prints == ref_prints
            assert _counters(registry) == ref_counters

    def test_retries_surface_in_scheduler_metrics(self, reference):
        faults = Faults(11).target("task", "crash", 3)
        _, registry, _ = _run_batch(
            workers=2, task_policy=RECOVERING_POLICY,
            faults=faults,
        )
        snap = registry.snapshot().to_dict()
        assert snap["scheduler.task_retries"]["value"] >= 1

    def test_faults_inflate_the_modeled_makespan(self):
        _, _, clean = _run_batch(workers=2)
        faults = Faults(11).target("task", "slow", label="Scan(")
        _, _, faulted = _run_batch(
            workers=2, task_policy=TaskPolicy(timeout=50_000.0),
            faults=faults,
        )
        # Same task set, same structural work; the straggler shows up
        # only on the modeled clock.
        assert faulted.schedule.tasks == clean.schedule.tasks
        assert faulted.schedule.makespan > clean.schedule.makespan


class TestGracefulDegradation:
    def test_exhausted_budget_degrades_and_batch_succeeds(self, reference):
        ref_prints, ref_counters = reference
        faults = Faults(11).target("task", "crash", 1, times=math.inf)
        prints, registry, _ = _run_batch(workers=2, faults=faults)
        assert prints == ref_prints
        assert _counters(registry) == ref_counters
        snap = registry.snapshot().to_dict()
        assert snap["scheduler.degraded{reason=retry_budget}"]["value"] == 1

    def test_breaker_trips_wholesale(self, reference):
        ref_prints, ref_counters = reference
        faults = Faults(11).rate("task", "crash", 1.0)
        policy = TaskPolicy(breaker_min_tasks=4, breaker_threshold=0.5)
        prints, registry, _ = _run_batch(
            workers=2, task_policy=policy, faults=faults,
        )
        assert prints == ref_prints
        assert _counters(registry) == ref_counters
        snap = registry.snapshot().to_dict()
        assert snap["scheduler.degraded{reason=breaker}"]["value"] == 1

    def test_unrecoverable_fault_raises_worker_error(self):
        faults = Faults(11).target("task", "crash", 1, times=math.inf)
        policy = TaskPolicy(allow_degrade=False)
        prints, _, batch = _run_batch(
            workers=2, task_policy=policy, faults=faults,
        )
        # run_batch's partial-failure contract holds: the poisoned
        # query fails with WorkerError, later queries still run.
        errors = [
            r.error for r in batch.reports if r.error is not None
        ]
        assert any(isinstance(e, WorkerError) for e in errors)

    def test_worker_error_is_fail_fast_with_stop_on_error(self):
        faults = Faults(11).target("task", "crash", 1, times=math.inf)
        db = _batch_db(
            workers=2, task_policy=TaskPolicy(allow_degrade=False),
            faults=faults,
        )
        # Well-formed queries only: the two deliberately-malformed ones
        # would fail fast at planning time, before any task runs.
        with pytest.raises(WorkerError):
            db.run_batch(_sixteen_queries(db)[:14], stop_on_error=True)


class TestBPUnderWorkerFaults:
    def _relations(self):
        rng = np.random.default_rng(13)
        a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
        return [
            complete_relation([a, b], rng=rng, name="t_ab"),
            complete_relation([b, c], rng=rng, name="t_bc"),
            complete_relation([c, d], rng=rng, name="t_cd"),
        ]

    def _run(self, workers=1, task_policy=None, faults=None):
        registry = MetricsRegistry()
        ctx = ExecutionContext(
            {}, SUM_PRODUCT, metrics=registry, workers=workers,
            task_policy=task_policy, pool=BufferPool(faults=faults),
        )
        result = belief_propagation(
            self._relations(), SUM_PRODUCT, context=ctx
        )
        tables = {
            name: _result_bytes(rel) for name, rel in result.tables.items()
        }
        return tables, _counters(registry)

    @pytest.mark.parametrize("kind", SITES["task"])
    def test_bp_messages_identical_under_faults(self, kind):
        ref_tables, ref_counters = self._run()
        # Pure-serial (workers=1, unpartitioned) has no scheduled
        # tasks to fault — the registry only sees scheduled dispatch.
        for workers in WORKER_SWEEP[1:]:
            faults = Faults(3).target("task", kind, 2)
            tables, counters = self._run(
                workers=workers, task_policy=RECOVERING_POLICY,
                faults=faults,
            )
            assert faults.counts[("task", kind)] >= 1
            assert tables == ref_tables
            assert counters == ref_counters


class TestBuildCacheUnderWorkerFaults:
    def _build(self, **db_kwargs):
        db = _batch_db(metrics=MetricsRegistry(), workers=2, **db_kwargs)
        cache = db.build_cache("v")
        return {
            name: _result_bytes(rel) for name, rel in cache.tables.items()
        }

    def test_cache_build_inherits_the_engine_fault_settings(self):
        """``build_cache`` runs on the engine-wide settings like
        ``run_batch``: the pool's registry draws, the task policy
        recovers, and every cached table is the fault-free one."""
        faults = Faults(5).rate("task", SITES["task"], 0.3)
        tables = self._build(task_policy=RECOVERING_POLICY, faults=faults)
        assert faults.counts
        assert tables == self._build()
