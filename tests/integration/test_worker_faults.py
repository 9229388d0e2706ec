"""Differential fault oracle for the multi-worker (sharded) runtime.

A partitioned 16-query batch — and a BP workload — run under seeded
transient page faults produces **byte-identical results and structural
counters** (``shard.*``, page and buffer counters, the schedule's task
set) to the fault-free serial run, at workers 1, 2, and 4.  The faults
are absorbed by the page-read retry loop inside the task that hit
them, so they show only in the retry accounting (``query.retries``,
``query.retry_wait``, ``faults.*``) and on the cost clock: operator
elapsed and the modeled schedule.
"""

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.obs.metrics import MetricsRegistry
from repro.plans.runtime import ExecutionContext
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import BufferPool, Faults
from repro.workload.bp import belief_propagation

WORKER_SWEEP = (1, 2, 4)

# Structural-counter identity excludes the retry accounting and the
# cost-clock families a retry's backoff lands in.
NON_STRUCTURAL = (
    "scheduler.", "faults.", "query.retries", "query.retry_wait",
    "query.operator_elapsed",
)


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


def _batch_db(metrics=None, workers=1, faults=None):
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(
        metrics=metrics, workers=workers, pool=BufferPool(faults=faults),
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


def _run_batch(workers=1, faults=None):
    registry = MetricsRegistry()
    db = _batch_db(metrics=registry, workers=workers, faults=faults)
    batch = db.run_batch(_sixteen_queries(db))
    prints = [_report_fingerprint(r) for r in batch.reports]
    return prints, registry, batch


def _seeded_faults(seed=5):
    return Faults(seed).rate("page.read", "transient", 0.25)


@pytest.fixture(scope="module")
def reference():
    """Fault-free serial run: the identity every faulted run must hit."""
    prints, registry, _ = _run_batch(workers=1)
    return prints, _counters(registry)


class TestFaultDifferentialOracle:
    def test_seeded_rate_sweep(self, reference):
        ref_prints, ref_counters = reference
        for workers in WORKER_SWEEP:
            faults = _seeded_faults()
            prints, registry, _ = _run_batch(workers=workers, faults=faults)
            assert faults.counts, "seeded faults never fired"
            assert prints == ref_prints
            assert _counters(registry) == ref_counters

    def test_retries_surface_in_scheduler_metrics(self):
        _, clean, _ = _run_batch(workers=2)
        _, faulted, _ = _run_batch(workers=2, faults=_seeded_faults())
        clean, faulted = (
            r.snapshot().to_dict() for r in (clean, faulted)
        )
        assert faulted["query.retries"]["value"] >= 1
        # Every unit of backoff lands on the scheduled tasks' elapsed.
        assert faulted["scheduler.serial_elapsed"]["value"] == (
            clean["scheduler.serial_elapsed"]["value"]
            + faulted["query.retry_wait"]["value"]
        )

    def test_faults_inflate_the_modeled_makespan(self):
        _, _, clean = _run_batch(workers=2)
        faults = _seeded_faults()
        _, _, faulted = _run_batch(workers=2, faults=faults)
        assert faults.counts[("page.read", "transient")] >= 1
        # Same task set, same structural work; the retried read shows
        # up only on the modeled clock.
        assert faulted.schedule.tasks == clean.schedule.tasks
        assert faulted.schedule.makespan > clean.schedule.makespan


class TestBPUnderWorkerFaults:
    def _relations(self):
        rng = np.random.default_rng(13)
        a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
        return [
            complete_relation([a, b], rng=rng, name="t_ab"),
            complete_relation([b, c], rng=rng, name="t_bc"),
            complete_relation([c, d], rng=rng, name="t_cd"),
        ]

    def _run(self, workers=1, faults=None):
        registry = MetricsRegistry()
        ctx = ExecutionContext(
            {}, SUM_PRODUCT, metrics=registry, workers=workers,
            pool=BufferPool(faults=faults),
        )
        result = belief_propagation(
            self._relations(), SUM_PRODUCT, context=ctx
        )
        tables = {
            name: _result_bytes(rel) for name, rel in result.tables.items()
        }
        return tables, _counters(registry)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_bp_messages_identical_under_faults(self, seed):
        ref_tables, ref_counters = self._run()
        for workers in WORKER_SWEEP[1:]:
            faults = Faults(seed).rate("page.read", "transient", 0.25)
            tables, counters = self._run(workers=workers, faults=faults)
            assert faults.counts[("page.read", "transient")] >= 1
            assert tables == ref_tables
            assert counters == ref_counters


class TestBuildCacheUnderWorkerFaults:
    def _build(self, faults=None):
        db = _batch_db(metrics=MetricsRegistry(), workers=2, faults=faults)
        cache = db.build_cache("v")
        return {
            name: _result_bytes(rel) for name, rel in cache.tables.items()
        }

    def test_cache_build_inherits_the_engine_fault_settings(self):
        """``build_cache`` runs on the engine-wide settings like
        ``run_batch``: the pool's registry draws, the retry loop
        recovers, and every cached table is the fault-free one."""
        faults = Faults(5).rate("page.read", "transient", 0.3)
        tables = self._build(faults=faults)
        assert faults.counts
        assert tables == self._build()
