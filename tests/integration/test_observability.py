"""Registry / IOStats agreement across the engine and workload layers.

The acceptance criterion for the observability layer: the ``query.*``
counters published per completed operator must sum to exactly what the
:class:`IOStats` clocks recorded — reads, writes, buffer hits, and
retries — on clean runs, shared-subplan batches, and fault-injected
runs that recover through retries.
"""

import math

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.errors import PermanentStorageError
from repro.plans import QueryGuard
from repro.plans.runtime import ExecutionContext
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import BufferPool, Faults, PageId
from repro.workload import (
    belief_propagation,
    build_junction_tree,
    build_ve_cache,
)


def _relations():
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    return [
        complete_relation([a, b], rng=rng, name="r_ab"),
        complete_relation([b, c], rng=rng, name="r_bc"),
        complete_relation([c, d], rng=rng, name="r_cd"),
    ]


def _database(faults=None):
    db = Database(pool=BufferPool(faults=faults))
    for rel in _relations():
        db.register(rel)
    db.create_view("left_view", ("r_ab", "r_bc"))
    db.create_view("chain_view", ("r_ab", "r_bc", "r_cd"))
    return db


def _query(db, view_name, *group_by, **selections):
    view = MPFView(
        view_name, db._views[view_name].view_tables, SUM_PRODUCT
    )
    return MPFQuery(view, tuple(group_by), selections=selections)


def _assert_io_agreement(snap, totals):
    """Registry query.* counters == the summed IOStats clocks."""
    assert snap.get("query.page_reads") == totals.page_reads
    assert snap.get("query.page_writes") == totals.page_writes
    assert snap.get("query.buffer_hits") == totals.buffer_hits
    assert snap.get("query.tuples") == totals.tuples_processed
    assert snap.get("query.memo_hits") == totals.memo_hits
    assert snap.get("query.retries") == totals.retries
    assert snap.get("query.retry_wait") == pytest.approx(totals.retry_wait)


class TestRegistryAgreesWithIOStats:
    def test_clean_queries(self):
        db = _database()
        reports = [
            db.run_query(_query(db, "left_view", "a")),
            db.run_query(_query(db, "chain_view", "d")),
            db.run_query(_query(db, "left_view", "c", a=1)),
        ]
        totals = reports[0].exec_stats
        for report in reports[1:]:
            totals = totals.merged_with(report.exec_stats)
        snap = db.metrics_snapshot()
        _assert_io_agreement(snap, totals)
        # The pool sees exactly the operator-level page traffic.
        assert snap.get("bufferpool.reads") == totals.page_reads
        assert snap.get("bufferpool.writes") == totals.page_writes
        assert snap.get("bufferpool.hits") == totals.buffer_hits
        assert snap.get("queries.total", status="ok") == 3
        assert snap.get("queries.total", status="error") == 0
        ops = sum(
            snap.get("query.operator_runs", operator=kind)
            for kind in ("Scan", "Select", "ProductJoin", "GroupBy",
                         "IndexScan", "SemiJoin", "FilterScan")
        )
        assert ops == totals.operators_run

    def test_shared_subplan_batch(self):
        db = _database()
        batch = db.run_batch(
            [
                _query(db, "left_view", "a"),
                _query(db, "left_view", "a"),   # fully memoized repeat
                _query(db, "chain_view", "d"),
            ]
        )
        assert all(r.ok for r in batch.reports)
        totals = batch.reports[0].exec_stats
        for report in batch.reports[1:]:
            totals = totals.merged_with(report.exec_stats)
        snap = db.metrics_snapshot()
        _assert_io_agreement(snap, totals)
        assert snap.get("query.memo_hits") == batch.memo_hits
        assert snap.get("batches.total") == 1
        assert snap.get("batch.shared_subplans") > 0

    def test_transient_faults_retries_agree(self):
        faults = Faults()
        db = _database(faults=faults)
        heapfile = db.catalog.heapfile("r_ab")
        for page_no in range(heapfile.n_pages):
            faults.target(
                "page.read", "transient",
                PageId(heapfile.file_id, page_no), times=2,
            )

        guard = QueryGuard(retry_budget=1000, memory_limit_pages=10**6)
        report = db.run_query(_query(db, "left_view", "a"), guard=guard)
        assert report.ok
        assert report.exec_stats.retries > 0
        snap = db.metrics_snapshot()
        _assert_io_agreement(snap, report.exec_stats)
        assert snap.get("faults.transient") == faults.counts[("page.read", "transient")]
        assert snap.get("guard.retries_used") == report.exec_stats.retries
        assert snap.get("guard.pages_admitted") == guard.pages_admitted > 0
        assert snap.get("guard.budget_consumed") == pytest.approx(
            report.exec_stats.elapsed()
        )

    def test_failed_query_counts_error_status(self):
        faults = Faults()
        db = _database(faults=faults)
        faults.target(
            "page.read", "permanent", db.catalog.heapfile("r_ab").file_id,
            times=math.inf,
        )
        with pytest.raises(PermanentStorageError):
            db.run_query(_query(db, "left_view", "a"))
        snap = db.metrics_snapshot()
        assert snap.get("queries.total", status="error") == 1
        assert snap.get("queries.total", status="ok") == 0
        assert snap.get("faults.permanent") >= 1


class TestPlanCacheCounters:
    def test_hits_misses_invalidations(self, rng):
        from repro.serve import ServeRequest, ServingRuntime, TenantSpec

        db = _database()
        runtime = ServingRuntime(db, [TenantSpec("t")])
        query = _query(db, "left_view", "a")

        def serve():
            assert not runtime.admit(ServeRequest("t", query))
            return runtime.dispatch(runtime.next_runnable())

        serve()
        serve()
        snap = db.metrics_snapshot()
        assert snap.get("serve.plan_cache.misses", tenant="t") == 1
        assert snap.get("serve.plan_cache.hits", tenant="t") == 1

        # A reload retires the drained epoch, and its plans with it.
        runtime.reload_table(
            complete_relation([var("a", 6), var("b", 5)], rng=rng,
                              name="r_ab")
        )
        assert runtime.cached_plans() == []
        assert db.metrics_snapshot().get("serve.snapshots_retired") == 1
        assert not serve().plan_cached
        snap = db.metrics_snapshot()
        assert snap.get("serve.plan_cache.misses", tenant="t") == 2
        assert snap.get("serve.plan_cache.hits", tenant="t") == 1


class TestWorkloadCounters:
    def test_bp_message_counters(self, chain_relations):
        from repro.obs.metrics import MetricsRegistry

        ctx = ExecutionContext({}, SUM_PRODUCT, metrics=MetricsRegistry())
        result = belief_propagation(
            chain_relations, SUM_PRODUCT, context=ctx
        )
        snap = ctx.metrics.snapshot()
        messages = sum(
            snap.get("bp.messages", kind=kind)
            for kind in ("product", "update")
        )
        assert messages == len(result.program)
        assert snap.get("bp.failures") == 0
        # Workload operators publish through the same runtime path.
        _assert_io_agreement(snap, ctx.stats)

    def test_vecache_counters(self, chain_relations):
        from repro.obs.metrics import MetricsRegistry

        ctx = ExecutionContext({}, SUM_PRODUCT, metrics=MetricsRegistry())
        cache = build_ve_cache(chain_relations, SUM_PRODUCT, context=ctx)
        snap = ctx.metrics.snapshot()
        assert snap.get("vecache.steps") == len(cache.tables)
        assert snap.get("vecache.tables") == len(cache.tables)

    def test_junction_clique_counter(self, cyclic_supply_chain):
        from repro.obs.metrics import MetricsRegistry

        sc = cyclic_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        ctx = ExecutionContext({}, SUM_PRODUCT, metrics=MetricsRegistry())
        tree = build_junction_tree(relations, SUM_PRODUCT, context=ctx)
        snap = ctx.metrics.snapshot()
        assert snap.get("junction.cliques") == len(tree.cliques)
