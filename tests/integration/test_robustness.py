"""Acceptance tests for the robustness layer (guards + fault injection).

Three scenarios the PR must demonstrate end to end:

(a) seeded transient page faults are retried with backoff and the
    query still returns the correct marginal;
(b) a permanent fault fails *only* the affected query of a 4-query
    batch — the other three results are identical to a fault-free run;
(c) a blown deadline raises :class:`QueryTimeout` promptly and does
    not corrupt the runtime memo for subsequent queries.
"""

import math

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.errors import (
    PermanentStorageError,
    QueryTimeout,
    TransientStorageError,
)
from repro.plans import QueryGuard
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import BufferPool, Faults, PageId


def _relations():
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    x, y, z = var("x", 30), var("y", 30), var("z", 30)
    return [
        complete_relation([a, b], rng=rng, name="r_ab"),
        complete_relation([b, c], rng=rng, name="r_bc"),
        complete_relation([c, d], rng=rng, name="r_cd"),
        complete_relation([x, y], rng=rng, name="b_xy"),
        complete_relation([y, z], rng=rng, name="b_yz"),
    ]


def _database(faults=None):
    db = Database(pool=BufferPool(faults=faults))
    for rel in _relations():
        db.register(rel)
    db.create_view("left_view", ("r_ab", "r_bc"))
    db.create_view("right_view", ("r_bc", "r_cd"))
    db.create_view("big_view", ("b_xy", "b_yz"))
    db.create_view("big_left_view", ("b_xy",))
    return db


def _query(db, view_name, *group_by, **selections):
    view = MPFView(
        view_name, db._views[view_name].view_tables, SUM_PRODUCT
    )
    return MPFQuery(view, tuple(group_by), selections=selections)


class TestTransientFaultsRecovered:
    """Scenario (a): flaky pages, correct marginal, retries on the clock."""

    def test_query_survives_transient_faults(self):
        clean = _database().run_query(_query(_database(), "left_view", "a"))

        faults = Faults()
        db = _database(faults=faults)
        file_id = db.catalog.heapfile("r_ab").file_id
        n_pages = db.catalog.heapfile("r_ab").n_pages
        for page_no in range(n_pages):
            faults.target(
                "page.read", "transient",
                PageId(file_id, page_no), times=2,
            )

        guard = QueryGuard(retry_budget=1000)
        report = db.run_query(_query(db, "left_view", "a"), guard=guard)
        assert report.ok
        assert report.result.equals(clean.result, SUM_PRODUCT)
        assert report.exec_stats.retries >= n_pages * 2
        assert report.exec_stats.retry_wait > 0
        assert faults.counts[("page.read", "transient")] >= n_pages * 2

    def test_retry_budget_exhaustion_surfaces_the_fault(self):
        faults = Faults()
        db = _database(faults=faults)
        file_id = db.catalog.heapfile("r_ab").file_id
        n_pages = db.catalog.heapfile("r_ab").n_pages
        for page_no in range(n_pages):
            faults.target(
                "page.read", "transient",
                PageId(file_id, page_no), times=2,
            )

        with pytest.raises(TransientStorageError):
            db.run_query(
                _query(db, "left_view", "a"),
                guard=QueryGuard(retry_budget=0),
            )


class TestPermanentFaultIsolatedInBatch:
    """Scenario (b): one bad file fails one query out of four."""

    def _batch(self, db):
        return [
            _query(db, "right_view", "c"),
            _query(db, "left_view", "a"),   # the only user of r_ab
            _query(db, "right_view", "d"),
            _query(db, "right_view", "d", c=1),
        ]

    def test_only_affected_query_fails(self):
        clean_db = _database()
        clean = clean_db.run_batch(self._batch(clean_db))
        assert all(r.ok for r in clean.reports)

        faults = Faults()
        db = _database(faults=faults)
        faults.target(
            "page.read", "permanent", db.catalog.heapfile("r_ab").file_id,
            times=math.inf,
        )

        batch = db.run_batch(self._batch(db))
        assert [r.ok for r in batch.reports] == [True, False, True, True]
        assert isinstance(batch.reports[1].error, PermanentStorageError)
        assert batch.errors[1] is batch.reports[1].error
        for i in (0, 2, 3):
            assert batch.reports[i].result.equals(
                clean.reports[i].result, SUM_PRODUCT
            )

    def test_stop_on_error_restores_fail_fast(self):
        faults = Faults()
        db = _database(faults=faults)
        faults.target(
            "page.read", "permanent", db.catalog.heapfile("r_ab").file_id,
            times=math.inf,
        )
        with pytest.raises(PermanentStorageError):
            db.run_batch(self._batch(db), stop_on_error=True)

    def test_healed_fault_allows_rerun_on_same_database(self):
        faults = Faults()
        db = _database(faults=faults)
        faults.target(
            "page.read", "permanent", db.catalog.heapfile("r_ab").file_id,
            times=math.inf,
        )
        failed = db.run_batch(self._batch(db))
        assert not failed.reports[1].ok

        faults.heal()
        recovered = db.run_query(_query(db, "left_view", "a"))
        clean_db = _database()
        clean = clean_db.run_query(_query(clean_db, "left_view", "a"))
        assert recovered.result.equals(clean.result, SUM_PRODUCT)


class TestDeadlineDoesNotCorruptMemo:
    """Scenario (c): QueryTimeout mid-batch, later queries unharmed."""

    # Between the cheap queries (~2.2k simulated cost units) and the
    # big_view marginal (~27k solo); the big query crosses it after a
    # few operators, so the next per-operator guard check fires.
    BUDGET = 15_000.0

    def test_budget_calibration(self):
        db = _database()
        cheap = db.run_query(_query(db, "right_view", "c"))
        assert cheap.exec_stats.elapsed() < self.BUDGET
        db2 = _database()
        expensive = db2.run_query(_query(db2, "big_view", "x"))
        assert expensive.exec_stats.elapsed() > self.BUDGET

    def test_timeout_fails_one_query_others_complete(self):
        clean_db = _database()
        clean = clean_db.run_batch(
            [
                _query(clean_db, "right_view", "c"),
                _query(clean_db, "big_view", "x"),
                _query(clean_db, "right_view", "c"),
            ]
        )

        db = _database()
        batch = db.run_batch(
            [
                _query(db, "right_view", "c"),
                _query(db, "big_view", "x"),
                _query(db, "right_view", "c"),
            ],
            guard=QueryGuard(cost_budget=self.BUDGET),
        )
        assert [r.ok for r in batch.reports] == [True, False, True]
        assert isinstance(batch.reports[1].error, QueryTimeout)
        # The repeated cheap query is served from the memo — proof the
        # timed-out query left no partial state behind.
        assert batch.reports[2].exec_stats.operators_run == 0
        for i in (0, 2):
            assert batch.reports[i].result.equals(
                clean.reports[i].result, SUM_PRODUCT
            )

    def test_subsequent_query_sharing_subplans_is_correct(self):
        db = _database()
        batch = db.run_batch(
            [
                _query(db, "right_view", "c"),
                _query(db, "big_view", "x"),      # times out mid-plan
                # Shares the Scan(b_xy) subplan with the failed query:
                # only *completed* operators were memoized, so this
                # must still compute the correct marginal.
                _query(db, "big_left_view", "x"),
            ],
            guard=QueryGuard(cost_budget=self.BUDGET),
        )
        assert not batch.reports[1].ok
        assert batch.reports[2].ok
        clean_db = _database()
        clean = clean_db.run_query(_query(clean_db, "big_left_view", "x"))
        assert batch.reports[2].result.equals(clean.result, SUM_PRODUCT)

    def test_failed_query_succeeds_with_generous_guard(self):
        db = _database()
        with pytest.raises(QueryTimeout):
            db.run_query(
                _query(db, "big_view", "x"),
                guard=QueryGuard(cost_budget=self.BUDGET),
            )
        # Same database, same pool, generous window: correct answer.
        report = db.run_query(
            _query(db, "big_view", "x"),
            guard=QueryGuard(cost_budget=10**12),
        )
        clean_db = _database()
        clean = clean_db.run_query(_query(clean_db, "big_view", "x"))
        assert report.result.equals(clean.result, SUM_PRODUCT)


class TestGuardedWorkloadErrorsCarryContext:
    """Guard/storage errors inside propagations name the failing unit."""

    def test_bp_message_context(self, chain_relations):
        from repro.plans.runtime import ExecutionContext
        from repro.workload import belief_propagation

        guard = QueryGuard(cost_budget=1.0)
        ctx = ExecutionContext({}, SUM_PRODUCT, guard=guard)
        guard.restart(ctx.stats)
        ctx.stats.charge_cpu(100)  # already over budget
        with pytest.raises(QueryTimeout) as excinfo:
            belief_propagation(chain_relations, SUM_PRODUCT, context=ctx)
        assert "BP message" in str(excinfo.value)

    def test_bp_keep_going_records_failures(self, chain_relations):
        from repro.plans.runtime import ExecutionContext
        from repro.workload import belief_propagation

        # Every page of every (ad-hoc temp) file faults more times
        # than the retry policy tolerates: every message fails, but
        # keep_going collects the failures instead of aborting.
        faults = Faults().rate("page.read", "transient", 1.0, times=10_000)
        pool = BufferPool(faults=faults)
        ctx = ExecutionContext({}, SUM_PRODUCT, pool=pool)
        result = belief_propagation(
            chain_relations, SUM_PRODUCT, context=ctx, keep_going=True
        )
        assert not result.ok
        assert len(result.failures) == len(result.program)
        for failure in result.failures:
            assert isinstance(failure.error, TransientStorageError)
            assert "BP message" in str(failure.error)
        # Tables were never clobbered by half-delivered messages.
        for original in chain_relations:
            assert result.tables[original.name] is original

    def test_bp_keep_going_clean_run_has_no_failures(self, chain_relations):
        from repro.workload import belief_propagation

        result = belief_propagation(
            chain_relations, SUM_PRODUCT, keep_going=True
        )
        assert result.ok
        assert result.failures == []

    def test_vecache_step_context(self, chain_relations):
        from repro.plans.runtime import ExecutionContext
        from repro.workload import build_ve_cache

        guard = QueryGuard(cost_budget=1.0)
        ctx = ExecutionContext({}, SUM_PRODUCT, guard=guard)
        guard.restart(ctx.stats)
        ctx.stats.charge_cpu(100)
        with pytest.raises(QueryTimeout) as excinfo:
            build_ve_cache(chain_relations, SUM_PRODUCT, context=ctx)
        assert "VE-cache step" in str(excinfo.value)

    def test_junction_clique_context(self, cyclic_supply_chain):
        from repro.plans.runtime import ExecutionContext
        from repro.workload import build_junction_tree

        sc = cyclic_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        guard = QueryGuard(cost_budget=1.0)
        ctx = ExecutionContext({}, SUM_PRODUCT, guard=guard)
        guard.restart(ctx.stats)
        ctx.stats.charge_cpu(100)
        with pytest.raises(QueryTimeout) as excinfo:
            build_junction_tree(relations, SUM_PRODUCT, context=ctx)
        assert "clique" in str(excinfo.value)


class TestInferenceUnderGuard:
    def test_bayes_query_accepts_guard(self):
        from repro.bayes import MPFInference, figure2_network

        mpf = MPFInference(figure2_network())
        posterior = mpf.query(
            "C", evidence={"A": 0}, guard=QueryGuard(cost_budget=10**9)
        )
        baseline = mpf.query("C", evidence={"A": 0})
        assert np.allclose(posterior.measure, baseline.measure)

    def test_bayes_query_times_out(self):
        from repro.bayes import MPFInference, figure2_network

        mpf = MPFInference(figure2_network())
        with pytest.raises(QueryTimeout):
            mpf.query("C", guard=QueryGuard(cost_budget=0.0))
