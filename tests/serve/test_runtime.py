"""ServingRuntime: the deterministic driver end to end.

Deadline propagation, drain policies, eviction outcomes, shed typing,
clock discipline, and double-run determinism.
"""

from __future__ import annotations

import pytest

from repro.errors import OverloadError, QueryError, ResourceError
from repro.serve import ServingRuntime, TenantSpec, VirtualClock

SQL = "select wid, sum(inv) from invest group by wid"


def result_bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


class TestConstruction:
    def test_bad_drain_policy_rejected(self, make_runtime):
        with pytest.raises(QueryError):
            make_runtime([TenantSpec("t")], drain_policy="nope")

    def test_run_workload_requires_virtual_clock(self, make_runtime):
        db, _ = make_runtime([TenantSpec("t")])
        wall_runtime = ServingRuntime(db, [TenantSpec("w")], wall=True)
        with pytest.raises(QueryError):
            wall_runtime.run_workload([])

    def test_virtual_clock_never_runs_backwards(self):
        clock = VirtualClock()
        clock.advance(5.0)
        with pytest.raises(ValueError):
            clock.advance(-1.0)
        with pytest.raises(ValueError):
            clock.advance(float("nan"))
        assert clock() == 5.0

    @pytest.mark.timeout(10)
    @pytest.mark.parametrize("where", ["arrival", "reload"])
    @pytest.mark.parametrize("at", [float("nan"), float("inf")])
    def test_non_finite_event_time_is_rejected(
        self, make_runtime, make_request, where, at
    ):
        # A NaN time never satisfies `at <= clock`: run_workload used
        # to wait for it forever.
        db, runtime = make_runtime([TenantSpec("t")])
        arrival = at if where == "arrival" else 0.0
        request = make_request(db, "t", arrival=arrival)
        reloads = []
        if where == "reload":
            reloads = [(at, db.catalog.relation("location"), "location")]
        with pytest.raises(QueryError, match="non-finite time"):
            runtime.run_workload([request], reloads)


class TestRunWorkload:
    def test_all_admitted_all_ok_in_submission_order(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        requests = [
            make_request(db, "t", arrival=float(i)) for i in range(4)
        ]
        report = runtime.run_workload(requests)
        assert [o.request.seq for o in report.outcomes] == [0, 1, 2, 3]
        assert all(o.ok for o in report.outcomes)
        assert report.duration > 0
        assert "4 requests" in report.summary()

    def test_clock_advances_by_executed_cost(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        report = runtime.run_workload([make_request(db, "t")])
        outcome = report.outcomes[0]
        assert outcome.stats is not None
        assert report.duration == pytest.approx(outcome.stats.elapsed())

    def test_deadline_blown_in_queue_sheds_without_executing(
        self, make_runtime, make_request
    ):
        # A bulk query occupies the single server; the gold request
        # arriving just after it starts waits one full execution —
        # far beyond its 100-unit SLO — so at dispatch it is shed,
        # never executed.
        db, runtime = make_runtime([
            TenantSpec("bulk"), TenantSpec("gold", slo=100.0),
        ])
        report = runtime.run_workload([
            make_request(db, "bulk", arrival=0.0),
            make_request(db, "gold", arrival=1.0),
        ])
        bulk, gold = report.outcomes
        assert bulk.ok
        assert gold.shed
        assert gold.error.reason == "deadline"
        assert gold.queue_wait > 100.0
        assert gold.result is None and gold.stats is None
        snap = db.metrics.snapshot().to_dict()
        assert snap["serve.deadline_misses{tenant=gold}"]["value"] == 1
        assert snap["serve.completed{status=ok,tenant=bulk}"]["value"] == 1

    def test_generous_slo_tightens_guard_but_completes(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime([TenantSpec("t", slo=1e9)])
        report = runtime.run_workload(
            [make_request(db, "t"), make_request(db, "t")]
        )
        assert all(o.ok for o in report.outcomes)
        # The queued request waited, so some SLO was consumed.
        assert report.outcomes[1].queue_wait > 0

    def test_rate_limited_tenant_sheds_with_reason_rate(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime(
            [TenantSpec("t", rate=1e-9, burst=1.0)]
        )
        report = runtime.run_workload([
            make_request(db, "t", arrival=0.0),
            make_request(db, "t", arrival=1.0),
        ])
        assert report.outcomes[0].ok
        assert report.outcomes[1].error.reason == "rate"

    def test_eviction_produces_victim_outcome(
        self, make_runtime, make_request
    ):
        # One tenant, queue depth 1, three simultaneous arrivals:
        # the first fills the queue, the second ties on priority and
        # is shed, the third's higher priority evicts the first.
        db, runtime = make_runtime([TenantSpec("t", queue_depth=1)])
        report = runtime.run_workload([
            make_request(db, "t", priority=0),
            make_request(db, "t", priority=0),
            make_request(db, "t", priority=5),
        ])
        victim, tied, vip = report.outcomes
        assert victim.shed and victim.error.reason == "evicted"
        assert tied.shed and tied.error.reason == "queue_full"
        assert vip.ok

    def test_drain_finish_completes_queued_work(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime(
            [TenantSpec("t")], drain_policy="finish"
        )
        report = runtime.run_workload(
            [make_request(db, "t") for _ in range(3)]
        )
        assert all(o.ok for o in report.outcomes)

    def test_drain_shed_sheds_queued_work(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime([TenantSpec("t")], drain_policy="shed")
        report = runtime.run_workload(
            [make_request(db, "t", arrival=float(i)) for i in range(3)]
        )
        # The first dispatches at its arrival event; the others land
        # during its execution and are still queued when events run
        # out, so the shed policy drops them.
        assert report.outcomes[0].ok
        for outcome in report.outcomes[1:]:
            assert outcome.shed
            assert outcome.error.reason == "draining"
        snap = db.metrics.snapshot().to_dict()
        assert snap["serve.drains"]["value"] == 1

    def test_guard_violation_is_error_not_shed(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime(
            [TenantSpec("t", cost_budget=1.0)]
        )
        report = runtime.run_workload([make_request(db, "t")])
        outcome = report.outcomes[0]
        assert outcome.status == "error"
        assert isinstance(outcome.error, ResourceError)
        # Partial work still advances the virtual clock.
        assert report.duration > 0
        snap = db.metrics.snapshot().to_dict()
        assert snap["serve.completed{status=error,tenant=t}"]["value"] == 1

    def test_every_shed_is_a_typed_overload_error(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime([
            TenantSpec("t", rate=1e-9, burst=1.0, queue_depth=1),
        ])
        report = runtime.run_workload(
            [make_request(db, "t") for _ in range(6)]
        )
        sheds = [o for o in report.outcomes if o.shed]
        assert sheds
        assert all(isinstance(o.error, OverloadError) for o in sheds)

    def test_plan_cache_hits_within_epoch(
        self, make_runtime, make_request
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        report = runtime.run_workload(
            [make_request(db, "t") for _ in range(3)]
        )
        assert [o.plan_cached for o in report.outcomes] == [
            False, True, True,
        ]

    def test_double_run_is_byte_identical(self, make_runtime, make_request):
        def soak():
            db, runtime = make_runtime([
                TenantSpec("gold", priority=1, slo=5e5),
                TenantSpec("bulk", queue_depth=2),
            ])
            requests = [
                make_request(
                    db, ["gold", "bulk"][i % 2], arrival=i * 1e4
                )
                for i in range(10)
            ]
            report = runtime.run_workload(requests)
            payload = [
                (o.status, getattr(o.error, "reason", None), o.epoch,
                 result_bytes(o.result) if o.ok else None)
                for o in report.outcomes
            ]
            return payload, db.metrics.snapshot().to_json()

        first, second = soak(), soak()
        assert first[0] == second[0]
        assert first[1] == second[1]
