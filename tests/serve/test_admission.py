"""AdmissionController policy: order, eviction, dispatch, drain."""

from __future__ import annotations

import pytest

from repro.errors import OverloadError, QueryError
from repro.obs.metrics import MetricsRegistry
from repro.serve import AdmissionController, ServeRequest, TenantSpec


def req(tenant, seq, priority=0, arrival=0.0):
    return ServeRequest(
        tenant=tenant, query=None, arrival=arrival, seq=seq,
        priority=priority,
    )


@pytest.fixture
def metrics():
    return MetricsRegistry()


class TestConstruction:
    def test_duplicate_tenant_rejected(self):
        with pytest.raises(QueryError):
            AdmissionController([TenantSpec("a"), TenantSpec("a")])

    def test_needs_at_least_one_tenant(self):
        with pytest.raises(QueryError):
            AdmissionController([])

    def test_unknown_tenant_rejected_at_offer(self):
        ctrl = AdmissionController([TenantSpec("a")])
        with pytest.raises(QueryError):
            ctrl.offer(req("ghost", 0), now=0.0)


class TestPolicyOrder:
    def test_draining_sheds_before_anything_else(self):
        ctrl = AdmissionController([TenantSpec("a", rate=1.0)])
        ctrl.begin_drain()
        decision = ctrl.offer(req("a", 0), now=0.0)
        assert not decision.admitted
        assert decision.error.reason == "draining"

    def test_rate_sheds_before_queue_inspection(self):
        ctrl = AdmissionController([
            TenantSpec("a", rate=1.0, burst=1.0, queue_depth=8),
        ])
        assert ctrl.offer(req("a", 0), now=0.0).admitted
        decision = ctrl.offer(req("a", 1), now=0.0)
        assert decision.error.reason == "rate"
        assert ctrl.queued("a") == 1  # plenty of queue room went unused

    def test_queue_room_admits(self):
        ctrl = AdmissionController([TenantSpec("a", queue_depth=2)])
        assert ctrl.offer(req("a", 0), now=0.0).admitted
        assert ctrl.offer(req("a", 1), now=0.0).admitted
        assert ctrl.queued("a") == 2

    def test_zero_depth_queue_sheds_everything(self):
        ctrl = AdmissionController([TenantSpec("a", queue_depth=0)])
        decision = ctrl.offer(req("a", 0, priority=99), now=0.0)
        assert decision.error.reason == "queue_full"
        assert not decision.evicted


class TestEviction:
    def two_queued(self, priorities=(1, 0)):
        ctrl = AdmissionController([TenantSpec("a", queue_depth=2)])
        for seq, priority in enumerate(priorities):
            ctrl.offer(req("a", seq, priority=priority), now=0.0)
        return ctrl

    def test_equal_priority_sheds_the_arrival(self):
        # Eviction needs *strictly* higher priority than the best
        # victim; a tie sheds the arrival, protecting queued work.
        ctrl = self.two_queued(priorities=(1, 1))
        decision = ctrl.offer(req("a", 2, priority=1), now=0.0)
        assert decision.error.reason == "queue_full"
        assert ctrl.queued("a") == 2

    def test_higher_priority_evicts_lowest_priority_victim(self):
        ctrl = self.two_queued(priorities=(1, 0))
        decision = ctrl.offer(req("a", 2, priority=2), now=0.0)
        assert decision.admitted
        assert [v.seq for v in decision.evicted] == [1]
        assert ctrl.queued("a") == 2

    def test_victim_is_youngest_within_lowest_priority(self):
        ctrl = AdmissionController([TenantSpec("a", queue_depth=3)])
        for seq in range(3):
            ctrl.offer(req("a", seq, priority=0), now=0.0)
        decision = ctrl.offer(req("a", 3, priority=1), now=0.0)
        # seq 2 waited least among the priority-0 candidates.
        assert [v.seq for v in decision.evicted] == [2]

    def test_eviction_metrics(self, metrics):
        ctrl = AdmissionController(
            [TenantSpec("a", queue_depth=1)], metrics=metrics,
        )
        ctrl.offer(req("a", 0, priority=0), now=0.0)
        ctrl.offer(req("a", 1, priority=5), now=0.0)
        snap = metrics.snapshot().to_dict()
        assert snap["serve.shed{reason=evicted,tenant=a}"]["value"] == 1
        assert snap["serve.admitted{tenant=a}"]["value"] == 2
        assert snap["serve.queue_depth{tenant=a}"]["value"] == 1


class TestDispatch:
    def test_priority_first_then_arrival_then_seq(self):
        ctrl = AdmissionController([
            TenantSpec("a", queue_depth=4), TenantSpec("b", queue_depth=4),
        ])
        ctrl.offer(req("a", 0, priority=0, arrival=0.0), now=0.0)
        ctrl.offer(req("b", 1, priority=2, arrival=1.0), now=1.0)
        ctrl.offer(req("a", 2, priority=0, arrival=0.0), now=0.0)
        order = []
        while True:
            nxt = ctrl.next_runnable()
            if nxt is None:
                break
            order.append(nxt.seq)
            ctrl.complete(nxt)
        assert order == [1, 0, 2]

    def test_slot_limit_blocks_dispatch_until_complete(self):
        ctrl = AdmissionController([TenantSpec("a", slots=1)])
        ctrl.offer(req("a", 0), now=0.0)
        ctrl.offer(req("a", 1), now=0.0)
        first = ctrl.next_runnable()
        assert first.seq == 0
        assert ctrl.next_runnable() is None  # slot held
        ctrl.complete(first)
        assert ctrl.next_runnable().seq == 1

    def test_fifo_within_a_tenant(self):
        ctrl = AdmissionController([TenantSpec("a", queue_depth=4)])
        for seq in range(3):
            ctrl.offer(req("a", seq), now=float(seq))
        dispatched = []
        while ctrl.queued("a"):
            nxt = ctrl.next_runnable()
            dispatched.append(nxt.seq)
            ctrl.complete(nxt)
        assert dispatched == [0, 1, 2]


class TestDrain:
    def test_drain_queues_returns_everything_in_seq_order(self):
        ctrl = AdmissionController([
            TenantSpec("a", queue_depth=4), TenantSpec("b", queue_depth=4),
        ])
        ctrl.offer(req("b", 1), now=0.0)
        ctrl.offer(req("a", 0), now=0.0)
        ctrl.offer(req("a", 2), now=0.0)
        drained = ctrl.drain_queues()
        assert [r.seq for r in drained] == [0, 1, 2]
        assert ctrl.queued() == 0

    def test_shed_at_dispatch_returns_typed_error(self, metrics):
        ctrl = AdmissionController([TenantSpec("a")], metrics=metrics)
        error = ctrl.shed_at_dispatch(req("a", 0), "deadline", "too late")
        assert isinstance(error, OverloadError)
        assert error.reason == "deadline"
        snap = metrics.snapshot().to_dict()
        assert snap["serve.shed{reason=deadline,tenant=a}"]["value"] == 1
