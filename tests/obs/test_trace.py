"""Tests for the span-based query tracer."""

import pytest

from repro.catalog import Catalog
from repro.data import complete_relation, var
from repro.obs import QueryTracer
from repro.plans import GroupBy, ProductJoin, Scan, lower
from repro.plans.runtime import ExecutionContext, evaluate_dag
from repro.semiring import SUM_PRODUCT
from repro.storage.iostats import IOStats


@pytest.fixture
def setting(rng):
    cat = Catalog()
    cat.register(complete_relation([var("a", 6), var("b", 5)], rng=rng,
                                   name="s1"))
    cat.register(complete_relation([var("b", 5), var("c", 4)], rng=rng,
                                   name="s2"))
    plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
    return cat, plan


class TestSpans:
    def test_nesting_and_cost_clock(self, setting):
        cat, plan = setting
        tracer = QueryTracer()
        ctx = ExecutionContext(cat, SUM_PRODUCT, tracer=tracer)
        tracer.bind_stats(ctx.stats)
        with tracer.span("optimize", algorithm="ve+"):
            pass
        with tracer.span("execute"):
            evaluate_dag(lower(plan), ctx)
        root = tracer.finish()
        assert root.name == "query"
        assert [c.name for c in root.children] == ["optimize", "execute"]
        assert [c.kind for c in root.children] == ["phase", "phase"]
        execute = root.children[1]
        # Span timing runs on the simulated clock, so the execute span
        # covers exactly the work the stats clock recorded.
        assert execute.cost == pytest.approx(ctx.stats.elapsed())
        assert root.children[0].attributes == {"algorithm": "ve+"}

    def test_operator_spans_nest_under_execute(self, setting):
        cat, plan = setting
        tracer = QueryTracer()
        ctx = ExecutionContext(cat, SUM_PRODUCT, tracer=tracer)
        tracer.bind_stats(ctx.stats)
        with tracer.span("execute"):
            evaluate_dag(lower(plan), ctx)
        execute = tracer.root.children[0]
        kinds = {c.kind for c in execute.children}
        assert kinds == {"operator"}
        assert len(execute.children) == plan.count_nodes()
        assert sum(c.cost for c in execute.children) == pytest.approx(
            ctx.stats.elapsed()
        )

    def test_events_attach_to_open_span(self):
        tracer = QueryTracer(stats=IOStats())
        with tracer.span("phase"):
            tracer.event("checkpoint", detail=1)
        (span,) = tracer.root.children
        assert span.events == [{"name": "checkpoint", "at": 0.0, "detail": 1}]

    def test_to_dict_is_json_safe(self, setting):
        import json

        cat, plan = setting
        tracer = QueryTracer()
        ctx = ExecutionContext(cat, SUM_PRODUCT, tracer=tracer)
        tracer.bind_stats(ctx.stats)
        with tracer.span("execute"):
            evaluate_dag(lower(plan), ctx)
        doc = tracer.to_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["kind"] == "lifecycle"


class _Node:
    """Stand-in plan node for direct hook-level tests."""

    def __init__(self, name):
        self._name = name

    def label(self):
        return self._name


class _Rel:
    ntuples = 3


class TestDegradeAttribution:
    def test_degrade_attaches_to_its_own_operator_only(self):
        """Regression: a pending degrade note must not leak onto a
        different operator's row (the old single-slot tracer attached
        it to whichever operator executed next)."""
        tracer = QueryTracer(stats=IOStats())
        degraded_node, other_node = _Node("HashJoin"), _Node("Scan(s1)")
        tracer.on_degrade(degraded_node, "hash join degraded to sort-merge")
        # A *different* operator completes first (e.g. the degraded
        # operator raised, or interleaved evaluation order).
        tracer.on_execute(other_node, _Rel(), IOStats())
        assert tracer.operators[0].degraded is None
        tracer.on_execute(degraded_node, _Rel(), IOStats())
        assert tracer.operators[1].degraded == (
            "hash join degraded to sort-merge"
        )

    def test_degrade_not_consumed_by_memo_hit(self):
        tracer = QueryTracer(stats=IOStats())
        node = _Node("HashAgg")
        tracer.on_degrade(node, "degraded")
        tracer.on_memo_hit(_Node("Scan(s2)"), _Rel())
        assert tracer.operators[0].degraded is None
        tracer.on_execute(node, _Rel(), IOStats())
        assert tracer.operators[1].degraded == "degraded"

    def test_abandoned_degrade_never_surfaces(self):
        """An operator that degraded then *failed* leaves no note to
        pollute later rows."""
        tracer = QueryTracer(stats=IOStats())
        # Keep every node alive: pending degrades key on object identity,
        # so letting one die could hand its id() to a later node.
        nodes = [_Node("HashJoin"), _Node("Scan(s1)"), _Node("Scan(s2)")]
        tracer.on_degrade(nodes[0], "degraded then raised")
        tracer.on_execute(nodes[1], _Rel(), IOStats())
        tracer.on_execute(nodes[2], _Rel(), IOStats())
        assert all(op.degraded is None for op in tracer.operators)

    def test_memo_hit_rows_are_zero_cost(self):
        tracer = QueryTracer(stats=IOStats())
        tracer.on_memo_hit(_Node("Scan(s1)"), _Rel())
        (row,) = tracer.operators
        assert row.memoized
        assert row.elapsed == 0.0
        assert row.out_rows == 3


class TestSpanErrorHandling:
    def test_raising_body_closes_span_with_error_event(self):
        """Regression: a raising operator body used to leave its span
        dangling on the stack, so every later span nested under the
        failed one."""
        tracer = QueryTracer(stats=IOStats())
        with pytest.raises(RuntimeError):
            with tracer.span("execute"):
                raise RuntimeError("operator blew up")
        (span,) = tracer.root.children
        assert span.end is not None
        (event,) = span.events
        assert event["name"] == "error"
        assert event["type"] == "RuntimeError"
        assert event["message"] == "operator blew up"
        # Parentage is intact: the next span is a *sibling*.
        with tracer.span("retry"):
            pass
        assert [c.name for c in tracer.root.children] == [
            "execute", "retry",
        ]

    def test_raising_body_closes_dangling_descendants(self):
        tracer = QueryTracer(stats=IOStats())
        with pytest.raises(ValueError):
            with tracer.span("outer"):
                tracer.push_span("inner")   # never popped: body raises
                raise ValueError("boom")
        outer = tracer.root.children[0]
        (inner,) = outer.children
        assert inner.end is not None
        assert tracer.current is tracer.root

    def test_push_pop_pairing(self):
        tracer = QueryTracer(clock=lambda: 5.0)
        span = tracer.push_span("queue", kind="queue", start=1.0)
        assert tracer.current is span
        tracer.pop_span(span, end=4.0)
        assert span.start == 1.0 and span.end == 4.0
        assert tracer.current is tracer.root

    def test_finish_closes_dangling_spans(self):
        tracer = QueryTracer(clock=lambda: 7.0)
        tracer.push_span("a")
        tracer.push_span("b")
        root = tracer.finish()
        assert root.end == 7.0
        (a,) = root.children
        (b,) = a.children
        assert a.end == 7.0 and b.end == 7.0

    def test_pop_of_already_closed_span_is_a_noop(self):
        tracer = QueryTracer(clock=lambda: 2.0)
        span = tracer.push_span("x")
        tracer.pop_span(span)
        sentinel = tracer.push_span("y")
        tracer.pop_span(span)   # x is gone; y must survive untouched
        assert tracer.current is sentinel


class TestRequestTrace:
    def _trace(self, clock=lambda: 0.0, request_id="req-00001",
               tenant="gold", arrival=0.0):
        from repro.obs import ServeTracer

        tracer = ServeTracer(clock=clock)
        return tracer, tracer.begin_request(request_id, tenant, arrival)

    def test_completed_request_span_tree(self):
        now = [10.0]
        _, trace = self._trace(clock=lambda: now[0])
        trace.admission(10.0, True, epoch=3)
        trace.begin_dispatch(25.0, wait=15.0)
        trace.close(40.0, "ok")
        entry = trace.entry()
        assert entry["status"] == "ok"
        assert entry["stats_epoch"] == 3
        assert entry["reason"] is None
        root = entry["root"]
        assert root["kind"] == "request"
        assert root["start"] == 0.0 and root["end"] == 40.0
        admission, queue, dispatch = root["children"]
        assert admission["kind"] == "admission"
        assert {e["name"] for e in admission["events"]} == {
            "admitted", "snapshot_pin",
        }
        assert queue["kind"] == "queue"
        assert (queue["start"], queue["end"]) == (10.0, 25.0)
        assert queue["attributes"]["queue_wait"] == 15.0
        assert dispatch["kind"] == "dispatch"
        assert (dispatch["start"], dispatch["end"]) == (25.0, 40.0)

    def test_rejected_request_closes_with_typed_reason(self):
        _, trace = self._trace()
        trace.admission(5.0, False, reason="queue_full")
        entry = trace.entry()
        assert entry["status"] == "shed"
        assert entry["reason"] == "queue_full"
        assert entry["stats_epoch"] is None
        (admission,) = entry["root"]["children"]
        (event,) = admission["events"]
        assert event == {"name": "shed", "at": 5.0, "reason": "queue_full"}

    def test_queued_request_shed_mid_wait(self):
        _, trace = self._trace()
        trace.admission(2.0, True, epoch=1)
        trace.shed_now(8.0, "evicted")
        entry = trace.entry()
        assert entry["status"] == "shed"
        assert entry["reason"] == "evicted"
        _, queue = entry["root"]["children"]
        assert queue["end"] == 8.0
        assert any(e["name"] == "shed" for e in queue["events"])

    def test_close_is_idempotent(self):
        _, trace = self._trace()
        trace.admission(1.0, True, epoch=0)
        trace.begin_dispatch(2.0, wait=1.0)
        trace.close(3.0, "ok")
        trace.close(99.0, "error", reason="rate")
        assert trace.status == "ok"
        assert trace.entry()["root"]["end"] == 3.0

    def test_offset_clock_override(self):
        serving_now = [100.0]
        _, trace = self._trace(clock=lambda: serving_now[0])
        trace.admission(100.0, True, epoch=0)
        trace.begin_dispatch(100.0, wait=0.0)
        # Execution swaps in dispatch_start + stats.elapsed() so the
        # engine's spans land on the serving timeline.
        stats = IOStats()
        trace.set_time(lambda: 100.0 + stats.elapsed())
        with trace.tracer.span("execute"):
            stats.page_reads += 10
        trace.reset_time()
        dispatch = trace.tracer.current
        (execute,) = dispatch.children
        assert execute.start == 100.0
        assert execute.end == 100.0 + stats.elapsed()
        assert execute.end > 100.0


class TestServeTracer:
    def test_document_validates_and_serializes_deterministically(self):
        import json

        from repro.obs import ServeTracer, validate_trace_document

        def run():
            tracer = ServeTracer(clock=lambda: 0.0)
            ok = tracer.begin_request("req-00000", "gold", 0.0)
            ok.admission(1.0, True, epoch=2)
            ok.begin_dispatch(2.0, wait=1.0)
            ok.close(5.0, "ok")
            shed = tracer.begin_request("req-00001", "bulk", 1.0)
            shed.admission(1.5, False, reason="rate")
            tracer.event("reload", table="location", epoch=3)
            return tracer.document(name="unit")

        doc = run()
        validate_trace_document(doc)
        assert [e["status"] for e in doc["requests"]] == ["ok", "shed"]
        assert doc["events"] == [
            {"name": "reload", "at": 0.0, "table": "location", "epoch": 3}
        ]
        assert (
            json.dumps(run(), sort_keys=True)
            == json.dumps(run(), sort_keys=True)
        )

    def test_untyped_shed_reason_rejected_by_validator(self):
        from repro.obs import ServeTracer, validate_trace_document

        tracer = ServeTracer()
        trace = tracer.begin_request("req-00000", "gold", 0.0)
        trace.admission(1.0, False, reason="because")
        with pytest.raises(ValueError, match="reason"):
            validate_trace_document(tracer.document())

    def test_ok_request_must_carry_lifecycle_spans(self):
        from repro.obs import ServeTracer, validate_trace_document

        tracer = ServeTracer()
        trace = tracer.begin_request("req-00000", "gold", 0.0)
        trace.close(1.0, "ok")   # no admission/queue/dispatch children
        with pytest.raises(ValueError, match="admission"):
            validate_trace_document(tracer.document())
