"""The overload soak: the serving runtime's end-to-end contract.

A seeded 1000-query mix over three tenants — with two mid-soak
snapshot-isolated reloads — must satisfy:

* every admitted-and-completed query returns results **byte-identical**
  to an unloaded serial execution against the same epoch's data;
* every shed request fails with a typed :class:`OverloadError` and
  nothing else;
* no query executes after its SLO is blown (deadline propagation);
* a second identical soak replays byte-identically (outcomes and the
  full metrics document).
"""

from __future__ import annotations

import json
from collections import defaultdict

import numpy as np
import pytest

from repro.cli import _build_database
from repro.datagen import supply_chain
from repro.errors import OverloadError
from repro.obs import SHED_REASONS, validate_trace_document
from repro.serve import (
    ServeRequest,
    ServeTracer,
    ServingRuntime,
    TenantSpec,
    VirtualClock,
)

SCALE, SEED = 0.004, 7
N_QUERIES = 1000
ARRIVAL_GAP = 2e4          # mean inter-arrival; ~half a query's cost
RELOADS = (
    # (virtual time, table, datagen seed): two reloads mid-soak, one
    # of them on the partitioned table.
    (4e6, "location", 1043),
    (9e6, "ctdeals", 2043),
)
PARTITIONS = [("location", "wid", 4)]
GROUP_VARS = ("pid", "sid", "wid", "cid", "tid")


def tenant_mix():
    return [
        TenantSpec("gold", priority=2, queue_depth=16, slo=6e5),
        TenantSpec("silver", priority=1, rate=8e-6, burst=4.0,
                   queue_depth=8),
        TenantSpec("bulk", priority=0, queue_depth=4),
    ]


def build_workload(db):
    """Seeded (requests, sqls): tenants, shapes, and gaps from one rng."""
    rng = np.random.default_rng(99)
    names = ["gold", "silver", "bulk"]
    requests, sqls = [], []
    arrival = 0.0
    for _ in range(N_QUERIES):
        arrival += float(rng.exponential(ARRIVAL_GAP))
        var = GROUP_VARS[int(rng.integers(len(GROUP_VARS)))]
        sql = f"select {var}, sum(inv) from invest group by {var}"
        if rng.random() < 0.25:
            sql = (
                f"select {var}, sum(inv) from invest "
                f"where tid = 0 group by {var}"
            )
        tenant = names[int(rng.integers(len(names)))]
        requests.append(ServeRequest(
            tenant=tenant, query=db.bind(sql), arrival=arrival,
        ))
        sqls.append(sql)
    return requests, sqls


def reload_relations():
    return [
        (at, supply_chain(scale=SCALE, seed=seed).catalog.relation(table),
         table)
        for at, table, seed in RELOADS
    ]


def run_soak():
    clock = VirtualClock()
    db = _build_database(
        SCALE, SEED, clock=clock, workers=2, partitions=PARTITIONS,
    )
    tracer = ServeTracer()
    runtime = ServingRuntime(db, tenant_mix(), clock=clock, tracer=tracer)
    requests, sqls = build_workload(db)
    report = runtime.run_workload(requests, reload_relations())
    return db, report, sqls, tracer


def result_bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


@pytest.fixture(scope="module")
def soak():
    return run_soak()


class TestOverloadSoak:
    def test_the_mix_actually_overloads(self, soak):
        _, report, _, _ = soak
        assert len(report.outcomes) == N_QUERIES
        # The soak must exercise both sides of admission: a healthy
        # completed population and a substantial shed population.
        assert len(report.completed) > 100
        assert len(report.shed) > 100

    def test_admitted_results_match_unloaded_serial_execution(self, soak):
        _, report, sqls, _ = soak
        wanted = defaultdict(set)
        for outcome, sql in zip(report.outcomes, sqls):
            if outcome.ok:
                wanted[outcome.epoch].add(sql)
        assert len(wanted) >= 2, "no queries completed after a reload"

        # Unloaded baseline: serial, no faults, no serving — the same
        # epochs reproduced by replaying the reloads in order.
        baseline_db = _build_database(SCALE, SEED, partitions=PARTITIONS)
        expected = {}

        def snapshot_epoch():
            epoch = baseline_db.catalog.stats_epoch
            for sql in wanted.get(epoch, ()):
                expected[(epoch, sql)] = result_bytes(
                    baseline_db.execute(sql).result
                )

        snapshot_epoch()
        for _, relation, table in reload_relations():
            baseline_db.reload_table(relation, table)
            snapshot_epoch()

        checked = 0
        for outcome, sql in zip(report.outcomes, sqls):
            if not outcome.ok:
                continue
            key = (outcome.epoch, sql)
            assert key in expected, f"epoch {outcome.epoch} never built"
            assert result_bytes(outcome.result) == expected[key]
            checked += 1
        assert checked == len(report.completed)

    def test_shed_requests_fail_only_with_overload_error(self, soak):
        _, report, _, _ = soak
        assert report.shed
        reasons = set()
        for outcome in report.shed:
            assert isinstance(outcome.error, OverloadError)
            assert outcome.result is None
            assert outcome.stats is None
            reasons.add(outcome.error.reason)
        assert reasons <= {
            "rate", "queue_full", "evicted", "deadline", "draining",
        }
        # The mix is rich enough to hit several shedding paths.
        assert {"rate", "queue_full"} <= reasons

    def test_no_query_executes_past_its_deadline(self, soak):
        db, report, _, tracer = soak
        slo = {spec.name: spec.slo for spec in tenant_mix()}
        for outcome in report.outcomes:
            bound = slo[outcome.request.tenant]
            if bound is None or outcome.shed:
                continue
            # Executed requests entered the engine with SLO to spare.
            assert outcome.queue_wait < bound
        misses = [
            o for o in report.shed if o.error.reason == "deadline"
        ]
        snap = db.metrics.snapshot().to_dict()
        recorded = sum(
            v["value"] for k, v in snap.items()
            if k.startswith("serve.deadline_misses")
        )
        assert recorded == len(misses)

    def test_only_resource_errors_fail(self, soak):
        from repro.errors import ResourceError

        _, report, _, _ = soak
        # The only legitimate execution failure is a ResourceError: a
        # request that started with SLO to spare but blew its
        # propagated deadline (cost budget) mid-flight.
        for outcome in report.failed:
            assert isinstance(outcome.error, ResourceError)

    def test_reloads_were_snapshot_isolated(self, soak):
        db, report, _, tracer = soak
        epochs = sorted({o.epoch for o in report.outcomes if o.ok})
        assert len(epochs) == 3
        snap = db.metrics.snapshot().to_dict()
        assert snap["serve.reloads"]["value"] == len(RELOADS)
        # Every stale snapshot drained; only the current epoch's
        # (lazily materialized, refcount zero) entry may remain.
        assert snap["serve.snapshots_active"]["value"] <= 1
        assert snap["serve.snapshots_retired"]["value"] >= 2

    def test_double_run_is_byte_identical(self, soak):
        db, report, _, tracer = soak
        db2, report2, _, tracer2 = run_soak()
        first = [
            (o.status, getattr(o.error, "reason", None), o.epoch,
             result_bytes(o.result) if o.ok else None)
            for o in report.outcomes
        ]
        second = [
            (o.status, getattr(o.error, "reason", None), o.epoch,
             result_bytes(o.result) if o.ok else None)
            for o in report2.outcomes
        ]
        assert first == second
        assert report.duration == report2.duration
        assert (
            db.metrics.snapshot().to_json()
            == db2.metrics.snapshot().to_json()
        )
        # The virtual clock timestamps every span, so the full trace
        # document — and with it every quantile gauge derived from the
        # same run — replays byte-for-byte.
        doc = json.dumps(tracer.document(name="soak"), sort_keys=True)
        doc2 = json.dumps(tracer2.document(name="soak"), sort_keys=True)
        assert doc == doc2

    def test_trace_document_links_every_request(self, soak):
        db, report, _, tracer = soak
        doc = tracer.document(name="soak")
        validate_trace_document(doc)
        assert len(doc["requests"]) == N_QUERIES

        by_id = {e["request_id"]: e for e in doc["requests"]}
        assert len(by_id) == N_QUERIES
        for outcome, entry in zip(report.outcomes, doc["requests"]):
            assert entry["tenant"] == outcome.request.tenant
            root = entry["root"]
            assert root["kind"] == "request"
            assert root["attributes"]["request_id"] == entry["request_id"]
            if outcome.ok:
                # Admission -> queue wait -> dispatch -> operator spans,
                # all under one root with a consistent epoch.
                assert entry["status"] == "ok"
                assert entry["stats_epoch"] == outcome.epoch
                kinds = [c["kind"] for c in root["children"]]
                assert kinds[:2] == ["admission", "queue"]
                assert "dispatch" in kinds
                dispatch = root["children"][kinds.index("dispatch")]
                below, found = list(dispatch["children"]), False
                while below:
                    node = below.pop()
                    found = found or node["kind"] == "operator"
                    below.extend(node["children"])
                assert found, f"no operator spans in {entry['request_id']}"
                queue = root["children"][1]
                assert queue["attributes"]["queue_wait"] == (
                    outcome.queue_wait
                )
            elif outcome.shed:
                assert entry["status"] == "shed"
                assert entry["reason"] in SHED_REASONS
                assert entry["reason"] == outcome.error.reason

        # Reload/retire events from both mid-soak reloads are on the
        # shared event stream, stamped on the same virtual clock.
        names = [e["name"] for e in doc["events"]]
        assert names.count("reload") == len(RELOADS)
        assert "snapshot_retire" in names

    def test_trace_spans_nest_on_the_virtual_clock(self, soak):
        _, report, _, tracer = soak
        doc = tracer.document(name="soak")
        for entry in doc["requests"]:
            stack = [(entry["root"], None)]
            while stack:
                span, parent = stack.pop()
                assert span["end"] >= span["start"]
                if parent is not None:
                    assert span["start"] >= parent["start"]
                    assert span["end"] <= parent["end"]
                stack.extend((c, span) for c in span["children"])
