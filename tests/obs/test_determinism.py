"""Two identical seeded runs must produce byte-identical metrics.

Everything the registry records runs on the simulated cost clock and
seeded randomness (data generation, fault injection), so the full
flat-JSON snapshot — counter values, gauge values, histogram bucket
counts — is a pure function of the seed.  Wall-clock quantities (the
optimizer's ``planning_seconds``) are deliberately kept out of the
registry; this test is the tripwire for anyone wiring one in.
"""

import numpy as np

from repro.data import complete_relation, var
from repro.engine import Database
from repro.obs import validate_metrics_document
from repro.plans import QueryGuard
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import BufferPool, Faults, PageId


def _seeded_run() -> Database:
    """One full engine workout, everything derived from fixed seeds."""
    rng = np.random.default_rng(991)
    a, b, c = var("a", 6), var("b", 5), var("c", 4)
    relations = [
        complete_relation([a, b], rng=rng, name="s1"),
        complete_relation([b, c], rng=rng, name="s2"),
    ]
    faults = Faults(seed=17)
    db = Database(pool=BufferPool(faults=faults))
    for rel in relations:
        db.register(rel)
    db.create_view("v", ("s1", "s2"))

    def query(*group_by, **selections):
        view = MPFView("v", ("s1", "s2"), SUM_PRODUCT)
        return MPFQuery(view, group_by, selections=selections)

    heapfile = db.catalog.heapfile("s1")
    for page_no in range(heapfile.n_pages):
        faults.target(
            "page.read", "transient",
            PageId(heapfile.file_id, page_no), times=1,
        )

    db.run_query(query("a"), guard=QueryGuard(retry_budget=1000))
    db.run_query(query("c", a=2))
    db.run_query(query("c", a=2))
    db.run_batch([query("b"), query("b"), query("a", b=0)])
    return db


class TestSeededDeterminism:
    def test_identical_runs_identical_snapshots(self):
        first, second = _seeded_run(), _seeded_run()
        assert first.metrics_snapshot().to_json() == (
            second.metrics_snapshot().to_json()
        )

    def test_document_is_schema_valid_and_stable(self):
        import json

        docs = [
            _seeded_run().metrics_document(name="determinism")
            for _ in range(2)
        ]
        for doc in docs:
            validate_metrics_document(doc)
        assert json.dumps(docs[0], sort_keys=True) == (
            json.dumps(docs[1], sort_keys=True)
        )

    def test_run_actually_exercised_the_engine(self):
        snap = _seeded_run().metrics_snapshot()
        assert snap.get("query.retries") > 0
        assert snap.get("query.memo_hits") > 0
        # Three standalone queries plus the three batch members.
        assert snap.get("queries.total", status="ok") == 6

    def test_pure_serial_run_emits_no_scheduler_gauges(self):
        # workers=1 with no partitioned tables never takes the
        # scheduled path: a zero-makespan schedule must not pollute
        # snapshot diffs with meaningless gauges.
        snap = _seeded_run().metrics_snapshot().to_dict()
        assert not any(k.startswith("scheduler.") for k in snap)

    def test_scheduled_run_does_emit_scheduler_gauges(self):
        rng = np.random.default_rng(991)
        a, b, c = var("a", 6), var("b", 5), var("c", 4)
        db = Database(workers=2)
        db.register(complete_relation([a, b], rng=rng, name="s1"))
        db.register(complete_relation([b, c], rng=rng, name="s2"))
        db.catalog.partition_table("s1", "b", 2)
        db.create_view("v", ("s1", "s2"))
        view = MPFView("v", ("s1", "s2"), SUM_PRODUCT)
        db.run_batch([MPFQuery(view, ("a",))])
        snap = db.metrics_snapshot().to_dict()
        assert "scheduler.makespan" in snap
        assert "scheduler.workers" in snap
