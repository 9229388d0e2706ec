"""A query's intermediates die with its query.

An :class:`~repro.plans.runtime.ExecutionContext` owns the memo of every
intermediate its evaluation produced.  Nothing may hold the context in
a reference cycle — a bound method of itself stored on itself is one —
or that memo lives until a cyclic collection runs, and peak memory
follows GC timing.  Each test below runs one engine entry point with
the cyclic collector off and checks, by weak reference, that every
context the call built is gone once the call returns: freed by
reference counting alone.
"""

from __future__ import annotations

import asyncio
import gc
import weakref

import numpy as np
import pytest

from repro.bayes import MPFInference
from repro.bayes.examples import figure2_network
from repro.cli import _build_database
from repro.data import complete_relation, var
from repro.engine import Database
from repro.plans.runtime import ExecutionContext
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.serve import AsyncServer, TenantSpec
from repro.storage import CheckpointManager, WriteAheadLog, wal_path

SQL = "select wid, sum(inv) from invest group by wid"


@pytest.fixture
def born(monkeypatch):
    """Weak references to every context built while the test runs,
    with the cyclic collector off."""
    refs = []
    init = ExecutionContext.__init__

    def tracking(self, *args, **kwargs):
        init(self, *args, **kwargs)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(ExecutionContext, "__init__", tracking)
    gc.collect()
    gc.disable()
    try:
        yield refs
    finally:
        gc.enable()


def _alive(refs):
    return [ref() for ref in refs if ref() is not None]


def _partitioned_db():
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(workers=2)
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.register(complete_relation([c, d], rng=rng, name="r_cd"))
    db.catalog.partition_table("r_ab", "b", 3)
    db.catalog.partition_table("r_bc", "b", 3)
    db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def test_execute(born):
    db = _build_database(0.004, 7)
    for _ in range(3):
        db.execute(SQL)
    assert born
    assert not _alive(born)


def test_partitioned_batch_with_wal_and_checkpoints(born, tmp_path):
    db = _partitioned_db()
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    queries = [MPFQuery(view, (g,)) for g in ("a", "b", "c", "d")]
    with WriteAheadLog(wal_path(tmp_path)) as wal:
        batch = db.run_batch(
            queries, wal=wal,
            checkpointer=CheckpointManager(tmp_path, wal=wal),
            checkpoint_every=2,
        )
    assert batch.schedule is not None and batch.schedule.tasks
    assert all(report.error is None for report in batch.reports)
    assert born
    assert not _alive(born)


def test_inference_query(born):
    marginal = MPFInference(figure2_network()).query(["D"])
    assert marginal is not None
    assert born
    assert not _alive(born)


def test_async_server_request(born):
    db = _build_database(0.004, 7)

    async def scenario():
        async with AsyncServer(db, [TenantSpec("t")]) as server:
            return await server.submit("t", db.bind(SQL))

    outcome = asyncio.run(scenario())
    assert outcome.status == "ok"
    assert born
    assert not _alive(born)
