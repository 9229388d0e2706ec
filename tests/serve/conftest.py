"""Fixtures for the serving-runtime suite.

Everything runs on the tiny supply chain (scale 0.004) with the
``invest`` view defined, driven by a :class:`VirtualClock` so every
test is deterministic.
"""

from __future__ import annotations

import pytest

from repro.cli import _build_database
from repro.serve import ServeRequest, ServingRuntime, VirtualClock


@pytest.fixture
def make_runtime():
    """Factory: ``(tenants, **kwargs) -> (db, runtime)`` on one clock."""

    def make(tenants, scale=0.004, seed=7, db_kwargs=None, **kwargs):
        clock = VirtualClock()
        db = _build_database(scale, seed, clock=clock, **(db_kwargs or {}))
        runtime = ServingRuntime(db, tenants, clock=clock, **kwargs)
        return db, runtime

    return make


@pytest.fixture
def make_query():
    """Factory: ``(db, sql) -> MPFQuery`` against the invest view."""

    def make(db, sql="select wid, sum(inv) from invest group by wid"):
        return db.bind(sql)

    return make


@pytest.fixture
def make_request(make_query):
    """Factory for a ``ServeRequest`` over the invest view.

    Assigns a unique ``seq`` per request: tests driving ``admit`` /
    ``dispatch`` by hand bypass ``run_workload``'s seq assignment.
    """
    counter = iter(range(10_000))

    def make(db, tenant, arrival=0.0, sql=None, priority=None):
        sql = sql or "select wid, sum(inv) from invest group by wid"
        return ServeRequest(
            tenant=tenant, query=make_query(db, sql),
            arrival=arrival, priority=priority, seq=next(counter),
        )

    return make
