"""AsyncServer: the asyncio front end over a wall-clock runtime."""

from __future__ import annotations

import asyncio

import pytest

from repro.cli import _build_database
from repro.errors import OverloadError
from repro.serve import AsyncServer, TenantSpec

SQL = "select wid, sum(inv) from invest group by wid"


def run(coro):
    return asyncio.run(coro)


@pytest.fixture
def db():
    return _build_database(0.004, 7)


class TestAsyncServer:
    def test_submit_and_drain(self, db):
        async def scenario():
            async with AsyncServer(db, [TenantSpec("t")]) as server:
                outcomes = await asyncio.gather(*[
                    server.submit("t", db.bind(SQL))
                    for _ in range(4)
                ])
            return outcomes

        outcomes = run(scenario())
        assert [o.status for o in outcomes] == ["ok"] * 4
        # Same shape, same epoch: the shared plan cache serves repeats.
        assert sum(o.plan_cached for o in outcomes) == 3

    def test_zero_depth_queue_sheds_immediately(self, db):
        async def scenario():
            async with AsyncServer(
                db, [TenantSpec("t", queue_depth=0)]
            ) as server:
                return await server.submit("t", db.bind(SQL))

        outcome = run(scenario())
        assert outcome.shed
        assert isinstance(outcome.error, OverloadError)
        assert outcome.error.reason == "queue_full"

    def test_drain_shed_flushes_queued_requests(self, db):
        async def scenario():
            server = AsyncServer(db, [TenantSpec("t", queue_depth=8)])
            await server.start()
            futures = [
                asyncio.ensure_future(
                    server.submit("t", db.bind(SQL))
                )
                for _ in range(3)
            ]
            # Let the submissions enqueue before draining them away.
            await asyncio.sleep(0)
            await server.drain(shed=True)
            return await asyncio.gather(*futures)

        outcomes = run(scenario())
        sheds = [o for o in outcomes if o.shed]
        assert all(
            o.error.reason == "draining" for o in sheds
        )
        assert all(o.ok for o in outcomes if not o.shed)

    def test_results_match_unloaded_execution(self, db):
        async def scenario():
            async with AsyncServer(db, [TenantSpec("t")]) as server:
                return await server.submit("t", db.bind(SQL))

        outcome = run(scenario())
        baseline = _build_database(0.004, 7).execute(SQL).result
        keys, measure = outcome.result.sorted_snapshot()
        bkeys, bmeasure = baseline.sorted_snapshot()
        assert keys.tobytes() == bkeys.tobytes()
        assert measure.tobytes() == bmeasure.tobytes()
