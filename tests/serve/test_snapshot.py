"""Snapshot isolation: pinned readers vs concurrent ``reload_table``.

The contract under test (ISSUE satellite): an in-flight request
admitted before a reload executes against pre-reload data, and a
plan cached under an old epoch is never served after the reload.
"""

from __future__ import annotations

import pytest

from repro.cli import _build_database
from repro.datagen import supply_chain
from repro.serve import SnapshotManager, TenantSpec

SQL = "select wid, sum(inv) from invest group by wid"


def result_bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


def relation_bytes(catalog, name):
    return result_bytes(catalog.relation(name))


@pytest.fixture
def fresh_location():
    """A regenerated location table (different seed → different data)."""
    return supply_chain(scale=0.004, seed=143).catalog.relation("location")


class TestSnapshotManager:
    def test_pins_share_one_entry_per_epoch(self):
        db = _build_database(0.004, 7)
        manager = SnapshotManager(db)
        a, b = manager.pin(), manager.pin()
        assert a.epoch == b.epoch
        assert a.catalog is b.catalog
        assert manager.active == 1
        assert manager.readers(a.epoch) == 2

    def test_current_epoch_survives_unpin(self):
        db = _build_database(0.004, 7)
        manager = SnapshotManager(db)
        snap = manager.pin()
        manager.unpin(snap)
        assert manager.active == 1  # still the current epoch

    def test_stale_epoch_retired_when_last_reader_drains(
        self, fresh_location
    ):
        db = _build_database(0.004, 7)
        manager = SnapshotManager(db)
        snap = manager.pin()
        old_epoch = snap.epoch
        new_epoch = manager.reload(fresh_location, "location")
        assert new_epoch == old_epoch + 1
        assert manager.readers(old_epoch) == 1  # reader still pinned
        manager.unpin(snap)
        assert manager.readers(old_epoch) == 0
        # Nothing is left materialized: the new epoch's snapshot is
        # only built lazily when its first reader pins it.
        assert manager.active == 0
        snap_metrics = manager.metrics.snapshot().to_dict()
        assert snap_metrics["serve.snapshots_retired"]["value"] == 1

    def test_pinned_reader_sees_pre_reload_data(self, fresh_location):
        db = _build_database(0.004, 7)
        manager = SnapshotManager(db)
        snap = manager.pin()
        before = relation_bytes(snap.catalog, "location")
        assert before != result_bytes(fresh_location)
        manager.reload(fresh_location, "location")
        # The live catalog serves the new data ...
        assert relation_bytes(db.catalog, "location") == result_bytes(
            fresh_location
        )
        # ... while the pinned snapshot is untouched.
        assert relation_bytes(snap.catalog, "location") == before

    def test_reload_checkpoints_new_state(self, fresh_location):
        db = _build_database(0.004, 7)
        calls = []

        class Recorder:
            def checkpoint(self, target):
                calls.append(target.catalog.stats_epoch)

        manager = SnapshotManager(db, checkpointer=Recorder())
        new_epoch = manager.reload(fresh_location, "location")
        # The checkpoint captured the *post*-reload epoch.
        assert calls == [new_epoch]


class TestRuntimeSnapshotIsolation:
    def serve_one(self, runtime, request):
        finalized = runtime.admit(request)
        assert not finalized, "request unexpectedly shed"
        nxt = runtime.next_runnable()
        assert nxt is request
        return runtime.dispatch(nxt)

    def test_in_flight_request_executes_against_pre_reload_data(
        self, make_runtime, make_request, fresh_location
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        pre = make_request(db, "t", sql=SQL)
        runtime.admit(pre)

        # Reload lands while `pre` is still queued.
        runtime.reload_table(fresh_location, "location")
        post = make_request(db, "t", sql=SQL)
        runtime.admit(post)

        first = runtime.dispatch(runtime.next_runnable())
        second = runtime.dispatch(runtime.next_runnable())

        # Unloaded serial baseline for the pre-reload epoch.
        baseline = _build_database(0.004, 7).execute(SQL).result
        assert first.ok and second.ok
        assert first.epoch + 1 == second.epoch
        assert result_bytes(first.result) == result_bytes(baseline)
        # The regenerated table changes the answer.
        assert result_bytes(second.result) != result_bytes(baseline)

    def test_old_epoch_plans_never_served_after_reload(
        self, make_runtime, make_request, fresh_location
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        self.serve_one(runtime, make_request(db, "t", sql=SQL))
        old_keys = runtime.cached_plans()
        assert len(old_keys) == 1

        runtime.reload_table(fresh_location, "location")
        outcome = self.serve_one(runtime, make_request(db, "t", sql=SQL))
        # Identical query shape, but the new epoch forces a fresh plan:
        # the old entry's key can no longer match.
        assert not outcome.plan_cached
        new_keys = [k for k in runtime.cached_plans() if k not in old_keys]
        assert len(new_keys) == 1
        assert new_keys[0][-1] == old_keys[0][-1] + 1  # epoch component

        # Same shape again *within* the new epoch: now it hits.
        again = self.serve_one(runtime, make_request(db, "t", sql=SQL))
        assert again.plan_cached
        snap = db.metrics.snapshot().to_dict()
        assert snap["serve.plan_cache.hits{tenant=t}"]["value"] == 1
        assert snap["serve.plan_cache.misses{tenant=t}"]["value"] == 2

    def test_snapshot_gauges_track_pin_lifecycle(
        self, make_runtime, make_request, fresh_location
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        pre = make_request(db, "t", sql=SQL)
        runtime.admit(pre)
        runtime.reload_table(fresh_location, "location")
        assert runtime.snapshots.active == 1  # the pinned old epoch
        runtime.dispatch(runtime.next_runnable())
        assert runtime.snapshots.active == 0  # stale epoch retired

    def test_retired_epochs_take_their_plans_with_them(
        self, make_runtime, make_request, fresh_location
    ):
        db, runtime = make_runtime([TenantSpec("t")])
        second_location = supply_chain(
            scale=0.004, seed=144
        ).catalog.relation("location")
        first_epoch = db.catalog.stats_epoch
        # Two requests pin the first epoch; the first reload lands
        # while the second still waits, the second reload after both
        # drained, and a last request plans under the newest epoch.
        report = runtime.run_workload(
            [
                make_request(db, "t", sql=SQL),
                make_request(db, "t", sql=SQL),
                make_request(db, "t", sql=SQL, arrival=2e9),
            ],
            reloads=[
                (1.0, fresh_location, "location"),
                (1e9, second_location, "location"),
            ],
        )
        current = db.catalog.stats_epoch
        assert current == first_epoch + 2
        assert [o.epoch for o in report.outcomes] == [
            first_epoch, first_epoch, current,
        ]
        # The pinned reader still got its own epoch's plan ...
        assert [o.plan_cached for o in report.outcomes] == [
            False, True, False,
        ]
        # ... and once it drained, that epoch's plans went with it.
        keys = runtime.cached_plans()
        assert len(keys) == 1
        assert keys[0][-1] == current
        assert runtime.snapshots.active == 1
