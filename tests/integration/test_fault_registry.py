"""One seeded fault registry, hosted by the pool and the WAL.

Two properties of hosting faults where the hooks live:

* Fresh pools are fault-free, on purpose.  The plan-choice audit and
  ``run_hypothetical``'s shadow engine run on pools of their own, so
  they draw no page faults: an audit replay cannot use up a fault
  meant for the profiled run.
* Faults compose.  One registry carries a seeded transient page rate
  and a crash between batch queries; the crashed batch, recovered and
  resumed under the same registry, answers what the uninterrupted
  fault-free batch answers, bit for bit — and what the independent
  oracle of ``tests/oracle.py`` says the view means — and is bit for
  bit the batch the crash alone leaves behind.
"""

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import (
    BufferPool,
    CheckpointManager,
    Faults,
    InjectedCrash,
    RecoveryManager,
    WriteAheadLog,
    wal_path,
)
from tests.oracle import assert_agrees, engine_answer, mpf_answer

# (group variables, selections) of the batch; selections are codes.
QUERIES = (
    (("a",), {}),
    (("b",), {}),
    (("c",), {"d": 2}),
    (("a", "d"), {}),
    (("b", "c"), {}),
    (("d",), {"a": 3}),
)


def _relations():
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    return [
        complete_relation([a, b], rng=rng, name="r_ab"),
        complete_relation([b, c], rng=rng, name="r_bc"),
        complete_relation([c, d], rng=rng, name="r_cd"),
    ]


def _settings(faults):
    return {
        "workers": 2,
        "pool": BufferPool(faults=faults),
    }


def _db(faults=None, metrics=None):
    db = Database(metrics=metrics, **_settings(faults))
    for relation in _relations():
        db.register(relation)
    db.catalog.partition_table("r_ab", "b", 3)
    db.catalog.partition_table("r_bc", "b", 3)
    db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def _queries(db):
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    return [
        MPFQuery(view, group, selections=where) for group, where in QUERIES
    ]


def _bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


class TestFreshPoolsAreFaultFree:
    @staticmethod
    def _faults():
        return Faults(5).rate("page.read", "transient", 0.3)

    def test_audit_replays_draw_nothing(self):
        query_of = lambda db: _queries(db)[3]  # noqa: E731
        plain_db, audited_db = _db(self._faults()), _db(self._faults())
        plain = plain_db.explain_analyze(query_of(plain_db))
        audited = audited_db.explain_analyze(
            query_of(audited_db), audit_plans=True
        )
        assert len(audited.audit.candidates) > 1
        # The replays drew nothing: the counts are the profiled run's.
        assert audited_db.pool.faults.counts == plain_db.pool.faults.counts
        assert audited_db.pool.faults.counts[("page.read", "transient")] >= 1
        # Results and replayed costs are the fault-free engine's.
        clean_db = _db()
        clean = clean_db.explain_analyze(
            query_of(clean_db), audit_plans=True
        )
        assert _bytes(audited.profile.result) == _bytes(clean.profile.result)
        assert _bytes(plain.profile.result) == _bytes(clean.profile.result)
        assert [c.to_dict() for c in audited.audit.candidates] == [
            c.to_dict() for c in clean.audit.candidates
        ]

    def test_hypothetical_shadow_draws_nothing(self):
        faults = self._faults()
        db = _db(faults)
        query = _queries(db)[0]
        update = {"r_ab": ({"a": 1, "b": 2}, 7.5)}
        report = db.run_hypothetical(query, measure_updates=update)
        assert not faults.counts
        clean_db = _db()
        clean = clean_db.run_hypothetical(
            _queries(clean_db)[0], measure_updates=update
        )
        assert _bytes(report.result) == _bytes(clean.result)


class TestComposedFaults:
    """ROADMAP 1(f), first slice: storage fault × crash point in one
    registry, on a partitioned batch with a WAL and a checkpointer."""

    @staticmethod
    def _crash_and_resume(directory, faults):
        db = _db(faults)
        wal = WriteAheadLog(wal_path(directory), faults=faults)
        checkpointer = CheckpointManager(directory, wal=wal)
        with pytest.raises(InjectedCrash), wal:
            db.run_batch(
                _queries(db), wal=wal,
                checkpointer=checkpointer, checkpoint_every=2,
            )
        # Recover and resume under the same registry: its crash has
        # fired, everything else in it stays live.
        state = RecoveryManager(directory).recover()
        if state.has_checkpoint:
            db = Database.restore(state, **_settings(faults))
        else:
            db = _db(faults, metrics=state.registry)
        with WriteAheadLog(wal_path(directory), faults=faults) as wal:
            return db.run_batch(
                _queries(db), wal=wal, resume_from=state,
                checkpointer=CheckpointManager(directory, wal=wal),
                checkpoint_every=2,
            )

    @pytest.mark.parametrize("after", [0, 2, 4])
    def test_crash_recover_resume_under_composed_faults(
        self, tmp_path, after
    ):
        faults = Faults(7).rate("page.read", "transient", 0.25)
        faults.target("batch.query", "crash", after=after)
        batch = self._crash_and_resume(tmp_path / "composed", faults)
        assert sum(r.recovered for r in batch.reports) == after
        # Both families fired: the page rate and the crash.
        assert faults.counts[("page.read", "transient")] >= 1
        assert faults.counts[("batch.query", "crash")] == 1

        # The page faults change nothing, bit for bit, next to the same
        # crash alone...
        crash_only = Faults().target("batch.query", "crash", after=after)
        alone = self._crash_and_resume(tmp_path / "alone", crash_only)
        assert [_bytes(r.result) for r in batch.reports] == [
            _bytes(r.result) for r in alone.reports
        ]
        # ...and the resumed batch is, bit for bit, the uninterrupted
        # fault-free batch: a memo entry seeded from a checkpoint gets
        # its shard form back, so the operators over it fold their sums
        # in the same order.  Both answer what the oracle answers.
        db = _db()
        uninterrupted = db.run_batch(_queries(db)).reports
        assert [_bytes(r.result) for r in batch.reports] == [
            _bytes(r.result) for r in uninterrupted
        ]
        relations = _relations()
        for (group, where), got in zip(QUERIES, batch.reports):
            assert_agrees(
                engine_answer(got.result, group),
                mpf_answer(relations, group, "sum_product", where),
                "sum_product",
            )
