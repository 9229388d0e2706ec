"""Differential recovery oracle (acceptance for the durability layer).

For every registered crash point: run the batch until the injected
crash, recover from the checkpoint directory, resume — and demand the
final results are **byte-identical** to an uninterrupted run and the
structural metrics counters (``queries.total``) are identical too:
every query is counted exactly once, live or via its recovered delta.

Bookkeeping counters (``wal.*``, ``checkpoint.*``, ``recovery.*``) and
cache-state-dependent counters (``bufferpool.*``, ``optimizer.*``,
``plan_cache.*``, ``batches.*``, ``query.*``) legitimately diverge —
a resumed process re-plans and starts with a different cache — and are
excluded from the identity check.
"""

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.data.relation import FunctionalRelation
from repro.engine import Database
from repro.errors import MPFError, RecoveryError, StorageError
from repro.obs.metrics import MetricsRegistry
from repro.plans.runtime import ExecutionContext
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import (
    CRASH_POINTS,
    CheckpointManager,
    Faults,
    InjectedCrash,
    RecoveryManager,
    WriteAheadLog,
    wal_path,
)
from repro.storage.wal import WAL_PAGE
from repro.workload.vecache import build_ve_cache

STRUCTURAL = ("queries.total", "vecache.steps", "bp.messages",
              "junction.cliques")


def _structural(registry) -> dict:
    out = {}
    for key, entry in registry.snapshot().to_dict().items():
        base = key.split("{", 1)[0]
        if base in STRUCTURAL:
            out[key] = entry
    return out


def _result_bytes(relation) -> bytes:
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


# ----------------------------------------------------------------------
# 16-query batch
# ----------------------------------------------------------------------
def _batch_db(metrics=None):
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(metrics=metrics) if metrics is not None else Database()
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.register(complete_relation([c, d], rng=rng, name="r_cd"))
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def _sixteen_queries(db):
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    queries = []
    for g in ("a", "b", "c", "d"):
        queries.append(MPFQuery(view, (g,)))
    for g, sel in (("a", {"b": 1}), ("b", {"c": 0}), ("c", {"d": 2}),
                   ("d", {"a": 3})):
        queries.append(MPFQuery(view, (g,), selections=sel))
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        queries.append(MPFQuery(view, pair))
    queries.append(MPFQuery(view, ("a",), selections={"a": 0}))
    queries.append(MPFQuery(view, ("b", "d")))
    # Two deterministic failures: unknown group-by variables.  Their
    # error outcome must survive crash/recovery identically.
    queries.append(MPFQuery(view, ("nope",)))
    queries.append(MPFQuery(view, ("also_nope",)))
    assert len(queries) == 16
    return queries


def _report_fingerprint(report):
    if report.error is not None:
        return ("error", type(report.error).__name__)
    return ("ok", _result_bytes(report.result))


class TestBatchRecoveryOracle:
    @pytest.fixture(scope="class")
    def reference(self):
        db = _batch_db()
        batch = db.run_batch(_sixteen_queries(db))
        return (
            [_report_fingerprint(r) for r in batch.reports],
            _structural(db.metrics),
        )

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_recover_resume_is_identical(
        self, tmp_path, point, reference
    ):
        ref_prints, ref_counters = reference
        directory = str(tmp_path)
        crash = Faults().target(point, "crash", after=2)
        registry = MetricsRegistry()
        db = _batch_db(metrics=registry)
        wal = WriteAheadLog(wal_path(directory), faults=crash,
                            metrics=registry)
        checkpointer = CheckpointManager(directory, wal=wal,
                                         metrics=registry)
        crashed = False
        try:
            batch = db.run_batch(
                _sixteen_queries(db), wal=wal,
                checkpointer=checkpointer, checkpoint_every=4,
            )
        except InjectedCrash:
            crashed = True
        finally:
            wal.close()

        if crashed:
            manager = RecoveryManager(directory)
            state = manager.recover()
            assert state.replayed_pages <= len(
                state.wal.of_kind(WAL_PAGE)
            )
            if state.has_checkpoint:
                db = Database.restore(state)
            else:
                db = _batch_db(metrics=state.registry)
            wal2 = WriteAheadLog(wal_path(directory),
                                 metrics=db.metrics)
            checkpointer2 = CheckpointManager(directory, wal=wal2,
                                              metrics=db.metrics)
            try:
                batch = db.run_batch(
                    _sixteen_queries(db), wal=wal2, resume_from=state,
                    checkpointer=checkpointer2, checkpoint_every=4,
                )
            finally:
                wal2.close()
            skipped = sum(1 for r in batch.reports if r.recovered)
            assert skipped == len(state.queries)
            counted = db.metrics.snapshot().to_dict().get(
                "checkpoint.steps_skipped{unit=query}", {"value": 0}
            )
            assert counted["value"] == skipped

        prints = [_report_fingerprint(r) for r in batch.reports]
        assert prints == ref_prints
        assert _structural(db.metrics) == ref_counters


# ----------------------------------------------------------------------
# ≥100-step VE-cache workload: derived data, rebuilt rather than resumed
# ----------------------------------------------------------------------
def _chain_relations(n: int):
    rng = np.random.default_rng(7)
    vs = [var(f"x{i}", 2) for i in range(n + 1)]
    out = []
    for i in range(n):
        rows = [
            (p, q, float(rng.integers(1, 10)))
            for p in range(2)
            for q in range(2)
        ]
        out.append(
            FunctionalRelation.from_rows([vs[i], vs[i + 1]], rows,
                                         name=f"r{i}")
        )
    return out


class TestWorkloadRecoveryOracle:
    CHAIN = 101  # 102 elimination steps + 101 calibration messages

    def test_calibration_messages_are_bp_units(self):
        """The backward pass goes through BP's runner: one counted
        ``bp.messages{kind=update}`` per forest edge."""
        registry = MetricsRegistry()
        ctx = ExecutionContext({}, SUM_PRODUCT, metrics=registry)
        build_ve_cache(_chain_relations(self.CHAIN), SUM_PRODUCT, context=ctx)
        counters = _structural(registry)
        assert counters["bp.messages{kind=update}"]["value"] == self.CHAIN
        assert counters["vecache.steps"]["value"] == self.CHAIN + 1


class TestRecoveryErrorFamily:
    def test_recovery_error_is_storage_and_mpf(self):
        exc = RecoveryError("torn")
        assert isinstance(exc, StorageError)
        assert isinstance(exc, MPFError)

    def test_cli_exit_code_family(self):
        from repro.cli import EXIT_CRASH, EXIT_STORAGE, exit_code_for

        assert exit_code_for(RecoveryError("x")) == EXIT_STORAGE
        assert EXIT_CRASH == 8

    def test_injected_crash_is_not_an_mpf_error(self):
        # InjectedCrash derives from BaseException so `except MPFError`
        # / `except Exception` batch isolation can never swallow it.
        assert not issubclass(InjectedCrash, Exception)
