"""Differential recovery oracle (acceptance for the durability layer).

For every registered crash point: run the workload until the injected
crash, recover from the checkpoint directory, resume — and demand the
final results are **byte-identical** to an uninterrupted run and the
structural metrics counters (``queries.total``, ``vecache.steps``,
``bp.messages``, ``junction.cliques``) are identical too: every unit
of work is counted exactly once, live or via its recovered delta.

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
    StepJournal,
    WriteAheadLog,
    wal_path,
)
from repro.storage.wal import WAL_PAGE
from repro.workload.bp import belief_propagation
from repro.workload.junction import build_junction_tree
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

        prints = [_report_fingerprint(r) for r in batch.reports]
        assert prints == ref_prints
        assert _structural(db.metrics) == ref_counters


# ----------------------------------------------------------------------
# ≥100-step VE-cache workload
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

    @pytest.fixture(scope="class")
    def reference(self):
        registry = MetricsRegistry()
        ctx = ExecutionContext({}, SUM_PRODUCT, metrics=registry)
        cache = build_ve_cache(
            _chain_relations(self.CHAIN), SUM_PRODUCT, context=ctx
        )
        tables = {
            name: _result_bytes(rel) for name, rel in cache.tables.items()
        }
        return tables, _structural(registry)

    def test_calibration_messages_are_bp_units(self, reference, tmp_path):
        """The backward pass goes through BP's runner: one counted,
        journaled ``bp.step`` unit per forest edge."""
        _tables, counters = reference
        assert counters["bp.messages{kind=update}"]["value"] == self.CHAIN
        wal = WriteAheadLog(wal_path(str(tmp_path)))
        try:
            build_ve_cache(
                _chain_relations(3), SUM_PRODUCT, journal=StepJournal(wal=wal)
            )
        finally:
            wal.close()
        steps = RecoveryManager(str(tmp_path)).recover().steps
        assert [k for k in steps if not k.startswith("vecache.step:")] == [
            "bp.step:0:t3<t4:update",
            "bp.step:1:t2<t3:update",
            "bp.step:2:t1<t2:update",
        ]

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_vecache_workload_resumes_identically(
        self, tmp_path, point, reference
    ):
        ref_tables, ref_counters = reference
        directory = str(tmp_path)
        relations = _chain_relations(self.CHAIN)
        crash = Faults().target(point, "crash", after=30)
        registry = MetricsRegistry()
        db = Database(metrics=registry)
        wal = WriteAheadLog(wal_path(directory), faults=crash,
                            metrics=registry)
        checkpointer = CheckpointManager(directory, wal=wal,
                                         metrics=registry)
        ctx = ExecutionContext({}, SUM_PRODUCT, metrics=registry)
        journal = StepJournal(
            wal=wal, checkpointer=checkpointer, checkpoint_db=db,
            checkpoint_every=25,
        )
        crashed = False
        cache = None
        try:
            cache = build_ve_cache(
                relations, SUM_PRODUCT, context=ctx, journal=journal
            )
        except InjectedCrash:
            crashed = True
        finally:
            wal.close()

        if crashed:
            manager = RecoveryManager(directory)
            state = manager.recover()
            # Never replays more work than the WAL records.
            assert state.replayed_records <= len(state.wal.records)
            registry2 = state.registry
            wal2 = WriteAheadLog(wal_path(directory), metrics=registry2)
            ctx2 = ExecutionContext({}, SUM_PRODUCT, metrics=registry2)
            journal2 = StepJournal(wal=wal2, recovered=state.steps)
            try:
                cache = build_ve_cache(
                    relations, SUM_PRODUCT, context=ctx2,
                    journal=journal2,
                )
            finally:
                wal2.close()
            assert journal2.skipped == len(state.steps)
            snap = registry2.snapshot().to_dict()
            skipped_entry = snap.get(
                "checkpoint.steps_skipped{unit=step}", {"value": 0}
            )
            assert skipped_entry["value"] == journal2.skipped
            final_registry = registry2
        else:
            final_registry = registry

        got = {
            name: _result_bytes(rel) for name, rel in cache.tables.items()
        }
        assert got == ref_tables
        assert _structural(final_registry) == ref_counters


# ----------------------------------------------------------------------
# BP and junction-tree journal hooks
# ----------------------------------------------------------------------
def _bp_relations():
    rng = np.random.default_rng(13)
    a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
    return [
        complete_relation([a, b], rng=rng, name="t_ab"),
        complete_relation([b, c], rng=rng, name="t_bc"),
        complete_relation([c, d], rng=rng, name="t_cd"),
    ]


class TestBPJournal:
    def test_bp_resumes_with_identical_messages(self, tmp_path):
        ref_registry = MetricsRegistry()
        ref = belief_propagation(
            _bp_relations(), SUM_PRODUCT,
            context=ExecutionContext({}, SUM_PRODUCT,
                                     metrics=ref_registry),
        )
        ref_bytes = {n: _result_bytes(r) for n, r in ref.tables.items()}

        directory = str(tmp_path)
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            wal_path(directory),
            faults=Faults().target("workload.step", "crash", after=2),
            metrics=registry,
        )
        journal = StepJournal(wal=wal)
        with pytest.raises(InjectedCrash):
            belief_propagation(
                _bp_relations(), SUM_PRODUCT,
                context=ExecutionContext({}, SUM_PRODUCT,
                                         metrics=registry),
                journal=journal,
            )
        wal.close()

        state = RecoveryManager(directory).recover()
        assert len(state.steps) == 2
        wal2 = WriteAheadLog(wal_path(directory), metrics=state.registry)
        result = belief_propagation(
            _bp_relations(), SUM_PRODUCT,
            context=ExecutionContext({}, SUM_PRODUCT,
                                     metrics=state.registry),
            journal=StepJournal(wal=wal2, recovered=state.steps),
        )
        wal2.close()
        got = {n: _result_bytes(r) for n, r in result.tables.items()}
        assert got == ref_bytes
        assert _structural(state.registry) == _structural(ref_registry)

    def test_junction_tree_resumes_identically(self, tmp_path):
        rng = np.random.default_rng(17)
        a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
        # A 4-cycle: triangulation yields two maximal cliques, so the
        # crash fires between the two clique materializations.
        relations = [
            complete_relation([a, b], rng=rng, name="u_ab"),
            complete_relation([b, c], rng=rng, name="u_bc"),
            complete_relation([c, d], rng=rng, name="u_cd"),
            complete_relation([a, d], rng=rng, name="u_ad"),
        ]
        ref_registry = MetricsRegistry()
        ref = build_junction_tree(
            relations, SUM_PRODUCT,
            context=ExecutionContext({}, SUM_PRODUCT,
                                     metrics=ref_registry),
        )
        ref_bytes = {n: _result_bytes(r) for n, r in ref.cliques.items()}

        directory = str(tmp_path)
        registry = MetricsRegistry()
        wal = WriteAheadLog(
            wal_path(directory),
            faults=Faults().target("workload.step", "crash", after=1),
            metrics=registry,
        )
        with pytest.raises(InjectedCrash):
            build_junction_tree(
                relations, SUM_PRODUCT,
                context=ExecutionContext({}, SUM_PRODUCT,
                                         metrics=registry),
                journal=StepJournal(wal=wal),
            )
        wal.close()

        state = RecoveryManager(directory).recover()
        wal2 = WriteAheadLog(wal_path(directory), metrics=state.registry)
        rebuilt = build_junction_tree(
            relations, SUM_PRODUCT,
            context=ExecutionContext({}, SUM_PRODUCT,
                                     metrics=state.registry),
            journal=StepJournal(wal=wal2, recovered=state.steps),
        )
        wal2.close()
        got = {n: _result_bytes(r) for n, r in rebuilt.cliques.items()}
        assert got == ref_bytes
        assert _structural(state.registry) == _structural(ref_registry)


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
