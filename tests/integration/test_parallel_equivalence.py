"""Differential worker-sweep oracle (acceptance for partition-parallel
execution).

The determinism contract of ``docs/parallelism.md``: for a fixed
database state (partitioned or not), running at ``workers ∈ {1, 2, 4}``
produces **byte-identical results** and **identical structural
counters** — including the per-shard ``shard.*`` counters, whose values
depend only on the catalog's partition specs, never on the worker
count.  Only the modeled ``scheduler.*`` gauges may differ (the
makespan is worker-dependent by design).

The crash half: at every registered crash point, a partitioned batch
crashed and resumed at each worker count yields byte-identical
results across worker counts and against an uninterrupted reference
(a memo entry seeded from a checkpoint gets back its shard form, so a
downstream aggregate combines the same per-shard partials in the same
order).
"""

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
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
from repro.workload.bp import belief_propagation

WORKER_SWEEP = (1, 2, 4)


def _result_bytes(relation) -> bytes:
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


def _report_fingerprint(report):
    if report.error is not None:
        return ("error", type(report.error).__name__)
    return ("ok", _result_bytes(report.result))


def _counters(registry, exclude_prefixes=("scheduler.",)) -> dict:
    return {
        key: entry
        for key, entry in registry.snapshot().to_dict().items()
        if not key.startswith(exclude_prefixes)
    }


def _batch_db(metrics=None, workers=1, partitioned=False):
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(metrics=metrics, workers=workers)
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.register(complete_relation([c, d], rng=rng, name="r_cd"))
    if partitioned:
        # Mixed alignment on purpose: r_ab ⋈ r_bc is co-partitioned on
        # b; anything joining r_cd on c repartitions explicitly.
        db.catalog.partition_table("r_ab", "b", 3)
        db.catalog.partition_table("r_bc", "b", 3)
        db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def _sixteen_queries(db):
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    queries = [MPFQuery(view, (g,)) for g in ("a", "b", "c", "d")]
    for g, sel in (("a", {"b": 1}), ("b", {"c": 0}), ("c", {"d": 2}),
                   ("d", {"a": 3})):
        queries.append(MPFQuery(view, (g,), selections=sel))
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        queries.append(MPFQuery(view, pair))
    queries.append(MPFQuery(view, ("a",), selections={"a": 0}))
    queries.append(MPFQuery(view, ("b", "d")))
    # Two deterministic failures; their outcome must be identical at
    # every worker count too.
    queries.append(MPFQuery(view, ("nope",)))
    queries.append(MPFQuery(view, ("also_nope",)))
    assert len(queries) == 16
    return queries


def _run_sweep(partitioned):
    runs = {}
    for workers in WORKER_SWEEP:
        registry = MetricsRegistry()
        db = _batch_db(
            metrics=registry, workers=workers, partitioned=partitioned
        )
        batch = db.run_batch(_sixteen_queries(db))
        runs[workers] = (
            [_report_fingerprint(r) for r in batch.reports],
            _counters(registry),
            batch.schedule,
        )
    return runs


class TestWorkerSweepEquivalence:
    def test_unpartitioned_sweep_is_byte_identical(self):
        runs = _run_sweep(partitioned=False)
        ref_prints, ref_counters, _ = runs[1]
        for workers in WORKER_SWEEP[1:]:
            prints, counters, _ = runs[workers]
            assert prints == ref_prints
            assert counters == ref_counters

    def test_partitioned_sweep_is_byte_identical(self):
        runs = _run_sweep(partitioned=True)
        ref_prints, ref_counters, _ = runs[1]
        # Sharded execution really happened: each structural shard
        # counter is present and identical at every worker count.
        assert all(ref_counters[name]["value"] > 0 for name in (
            "shard.tasks", "shard.repartitions", "shard.shuffle_pages",
            "shard.partial_aggregates",
        ))
        for workers in WORKER_SWEEP[1:]:
            prints, counters, _ = runs[workers]
            assert prints == ref_prints
            assert counters == ref_counters

    def test_partitioned_makespan_shrinks_with_workers(self):
        runs = _run_sweep(partitioned=True)
        serial = runs[1][2]
        assert serial.makespan == pytest.approx(serial.serial_elapsed)
        for workers in WORKER_SWEEP[1:]:
            schedule = runs[workers][2]
            # Same task set, same total work; only the packing changes.
            assert schedule.tasks == serial.tasks
            assert schedule.serial_elapsed == pytest.approx(
                serial.serial_elapsed
            )
            assert schedule.makespan < serial.makespan
        assert runs[4][2].speedup >= 2.0

    def test_partitioned_agrees_with_serial_reference(self):
        # Across the partitioned/unpartitioned boundary only
        # function-level equality holds (per-shard float summation
        # order differs); keys must match exactly.
        db0 = _batch_db()
        ref = db0.run_batch(_sixteen_queries(db0))
        db1 = _batch_db(partitioned=True, workers=4)
        got = db1.run_batch(_sixteen_queries(db1))
        for r0, r1 in zip(ref.reports, got.reports):
            if r0.error is not None:
                assert type(r1.error) is type(r0.error)
                continue
            assert r1.result.equals(r0.result, SUM_PRODUCT)


class TestBPWorkerSweep:
    def _relations(self):
        rng = np.random.default_rng(13)
        a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
        return [
            complete_relation([a, b], rng=rng, name="t_ab"),
            complete_relation([b, c], rng=rng, name="t_bc"),
            complete_relation([c, d], rng=rng, name="t_cd"),
        ]

    def test_bp_messages_identical_across_workers(self):
        outputs = {}
        counters = {}
        for workers in WORKER_SWEEP:
            registry = MetricsRegistry()
            ctx = ExecutionContext(
                {}, SUM_PRODUCT, metrics=registry, workers=workers
            )
            result = belief_propagation(
                self._relations(), SUM_PRODUCT, context=ctx
            )
            outputs[workers] = {
                name: _result_bytes(rel)
                for name, rel in result.tables.items()
            }
            counters[workers] = _counters(registry)
            ctx.publish_schedule()
        assert outputs[2] == outputs[1]
        assert outputs[4] == outputs[1]
        assert counters[2] == counters[1]
        assert counters[4] == counters[1]


class TestCrashDifferential:
    """Crash → recover → resume at every worker count.

    Byte-identical across worker counts (same crash point, same
    resume) and against the uninterrupted reference.
    """

    @pytest.fixture(scope="class")
    def uninterrupted(self):
        db = _batch_db(partitioned=True)
        return db.run_batch(_sixteen_queries(db)).reports

    def _crash_and_resume(self, directory, point, workers):
        crash = Faults().target(point, "crash", after=2)
        registry = MetricsRegistry()
        db = _batch_db(
            metrics=registry, workers=workers, partitioned=True
        )
        wal = WriteAheadLog(
            wal_path(directory), faults=crash, metrics=registry
        )
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
            if state.has_checkpoint:
                db = Database.restore(state)
                # The checkpoint manifest re-declared the partition
                # specs: the restored catalog is sharded again.
                assert db.catalog.has_partitions
            else:
                db = _batch_db(metrics=state.registry, partitioned=True)
            wal2 = WriteAheadLog(wal_path(directory), metrics=db.metrics)
            checkpointer2 = CheckpointManager(directory, wal=wal2,
                                              metrics=db.metrics)
            try:
                batch = db.run_batch(
                    _sixteen_queries(db), wal=wal2, resume_from=state,
                    checkpointer=checkpointer2, checkpoint_every=4,
                    workers=workers,
                )
            finally:
                wal2.close()
        return crashed, batch, db.metrics

    @pytest.mark.parametrize("point", CRASH_POINTS)
    def test_crash_resume_identical_across_workers(
        self, tmp_path, point, uninterrupted
    ):
        outcomes = {}
        for workers in WORKER_SWEEP:
            directory = str(tmp_path / f"w{workers}")
            crashed, batch, registry = self._crash_and_resume(
                directory, point, workers
            )
            outcomes[workers] = (
                crashed,
                [_report_fingerprint(r) for r in batch.reports],
                _counters(registry),
                batch.reports,
            )

        ref_crashed, ref_prints, ref_counters, _ = outcomes[1]
        for workers in WORKER_SWEEP[1:]:
            crashed, prints, counters, _ = outcomes[workers]
            # Ordered dispatch: the crash fires at the same place at
            # every worker count, and the resumed run is byte-for-byte
            # the same.
            assert crashed == ref_crashed
            assert prints == ref_prints
            assert counters == ref_counters

        # Byte equality against the uninterrupted reference: a memo
        # entry seeded from a checkpoint gets its shard form back, so
        # the resumed run combines the same partials in the same order.
        assert [_report_fingerprint(r) for r in outcomes[1][3]] == [
            _report_fingerprint(r) for r in uninterrupted
        ]
