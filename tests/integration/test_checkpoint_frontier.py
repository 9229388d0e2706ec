"""Frontier checkpoints: a batch checkpoint holds only the memo entries a
resume can read.

``Database.run_batch`` hands its checkpoint the roots that have not run
yet, and the manifest's memo section keeps the first memoized node on
every path down from each of them — nothing after a batch's last query.
A resume from any of those checkpoints must still be the uninterrupted
run, byte for byte: answers, every ``IOStats`` field of every query it
runs, and the WAL's PAGE records.
"""

import dataclasses

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.plans.serialize import plan_from_dict
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import (
    CheckpointManager,
    Faults,
    InjectedCrash,
    RecoveryManager,
    WriteAheadLog,
    replay_wal,
    wal_path,
)
from repro.storage.wal import WAL_PAGE

WORKERS = 2


def _db(metrics=None):
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(metrics=metrics, workers=WORKERS)
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.register(complete_relation([c, d], rng=rng, name="r_cd"))
    # r_ab ⋈ r_bc is co-partitioned on b; joins with r_cd on c shuffle,
    # which writes temporary pages through the WAL.
    db.catalog.partition_table("r_ab", "b", 3)
    db.catalog.partition_table("r_bc", "b", 3)
    db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def _six_queries(db):
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    return [
        MPFQuery(view, ("a",)),
        MPFQuery(view, ("b",), selections={"c": 0}),
        MPFQuery(view, ("c",)),
        MPFQuery(view, ("a", "d")),
        MPFQuery(view, ("d",)),
        MPFQuery(view, ("b", "c")),
    ]


def _run(directory, crash_after=None):
    """The batch with a WAL and a checkpoint after every query; with
    ``crash_after``, crash before query ``crash_after`` and resume."""
    faults = None
    if crash_after is not None:
        faults = Faults().target("batch.query", "crash", after=crash_after)
    db = _db()
    wal = WriteAheadLog(wal_path(directory), faults=faults)
    try:
        with wal:
            return db.run_batch(
                _six_queries(db), wal=wal,
                checkpointer=CheckpointManager(directory, wal=wal),
                checkpoint_every=1,
            )
    except InjectedCrash:
        assert crash_after is not None
    state = RecoveryManager(directory).recover()
    if state.has_checkpoint:
        db = Database.restore(state, workers=WORKERS)
    else:
        db = _db(metrics=state.registry)
    with WriteAheadLog(wal_path(directory)) as wal:
        batch = db.run_batch(
            _six_queries(db), wal=wal, resume_from=state,
            checkpointer=CheckpointManager(directory, wal=wal),
            checkpoint_every=1,
        )
    assert sum(r.recovered for r in batch.reports) == crash_after
    return batch


def _answer(report) -> bytes:
    keys, measure = report.result.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


def _page_records(directory) -> list[bytes]:
    return [
        r.payload for r in replay_wal(wal_path(directory)).of_kind(WAL_PAGE)
    ]


@pytest.fixture(scope="module")
def uninterrupted(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("uninterrupted"))
    return directory, _run(directory)


def _memo_keys(manager, name) -> set[tuple]:
    return {
        plan_from_dict(entry["plan"]).structural_key()
        for entry in manager.load(name).manifest["memo"]
    }


def _brute_frontier(dag, ran, unrun) -> set[tuple]:
    """Every memoized node that is the first memoized one on some path
    down from an unrun root, by enumerating the paths one by one.  In a
    fresh batch with no failures the memo holds exactly the nodes below
    the roots that ran."""
    memoized = set()
    stack = list(ran)
    while stack:
        key = stack.pop()
        memoized.add(key)
        stack.extend(dag.children[key])

    found = set()

    def paths(key):
        if key in memoized:
            found.add(key)
            return
        for child in dag.children[key]:
            paths(child)

    for root in unrun:
        paths(root)
    return found


class TestFrontier:
    def test_checkpoint_after_the_last_query_has_no_memo(
        self, uninterrupted
    ):
        directory, _ = uninterrupted
        manager = CheckpointManager(directory)
        assert _memo_keys(manager, manager.latest()) == set()

    def test_mid_batch_memo_is_what_the_unrun_roots_read(
        self, uninterrupted
    ):
        directory, batch = uninterrupted
        manager = CheckpointManager(directory)
        names = manager.list_checkpoints()
        roots = batch.dag.roots
        assert len(names) == len(roots) == 6
        sizes = []
        for done, name in enumerate(names, start=1):
            want = _brute_frontier(batch.dag, roots[:done], roots[done:])
            assert _memo_keys(manager, name) == want, name
            sizes.append(len(want))
        assert sizes[-1] == 0 and max(sizes) > 0

    @pytest.mark.parametrize("k", range(6))
    def test_resume_at_every_query_is_byte_identical(
        self, tmp_path, uninterrupted, k
    ):
        ref_directory, ref = uninterrupted
        got = _run(str(tmp_path), crash_after=k)
        assert [_answer(r) for r in got.reports] == [
            _answer(r) for r in ref.reports
        ]
        for index, (mine, theirs) in enumerate(zip(got.reports, ref.reports)):
            if not mine.recovered:
                assert dataclasses.asdict(mine.exec_stats) == (
                    dataclasses.asdict(theirs.exec_stats)
                ), f"query {index}"
        assert _page_records(str(tmp_path)) == _page_records(ref_directory)
