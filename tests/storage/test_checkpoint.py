"""Checkpoints: atomic snapshots, restore, corruption fallback."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import complete_relation, var
from repro.data.domain import Domain, Variable
from repro.data.relation import FunctionalRelation
from repro.data.serialize import (
    relation_from_payload,
    relation_meta,
    relation_payload,
)
from repro.engine import Database
from repro.errors import RecoveryError
from repro.plans.lower import lower
from repro.plans.nodes import GroupBy, ProductJoin, Scan
from repro.plans.runtime import ExecutionContext, evaluate_dag
from repro.semiring import BOOLEAN, SUM_PRODUCT
from repro.storage import (
    CheckpointManager,
    Faults,
    InjectedCrash,
    RecoveryManager,
    WriteAheadLog,
    decode_unit,
    encode_unit,
    wal_path,
)


def _snapshot_bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return keys.tobytes() + measure.tobytes()


def _database(metrics=None):
    rng = np.random.default_rng(11)
    a, b, c = var("a", 4), var("b", 3), var("c", 2)
    db = Database(metrics=metrics) if metrics is not None else Database()
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.create_view("v", ("r_ab", "r_bc"))
    return db


class TestCheckpointRestore:
    def test_full_round_trip(self, tmp_path):
        directory = str(tmp_path)
        db = _database()
        db.catalog.create_index("r_ab", "a")
        originals = {
            name: _snapshot_bytes(db.catalog.relation(name))
            for name in db.catalog.table_names
        }
        manager = CheckpointManager(directory)
        name = manager.checkpoint(db)
        assert manager.latest() == name

        recovery = RecoveryManager(directory)
        state = recovery.recover()
        assert state.has_checkpoint
        restored = Database.restore(state)
        for table, expected in originals.items():
            assert _snapshot_bytes(
                restored.catalog.relation(table)
            ) == expected
        assert restored.catalog.stats_epoch == db.catalog.stats_epoch
        assert restored.catalog._next_file_id == db.catalog._next_file_id
        assert set(restored._views) == set(db._views)
        assert ("r_ab", "a") in restored.catalog._indexes

    def test_restore_is_queryable(self, tmp_path):
        directory = str(tmp_path)
        db = _database()
        reference = db.execute(
            "select a, sum(f) from v group by a"
        ).result
        manager = CheckpointManager(directory)
        manager.checkpoint(db)

        recovery = RecoveryManager(directory)
        restored = Database.restore(recovery.recover())
        again = restored.execute(
            "select a, sum(f) from v group by a"
        ).result
        assert _snapshot_bytes(again) == _snapshot_bytes(reference)

    def test_restore_carries_every_setting(self, tmp_path):
        from repro.storage import BufferPool

        directory = str(tmp_path)
        CheckpointManager(directory).checkpoint(_database())
        state = RecoveryManager(directory).recover()
        faults = Faults(5).rate("page.read", "transient", 0.1)
        settings = {
            "pool": BufferPool(capacity_pages=64, faults=faults),
            "workers": 3,
        }
        restored = Database.restore(state, **settings)
        for name, value in settings.items():
            assert getattr(restored, name) is value, name
        assert restored.metrics is state.registry
        # The settings reach the contexts the engine builds.
        assert restored._run_settings() == {
            **settings, "metrics": state.registry,
        }

    def test_restore_without_checkpoint_raises(self, tmp_path):
        state = RecoveryManager(str(tmp_path)).recover()
        with pytest.raises(RecoveryError, match="no loadable checkpoint"):
            Database.restore(state)

    def test_memo_round_trips_through_seed_context(self, tmp_path):
        directory = str(tmp_path)
        db = _database()
        plan = GroupBy(ProductJoin(Scan("r_ab"), Scan("r_bc")), ["a"])
        ctx = ExecutionContext(
            {n: db.catalog.relation(n) for n in db.catalog.table_names},
            SUM_PRODUCT,
            metrics=db.metrics,
        )
        dag = lower(plan)
        (result,) = evaluate_dag(dag, ctx)

        manager = CheckpointManager(directory)
        manager.checkpoint(db, context=ctx, dag=dag, roots=dag.roots)

        state = RecoveryManager(directory).recover()
        fresh = ExecutionContext(
            {n: db.catalog.relation(n) for n in db.catalog.table_names},
            SUM_PRODUCT,
        )
        assert state.seed_context(fresh) > 0
        # The seeded memo serves the same plan without recomputation.
        key = plan.structural_key()
        assert key in fresh.memo
        assert _snapshot_bytes(fresh.memo[key]) == _snapshot_bytes(result)

    def test_empty_database_checkpoints(self, tmp_path):
        directory = str(tmp_path)
        db = Database()
        manager = CheckpointManager(directory)
        name = manager.checkpoint(db)
        recovery = RecoveryManager(directory)
        restored = Database.restore(recovery.recover())
        assert list(restored.catalog.table_names) == []
        assert manager.load(name).manifest["tables"] == []


def _crashing_wal(directory, point):
    faults = Faults().target(point, "crash")
    return WriteAheadLog(wal_path(directory), faults=faults)


class TestCrashDuringCheckpoint:
    @pytest.mark.parametrize(
        "point", ["checkpoint.begin", "checkpoint.pages", "checkpoint.commit"]
    )
    def test_crash_during_first_checkpoint_recovers_cold(
        self, tmp_path, point
    ):
        directory = str(tmp_path)
        db = _database()
        manager = CheckpointManager(
            directory, wal=_crashing_wal(directory, point)
        )
        with pytest.raises(InjectedCrash):
            manager.checkpoint(db)
        # Nothing committed: at most a stray .tmp file remains.
        assert manager.list_checkpoints() == []
        state = RecoveryManager(directory).recover()
        assert not state.has_checkpoint
        assert state.checkpoints_discarded == 0

    def test_crash_after_commit_preserves_previous_checkpoint(
        self, tmp_path
    ):
        directory = str(tmp_path)
        db = _database()
        manager = CheckpointManager(directory)
        first = manager.checkpoint(db)
        crashing = CheckpointManager(
            directory, wal=_crashing_wal(directory, "checkpoint.commit")
        )
        with pytest.raises(InjectedCrash):
            crashing.checkpoint(db)
        state = RecoveryManager(directory).recover()
        assert state.checkpoint.name == first


class TestCorruptCheckpoints:
    def test_corrupt_latest_falls_back_to_previous(self, tmp_path):
        directory = str(tmp_path)
        db = _database()
        manager = CheckpointManager(directory)
        first = manager.checkpoint(db)
        second = manager.checkpoint(db)
        with open(os.path.join(directory, second), "r+b") as fh:
            fh.seek(-1, os.SEEK_END)
            fh.write(b"\xff")
        state = RecoveryManager(directory).recover()
        assert state.checkpoint.name == first
        assert state.checkpoints_discarded == 1
        registry = state.registry.snapshot().to_dict()
        assert registry["recovery.checkpoints_discarded"]["value"] == 1

    def test_bad_magic_is_loud_on_direct_load(self, tmp_path):
        directory = str(tmp_path)
        db = _database()
        manager = CheckpointManager(directory)
        name = manager.checkpoint(db)
        with open(os.path.join(directory, name), "r+b") as fh:
            fh.write(b"XXXXXXXX")
        with pytest.raises(RecoveryError, match="bad magic"):
            manager.load(name)

    def test_missing_checkpoint_is_loud(self, tmp_path):
        manager = CheckpointManager(str(tmp_path))
        with pytest.raises(RecoveryError):
            manager.load("chk-00000042.ckpt")

    def test_missing_directory_is_loud(self, tmp_path):
        with pytest.raises(RecoveryError, match="does not exist"):
            RecoveryManager(str(tmp_path / "nope")).recover()


def _unit_round_trip(relation):
    """A relation through a WAL unit record, as its result."""
    return decode_unit(encode_unit("k", "ok", result=relation))["result"]


def _identical(left, right) -> bool:
    """Same schema, names and dtype, and the same bytes in every column
    and the measure (NaN payloads and signed zeros included)."""
    return (
        relation_meta(left) == relation_meta(right)
        and relation_payload(left) == relation_payload(right)
    )


_SPECIAL_FLOATS = (
    0.0, -0.0, float("nan"), float("inf"), float("-inf"),
    5e-324, -2.2250738585072e-308, np.finfo(np.float64).max,
)


@st.composite
def relations(draw):
    """Small relations of every measure dtype a unit record carries,
    including zero-row and zero-variable (constant) ones."""
    sizes = draw(st.lists(st.integers(1, 4), max_size=3))
    variables = [
        Variable(f"v{i}", Domain(f"d{i}", size)) for i, size in enumerate(sizes)
    ]
    cells = int(np.prod(sizes)) if sizes else 1
    rows = draw(st.lists(
        st.integers(0, cells - 1), unique=True, max_size=min(cells, 12)
    ))
    codes = np.unravel_index(np.array(rows, dtype=np.int64), sizes or (1,))
    dtype = draw(st.sampled_from(["float64", "int64", "bool"]))
    values = {
        "float64": st.one_of(
            st.floats(allow_nan=True, allow_infinity=True),
            st.sampled_from(_SPECIAL_FLOATS),
        ),
        "int64": st.integers(-(2 ** 63), 2 ** 63 - 1),
        "bool": st.booleans(),
    }[dtype]
    measure = np.array(
        draw(st.lists(values, min_size=len(rows), max_size=len(rows))),
        dtype=dtype,
    )
    return FunctionalRelation(
        variables,
        {v.name: codes[i] for i, v in enumerate(variables)},
        measure,
        name=draw(st.sampled_from([None, "r", "answer"])),
        measure_name=draw(st.sampled_from(["f", "p"])),
    )


class TestUnitRecordCodec:
    @given(relations())
    @settings(max_examples=150, deadline=None)
    def test_unit_records_round_trip_bit_for_bit(self, relation):
        assert _identical(_unit_round_trip(relation), relation)

    def test_special_doubles_keep_their_bits(self):
        a = var("a", len(_SPECIAL_FLOATS))
        rel = FunctionalRelation.from_rows(
            [a], list(enumerate(_SPECIAL_FLOATS)), name="edge"
        )
        rebuilt = _unit_round_trip(rel)
        assert rebuilt.measure.tobytes() == rel.measure.tobytes()
        assert np.signbit(rebuilt.measure[1])

    def test_record_holds_only_what_recovery_reads(self):
        rel = complete_relation([var("a", 3)], rng=np.random.default_rng(1))
        record = json.loads(encode_unit("k", "ok", result=rel, delta={}))
        assert set(record) == {"key", "status", "result", "error", "delta"}

    def test_record_with_a_null_tables_field_decodes_the_same(self):
        # Records written before the field was dropped carried
        # ``"tables": null``; their WALs must still replay.
        rel = complete_relation([var("a", 3)], rng=np.random.default_rng(1))
        text = encode_unit("k", "error", result=rel,
                           error=RecoveryError("x"), delta={"d": 1})
        older = json.dumps({**json.loads(text), "tables": None},
                           sort_keys=True)
        assert len(older) == len(text) + len(', "tables": null')
        unit, old = decode_unit(text), decode_unit(older)
        assert old.pop("tables") is None
        assert _identical(old.pop("result"), unit.pop("result"))
        assert old == unit

    def _record(self, mutate):
        rng = np.random.default_rng(6)
        rel = complete_relation([var("a", 5)], rng=rng, name="r")
        unit = json.loads(encode_unit("k", "ok", result=rel))
        mutate(unit["result"], rel)
        return json.dumps(unit)

    def test_truncated_payload_raises(self):
        def truncate(entry, rel):
            # Still valid base64, one measure short of the meta's rows.
            entry["payload"] = entry["payload"][:-12]

        with pytest.raises(RecoveryError, match="payload is"):
            decode_unit(self._record(truncate))

    def test_list_form_record_raises(self):
        def as_lists(entry, rel):
            del entry["payload"]
            entry["columns"] = {"a": rel.columns["a"].tolist()}
            entry["measure"] = rel.measure.tolist()

        with pytest.raises(RecoveryError, match="base64 payload"):
            decode_unit(self._record(as_lists))

    def test_recovery_rejects_a_list_form_record(self, tmp_path):
        def as_lists(entry, rel):
            del entry["payload"]
            entry["measure"] = rel.measure.tolist()

        with WriteAheadLog(wal_path(str(tmp_path))) as wal:
            wal.log_unit(self._record(as_lists))
        with pytest.raises(RecoveryError):
            RecoveryManager(str(tmp_path)).recover()


class TestRelationSerialization:
    def _round_trip(self, relation):
        """Through the checkpoint's meta + payload, and through a WAL
        unit record, which carries the same two layers."""
        payload = relation_payload(relation)
        rebuilt = relation_from_payload(relation_meta(relation), payload)
        assert _identical(_unit_round_trip(relation), rebuilt)
        return rebuilt

    def test_float64_measures_are_exact(self):
        rng = np.random.default_rng(3)
        rel = complete_relation(
            [var("a", 7), var("b", 5)], rng=rng, name="r"
        )
        rebuilt = self._round_trip(rel)
        assert _snapshot_bytes(rebuilt) == _snapshot_bytes(rel)
        assert rebuilt.name == "r"

    def test_json_round_trip_is_exact_for_doubles(self):
        rng = np.random.default_rng(4)
        rel = complete_relation([var("a", 9)], rng=rng, name="r")
        rebuilt = _unit_round_trip(rel)
        assert _snapshot_bytes(rebuilt) == _snapshot_bytes(rel)

    def test_boolean_dtype_round_trips(self):
        a = var("a", 3)
        rel = FunctionalRelation.from_rows(
            [a], [(0, True), (1, False), (2, True)],
            name="flags", measure_name="present", dtype=BOOLEAN.dtype,
        )
        rebuilt = _unit_round_trip(rel)
        assert rebuilt.measure.dtype == rel.measure.dtype
        assert _snapshot_bytes(rebuilt) == _snapshot_bytes(rel)

    def test_labeled_domain_round_trips(self):
        color = Variable(
            "color", Domain("colors", 3, labels=("red", "green", "blue"))
        )
        rel = FunctionalRelation.from_rows(
            [color], [(0, 1.5), (2, 2.5)], name="paint"
        )
        rebuilt = self._round_trip(rel)
        assert rebuilt.variables["color"].domain.labels == (
            "red", "green", "blue",
        )
        assert _snapshot_bytes(rebuilt) == _snapshot_bytes(rel)

    def test_zero_row_relation_round_trips(self):
        rel = FunctionalRelation.from_rows([var("a", 2)], [], name="empty")
        rebuilt = self._round_trip(rel)
        assert rebuilt.ntuples == 0
        assert rebuilt.var_names == ("a",)

    def test_constant_relation_round_trips(self):
        rel = FunctionalRelation.constant(3.25, name="k")
        rebuilt = self._round_trip(rel)
        assert rebuilt.arity == 0
        assert float(rebuilt.measure[0]) == 3.25

    def test_truncated_payload_is_loud(self):
        rng = np.random.default_rng(5)
        rel = complete_relation([var("a", 6)], rng=rng, name="r")
        payload = relation_payload(rel)
        with pytest.raises(RecoveryError):
            relation_from_payload(relation_meta(rel), payload[:-3])
