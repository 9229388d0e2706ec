"""Differential acceptance for the kernel acceleration layer.

The contract: the group-index cache, the idempotent-semiring reduceat
fast paths, and Select→Scan fusion are **invisible in results** —
byte-identical outputs and identical structural counters across

* the lowered DAG vs the retained reference — the same DAG after CSE
  and before the Select→Scan rewrite, both run through ``evaluate_dag``,
* workers 1, 2, and 4 (partitioned or not),
* every builtin semiring,

while the modeled clock gets cheaper (the fused plan skips the
selection's full pass; a cache-hit GroupBy is charged linear instead of
``n log n``) and the ``kernel.*`` counters record the cache traffic.
"""

import numpy as np
import pytest

from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.data import complete_relation, var
from repro.engine import Database
from repro.obs.metrics import MetricsRegistry
from repro.plans.lower import _cse, lower
from repro.plans.runtime import ExecutionContext, evaluate_dag
from repro.query import MPFQuery, MPFView
from repro.semiring import ALL_SEMIRINGS, SUM_PRODUCT
from repro.storage import WriteAheadLog
from repro.workload.bp import belief_propagation

WORKER_SWEEP = (1, 2, 4)
TABLES = ("r_ab", "r_bc", "r_cd")


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


def _relations(semiring=SUM_PRODUCT, holed=False):
    """Three complete tables — held dense by the kernels — or, with
    ``holed``, each one row short of its grid, so the sparse kernels and
    their group-index cache run."""
    rng = np.random.default_rng(20260809)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    rels = [
        complete_relation([a, b], rng=rng, name="r_ab"),
        complete_relation([b, c], rng=rng, name="r_bc"),
        complete_relation([c, d], rng=rng, name="r_cd"),
    ]
    if holed:
        rels = [r.take(np.arange(r.ntuples - 1)) for r in rels]
    if semiring.dtype.kind == "b":
        rels = [r.with_measure(r.measure > 0.5) for r in rels]
    elif semiring.dtype.kind in "iu":
        rels = [
            r.with_measure((r.measure * 10).astype(semiring.dtype))
            for r in rels
        ]
    return rels


def _db(metrics=None, workers=1, partitioned=False, semiring=SUM_PRODUCT,
        holed=False):
    db = Database(metrics=metrics, workers=workers)
    for r in _relations(semiring, holed):
        db.register(r)
    if partitioned:
        db.catalog.partition_table("r_ab", "b", 3)
        db.catalog.partition_table("r_bc", "b", 3)
        db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", TABLES)
    return db


def _sixteen_queries(semiring=SUM_PRODUCT):
    view = MPFView("v", TABLES, semiring)
    queries = [MPFQuery(view, (g,)) for g in ("a", "b", "c", "d")]
    for g, sel in (("a", {"b": 1}), ("b", {"c": 0}), ("c", {"d": 2}),
                   ("d", {"a": 3})):
        queries.append(MPFQuery(view, (g,), selections=sel))
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        queries.append(MPFQuery(view, pair))
    queries.append(MPFQuery(view, ("a",), selections={"a": 0}))
    queries.append(MPFQuery(view, ("b", "d")))
    queries.append(MPFQuery(view, ("a", "c"), selections={"b": 2}))
    queries.append(MPFQuery(view, ("d",), selections={"c": 1}))
    assert len(queries) == 16
    return queries


def _run_batch(workers=1, partitioned=False, semiring=SUM_PRODUCT):
    """The sixteen queries as one engine batch (one shared DAG)."""
    DEFAULT_GROUP_INDEX_CACHE.clear()
    db = _db(workers=workers, partitioned=partitioned, semiring=semiring)
    batch = db.run_batch(_sixteen_queries(semiring))
    return [_report_fingerprint(r) for r in batch.reports]


# "plain" is the retained reference: the DAG after CSE, before any
# lowering rewrite — Scan and Select run as two operators.
LOWERINGS = {"plain": _cse, "fused": lower}


def _evaluate(lowering, workers=1, partitioned=False, semiring=SUM_PRODUCT,
              wal=None, holed=False):
    """Each query's plan lowered on its own and run through evaluate_dag.

    One DAG per query, not one per batch: a batch's CSE shares every
    base scan across queries, so no scan is exclusive to one Select and
    fusion (correctly) stands down there.  A lone query with a
    pushed-down selection is where the rewrite fires.
    """
    DEFAULT_GROUP_INDEX_CACHE.clear()
    registry = MetricsRegistry()
    db = _db(metrics=registry, partitioned=partitioned, semiring=semiring,
             holed=holed)
    db.pool.wal = wal
    optimizer = db.make_optimizer("auto")
    prints, elapsed = [], 0.0
    for query in _sixteen_queries(semiring):
        plan = optimizer.optimize(
            query.to_spec(db.catalog), db.catalog, db.cost_model
        ).plan
        ctx = ExecutionContext(
            db.catalog, semiring, pool=db.pool, metrics=registry,
            workers=workers,
        )
        (result,) = evaluate_dag(LOWERINGS[lowering](plan), ctx)
        prints.append(("ok", _result_bytes(query.finish(result))))
        elapsed += ctx.stats.elapsed()
    return prints, _counters(registry), elapsed


def _matching(counters, prefixes):
    return {k: v for k, v in counters.items() if k.startswith(prefixes)}


# What fusion must not move: page traffic, the pool, memo reuse.
STORAGE_SIDE = (
    "query.page_reads", "query.page_writes", "query.buffer_hits",
    "query.memo_hits", "bufferpool.", "shard.repartitions",
    "shard.shuffle_pages",
)


class TestFusedVsUnfused:
    def test_batch_results_byte_identical(self):
        ref_prints, ref_counters, _ = _evaluate("plain")
        prints, counters, _ = _evaluate("fused")
        assert prints == ref_prints
        # The engine's own batch path answers the same sixteen queries.
        assert _run_batch() == ref_prints
        # Fusion replaces Scan+Select operator pairs with FilterScan,
        # so operator-shape counters and CPU charges legitimately
        # differ; page traffic and memo reuse must not.
        assert _matching(counters, STORAGE_SIDE) == _matching(
            ref_counters, STORAGE_SIDE
        )

    def test_fusion_reduces_modeled_cost(self):
        _, ref_counters, ref_elapsed = _evaluate("plain")
        _, counters, elapsed = _evaluate("fused")
        assert elapsed < ref_elapsed
        assert (
            counters["query.tuples"]["value"]
            < ref_counters["query.tuples"]["value"]
        )

    def test_fused_operator_ran_and_shape_counters_account_for_it(self):
        _, ref_counters, _ = _evaluate("plain")
        _, counters, _ = _evaluate("fused")

        def runs(c, operator):
            key = f"query.operator_runs{{operator={operator}}}"
            return c.get(key, {"value": 0})["value"]

        fused = runs(counters, "FilterScan")
        assert fused >= 1
        assert runs(ref_counters, "FilterScan") == 0
        # Each FilterScan stands for exactly one Scan and one Select.
        for operator in ("Scan", "Select"):
            assert runs(ref_counters, operator) == (
                runs(counters, operator) + fused
            )

    @pytest.mark.parametrize("s", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_every_semiring_agrees(self, s):
        for partitioned in (False, True):
            # Partial aggregates reassociate float sums, so sharded
            # runs are compared with the sharded reference.
            ref_prints, _, _ = _evaluate(
                "plain", partitioned=partitioned, semiring=s
            )
            assert _run_batch(partitioned=partitioned, semiring=s) == (
                ref_prints
            )
            for workers in WORKER_SWEEP:
                for lowering in LOWERINGS:
                    prints, _, _ = _evaluate(
                        lowering, workers=workers, partitioned=partitioned,
                        semiring=s,
                    )
                    assert prints == ref_prints, (
                        lowering, workers, partitioned
                    )

    def test_wal_records_and_page_traffic_identical(self, tmp_path):
        logs = {}
        for lowering in LOWERINGS:
            path = tmp_path / f"{lowering}.wal"
            with WriteAheadLog(str(path)) as wal:
                _, counters, _ = _evaluate(
                    lowering, workers=2, partitioned=True, wal=wal
                )
            logs[lowering] = (
                path.read_bytes(), _matching(counters, STORAGE_SIDE)
            )
        assert logs["plain"][0]  # the shuffles really logged pages
        assert logs["fused"] == logs["plain"]


class TestKernelWorkerSweep:
    @pytest.mark.parametrize("lowering", LOWERINGS)
    @pytest.mark.parametrize("partitioned", (False, True),
                             ids=("whole", "sharded"))
    def test_sweep_byte_identical_with_kernel_counters(
        self, lowering, partitioned
    ):
        # Whole tables are holed: complete ones would run the dense
        # kernels, which never touch the cache (the test below).  The
        # sharded kernels stay sparse, so partitioned tables are
        # complete: their whole nodes run dense, next to the cache.
        runs = {
            workers: _evaluate(lowering, workers=workers,
                               partitioned=partitioned,
                               holed=not partitioned)
            for workers in WORKER_SWEEP
        }
        ref_prints, ref_counters, _ = runs[1]
        # The kernel cache really fired, and its counters are pinned
        # structural counters: identical at every worker count.
        assert ref_counters.get(
            "kernel.groupindex_hits", {"value": 0}
        )["value"] > 0
        assert "kernel.groupindex_misses" in ref_counters
        for workers in WORKER_SWEEP[1:]:
            prints, counters, _ = runs[workers]
            assert prints == ref_prints
            assert counters == ref_counters

    @pytest.mark.parametrize("lowering", LOWERINGS)
    def test_dense_sweep_byte_identical_with_kernel_counters(self, lowering):
        runs = {
            workers: _evaluate(lowering, workers=workers)
            for workers in WORKER_SWEEP
        }
        ref_prints, ref_counters, _ = runs[1]
        # Complete tables: the dense kernels really ran, and their count
        # is as structural as the cache's.
        assert ref_counters.get(
            "kernel.dense_ops", {"value": 0}
        )["value"] > 0
        for workers in WORKER_SWEEP[1:]:
            prints, counters, _ = runs[workers]
            assert prints == ref_prints
            assert counters == ref_counters


class TestBPKernelEquivalence:
    def _chain(self):
        rng = np.random.default_rng(13)
        a, b, c, d = var("a", 3), var("b", 3), var("c", 3), var("d", 3)
        return [
            complete_relation([a, b], rng=rng, name="t_ab"),
            complete_relation([b, c], rng=rng, name="t_bc"),
            complete_relation([c, d], rng=rng, name="t_cd"),
        ]

    def test_bp_messages_unchanged_by_fusion_and_workers(self, monkeypatch):
        outputs = {}
        for lowering, dag_of in LOWERINGS.items():
            # BP lowers its message plans itself, through evaluate().
            monkeypatch.setattr("repro.plans.runtime.lower", dag_of)
            for workers in WORKER_SWEEP:
                DEFAULT_GROUP_INDEX_CACHE.clear()
                ctx = ExecutionContext({}, SUM_PRODUCT, workers=workers)
                result = belief_propagation(
                    self._chain(), SUM_PRODUCT, context=ctx
                )
                outputs[(lowering, workers)] = {
                    name: _result_bytes(rel)
                    for name, rel in result.tables.items()
                }
        ref = outputs[("plain", 1)]
        for key, got in outputs.items():
            assert got == ref, f"BP diverged at {key}"
