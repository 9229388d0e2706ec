"""Extension — partition-parallel scaling of the 16-query batch.

The scheduled execution path decomposes operators over hash-partitioned
tables into per-shard tasks and models their parallel packing with a
critical-path clock (``docs/parallelism.md``).  This bench runs the
16-query batch used by the differential suites on a partitioned
catalog at increasing worker counts and records the modeled makespan.

Expected shape: ``serial_elapsed`` (total work), page reads, and every
structural counter are identical at every worker count — only the
makespan shrinks.  The acceptance bar for PR 6 is a >= 2x modeled
speedup at 4 workers.
"""

from __future__ import annotations

import numpy as np
import pytest

from _harness import reporter

from repro import Database
from repro.data import complete_relation, var
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT

WORKER_COUNTS = (1, 2, 4, 8)

_REPORT = reporter(
    "parallel_scaling",
    "Partition-parallel scaling — modeled makespan of the 16-query batch",
    ["workers", "tasks", "serial_elapsed", "makespan", "speedup",
     "page_reads", "shard_tasks"],
)


def _make_db(workers, metrics=None):
    rng = np.random.default_rng(20260806)
    a, b, c, d = var("a", 6), var("b", 5), var("c", 4), var("d", 3)
    db = Database(metrics=metrics, workers=workers)
    db.register(complete_relation([a, b], rng=rng, name="r_ab"))
    db.register(complete_relation([b, c], rng=rng, name="r_bc"))
    db.register(complete_relation([c, d], rng=rng, name="r_cd"))
    db.catalog.partition_table("r_ab", "b", 4)
    db.catalog.partition_table("r_bc", "b", 4)
    db.catalog.partition_table("r_cd", "c", 2)
    db.create_view("v", ("r_ab", "r_bc", "r_cd"))
    return db


def _queries(db):
    view = MPFView("v", db._views["v"].view_tables, SUM_PRODUCT)
    queries = [MPFQuery(view, (g,)) for g in ("a", "b", "c", "d")]
    for g, sel in (("a", {"b": 1}), ("b", {"c": 0}), ("c", {"d": 2}),
                   ("d", {"a": 3})):
        queries.append(MPFQuery(view, (g,), selections=sel))
    for pair in (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")):
        queries.append(MPFQuery(view, pair))
    queries.append(MPFQuery(view, ("a",), selections={"a": 0}))
    queries.append(MPFQuery(view, ("b", "d")))
    queries.append(MPFQuery(view, ("a", "c")))
    queries.append(MPFQuery(view, ("b",), selections={"d": 1}))
    return queries


def _shard_tasks(workers):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    db = _make_db(workers, metrics=registry)
    db.run_batch(_queries(db))
    return int(registry.snapshot().get("shard.tasks"))


@pytest.mark.parametrize("workers", WORKER_COUNTS)
def test_parallel_scaling(benchmark, workers):
    def run():
        db = _make_db(workers)
        return db.run_batch(_queries(db))

    batch = benchmark(run)
    schedule = batch.schedule
    assert schedule is not None and schedule.workers == workers

    # Total work is worker-independent; only the packing changes.
    db1 = _make_db(1)
    baseline = db1.run_batch(_queries(db1))
    assert schedule.tasks == baseline.schedule.tasks
    assert schedule.serial_elapsed == pytest.approx(
        baseline.schedule.serial_elapsed
    )
    if workers >= 4:
        # PR 6 acceptance: >= 2x modeled speedup at 4 workers.
        assert schedule.speedup >= 2.0

    # One instrumented run to read the structural shard counters
    # (worker-independent by the determinism contract).
    shard_tasks = _shard_tasks(workers)

    benchmark.extra_info.update(
        makespan=schedule.makespan, speedup=schedule.speedup
    )
    _REPORT.metrics.counter("bench.parallel_runs").inc()
    _REPORT.add(
        workers, schedule.tasks, schedule.serial_elapsed,
        schedule.makespan, round(schedule.speedup, 3),
        batch.stats.page_reads, shard_tasks,
    )

