"""Property test: batch execution isolates faults per query.

Under a seeded random fault sweep, ``run_batch(stop_on_error=False)``
must behave as if each query ran alone: every query's result (or its
error class) is identical to a solo run against a fresh database with
the identically seeded fault registry.  Shared subplans, the shared buffer
pool, and partial-failure handling must never let one query's fault
change another query's answer.
"""

import math

import numpy as np
import pytest

from repro.data import complete_relation, var
from repro.engine import Database
from repro.errors import MPFError
from repro.query import MPFQuery, MPFView
from repro.semiring import SUM_PRODUCT
from repro.storage import BufferPool, Faults

TRANSIENT_RATE = 0.05
PERMANENT_RATE = 0.03
SEEDS = range(8)


def _database(seed=None):
    faults = None
    if seed is not None:
        faults = Faults(seed)
        faults.rate("page.read", "permanent", PERMANENT_RATE, times=math.inf)
        faults.rate("page.read", "transient", TRANSIENT_RATE)
    rng = np.random.default_rng(99)
    a, b, c, d = var("a", 8), var("b", 6), var("c", 5), var("d", 4)
    db = Database(pool=BufferPool(faults=faults))
    db.register(complete_relation([a, b], rng=rng, name="p_ab"))
    db.register(complete_relation([b, c], rng=rng, name="p_bc"))
    db.register(complete_relation([c, d], rng=rng, name="p_cd"))
    db.create_view("w", ("p_ab", "p_bc", "p_cd"))
    return db


def _queries(db):
    view = MPFView("w", db._views["w"].view_tables, SUM_PRODUCT)
    return [
        MPFQuery(view, ("a",)),
        MPFQuery(view, ("b",)),
        MPFQuery(view, ("c",), selections={"d": 1}),
        MPFQuery(view, ("d",)),
        MPFQuery(view, ("a", "c")),
        MPFQuery(view, ("b",), selections={"a": 2}),
    ]


def _fingerprint(result, error):
    if error is not None:
        return ("error", type(error).__name__)
    keys, measure = result.sorted_snapshot()
    return ("ok", keys.tobytes() + measure.tobytes())


@pytest.mark.parametrize("seed", SEEDS)
def test_batch_queries_match_solo_runs(seed):
    db = _database(seed=seed)
    batch = db.run_batch(_queries(db), stop_on_error=False)
    batch_prints = [
        _fingerprint(r.result, r.error) for r in batch.reports
    ]

    solo_prints = []
    for index in range(len(batch_prints)):
        solo_db = _database(seed=seed)
        query = _queries(solo_db)[index]
        try:
            report = solo_db.run_query(query)
            solo_prints.append(_fingerprint(report.result, report.error))
        except MPFError as exc:
            solo_prints.append(_fingerprint(None, exc))

    assert batch_prints == solo_prints


def test_fault_free_sweep_is_all_ok():
    db = _database()
    batch = db.run_batch(_queries(db), stop_on_error=False)
    assert all(r.ok for r in batch.reports)


def test_seeded_sweep_hits_at_least_one_fault():
    """The rates are high enough that the sweep exercises real faults
    somewhere — otherwise the property above is vacuous."""
    injected = 0
    for seed in SEEDS:
        db = _database(seed=seed)
        db.run_batch(_queries(db), stop_on_error=False)
        injected += sum(db.pool.faults.counts.values())
    assert injected > 0
