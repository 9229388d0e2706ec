"""The four workloads: seeded inputs, op lists and reference answers.

Each ``setup_*`` builds everything one window needs from the seed —
data, engine objects, the op cycle, the reference fingerprint of every
op — verifies each distinct template in full against
:mod:`perfbench.reference` (which doubles as the warm-up), and returns a
:class:`State`.  Only public names of the engine are called; the list
is in ``perfbench/README.md``.

Sizes are frozen here.  A closed-loop window replays the op cycle whole
until its time is up, so two commits run the same mix; what the seed
varies is values, constants and order, never table sizes or network
structure, because the spread between seeds must stay inside the bounds.
"""

from __future__ import annotations

import os
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from perfbench import reference as ref
from repro import Database
from repro.bayes import CPD, BayesianNetwork, MPFInference, random_network
from repro.datagen import linear_view, multistar_view, star_view, supply_chain
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import QueryTracer
from repro.query import MPFQuery, MPFView
from repro.semiring import MIN_PRODUCT, SUM_PRODUCT
from repro.serve import TenantSpec
from repro.storage import BufferPool, CheckpointManager, WriteAheadLog, wal_path

OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")
"""Everything a run writes (traces, results, the WAL and checkpoints of
``batch_sharded``) goes here; ``out/.gitignore`` keeps it untracked."""

DSS_EXEC = {"scale": 0.2, "pool_pages": 256, "constants": 2}
"""Base data is ~710 pages, so no scan ever fits the 256-page pool."""

PLAN_HEAVY = {
    "nodes": 24, "max_parents": 3, "max_domain": 4, "structure_seed": 2,
    "view_tables": (8, 10), "view_domain": 10, "map_queries": 8,
    "cached_queries": 6,
}

SERVE_OPEN = {
    "scale": 0.05, "rate_qps": 30.0, "limit_ms": 100.0, "constants": 2,
    "traffic_seed": 20070611,
    "queue_depth": 32, "slo_s": 10.0, "burst_requests": 300,
    "burst_factor": 8.0, "post_reload_requests": 50,
}
"""``rate_qps`` is about a quarter of the seed commit's capacity here (one
request is ~8 ms of service).  At 55 % the tail was all queueing and did
not repeat from run to run, and when a neighbour steals the CPU for a
while the queues must not fill: a shed request is a failed one.  The
burst (8 x the rate, twice capacity) is where shedding is exercised."""

BATCH_SHARDED = {
    "scale": 0.02, "shards": 4, "workers": 2, "batch_size": 4,
    "batches_per_cycle": 16, "checkpoint_every": 4, "constants": 2,
}
"""One batch is ~200 shard tasks; at 8 queries or scale 0.05 an op takes
a third of a second here and a 20 s window would hold too few ops."""

_AGGREGATES = {"sum": SUM_PRODUCT, "min": MIN_PRODUCT}


@dataclass
class Op:
    """One operation of a cycle.

    ``run`` is the timed engine call and returns ``(relations, tallies)``
    — the answers plus exact counts for the per-layer report; ``want``
    holds the reference fingerprint of each answer.  ``variant`` is the
    same op in the form the trace run compares against (an engine tracer
    attached, or one worker instead of two).
    """

    label: str
    run: Callable[[], tuple]
    want: list
    variant: Callable[[], tuple] | None = None


@dataclass
class State:
    """Everything one window of one workload runs against."""

    ops: list[Op]
    registry: MetricsRegistry
    pools: list[BufferPool] = field(default_factory=list)
    variant_metric: str | None = None
    setup_tallies: dict = field(default_factory=dict)
    after_op: Callable[[], dict] | None = None
    """Untimed housekeeping between ops; returns exact counts."""
    close: Callable[[], None] = lambda: None
    serve: dict | None = None
    """Open-loop extras (database, tenants, reload relations)."""


class VerificationError(AssertionError):
    """A template's full answer disagreed with the reference in setup."""


def _first_op(tallies: dict, call):
    """Run ``call``; the first one of a set-up is timed as the cold op."""
    if "client.first_op_ms" in tallies:
        return call()
    started = time.perf_counter()
    result = call()
    tallies["client.first_op_ms"] = (time.perf_counter() - started) * 1e3
    return result


# ----------------------------------------------------------------------
# Supply chain (dss_exec, serve_open, batch_sharded)
# ----------------------------------------------------------------------
def _chain_tables(relations):
    return {
        name: (dict(rel.columns), rel.measure)
        for name, rel in relations.items()
    }


def _chain_templates(rng, relations, constants):
    """Single-variable group-bys x {sum, min} x {none, tid=k, cid=k}.

    Constants are drawn from values the data holds, so no template has
    an empty answer.
    """
    wheres = [{}]
    for name, table in (("tid", "ctdeals"), ("cid", "warehouses")):
        present = np.unique(relations[table].columns[name])
        for code in rng.choice(present, size=constants, replace=False):
            wheres.append({name: int(code)})
    return [
        (var, agg, where)
        for var in ref.CHAIN for agg in _AGGREGATES for where in wheres
    ]


def _verify(label, relation, var, want, agg="sum"):
    """Full-vector check of one answer against its dense reference."""
    identity = np.inf if agg == "min" else 0.0
    codes = relation.columns[var]
    if len(codes) != int((want != identity).sum()) or not np.allclose(
        relation.measure, want[codes], rtol=ref.RTOL, atol=0.0
    ):
        raise VerificationError(f"{label}: answer differs from reference")


def _supply_chain(scale, seed, **database_options):
    """The generated chain registered in a fresh ``Database`` with the
    ``invest`` view: ``(db, tables, relations, sizes)``."""
    chain = supply_chain(scale=scale, seed=seed)
    relations = {t: chain.catalog.relation(t) for t in chain.tables}
    sizes = {name: v.size for name, v in chain.variables.items()}
    db = Database(metrics=MetricsRegistry(), **database_options)
    for name in chain.tables:
        db.register(relations[name], name)
    db.create_view("invest", chain.tables)
    return db, chain.tables, relations, sizes


def _sql(var, agg, where):
    clause = "".join(f" where {k}={v}" for k, v in where.items())
    return f"select {var}, {agg}(inv) from invest{clause} group by {var}"


def setup_dss_exec(seed: int) -> State:
    cfg = DSS_EXEC
    rng = np.random.default_rng(seed)
    db, tables, relations, sizes = _supply_chain(
        cfg["scale"], seed,
        pool=BufferPool(capacity_pages=cfg["pool_pages"]),
    )
    dense = _chain_tables(relations)

    ops, tallies = [], {}
    for var, agg, where in _chain_templates(rng, relations, cfg["constants"]):
        sql = _sql(var, agg, where)
        want = ref.chain_answer(dense, sizes, var, agg, where)

        def run(sql=sql, **options):
            report = db.execute(sql, strategy="ve+", **options)
            return [report.result], {}

        _verify(sql, _first_op(tallies, run)[0][0], var, want, agg)
        ops.append(Op(
            sql, run, [ref.expected_fingerprint(want, agg)],
            variant=lambda run=run: run(tracer=QueryTracer()),
        ))
    rng.shuffle(ops)
    return State(
        ops, db.metrics, [db.pool],
        variant_metric="obs.engine_tracer_overhead_frac",
        setup_tallies=tallies,
    )


def setup_batch_sharded(seed: int) -> State:
    cfg = BATCH_SHARDED
    rng = np.random.default_rng(seed)
    db, tables, relations, sizes = _supply_chain(
        cfg["scale"], seed, workers=cfg["workers"]
    )
    registry = db.metrics
    for name, key in (("location", "pid"), ("contracts", "pid"),
                      ("ctdeals", "cid"), ("warehouses", "cid")):
        db.catalog.partition_table(name, key, cfg["shards"])
    dense = _chain_tables(relations)

    os.makedirs(OUT, exist_ok=True)
    directory = tempfile.mkdtemp(prefix="batch-", dir=OUT)
    wal = WriteAheadLog(wal_path(directory), metrics=registry)
    checkpointer = CheckpointManager(directory, wal=wal, metrics=registry)

    by_agg: dict[str, list] = {agg: [] for agg in _AGGREGATES}
    for var, agg, where in _chain_templates(rng, relations, cfg["constants"]):
        query = MPFQuery(
            MPFView("invest", tables, _AGGREGATES[agg]), (var,), where
        )
        want = ref.chain_answer(dense, sizes, var, agg, where)
        by_agg[agg].append((query, var, want))

    def batch(queries, checkpoint, **options):
        report = db.run_batch(
            queries, strategy="ve+", wal=wal,
            checkpointer=checkpointer if checkpoint else None,
            checkpoint_every=len(queries), **options,
        )
        schedule = report.schedule
        return [r.result for r in report.reports], {
            "plans.sched_tasks": schedule.tasks,
            "plans.sched_modeled_speedup": schedule.speedup,
            "plans.operators_run": report.stats.operators_run,
            "algebra.tuples_processed": report.stats.tuples_processed,
        }

    # Every template once, in full, through the batch path.  One worker:
    # answers do not depend on the worker count, and with two the time
    # of this pass doubles whenever the OS puts the pool's threads on
    # the other CPU, which would make setup_s bistable.
    tallies = {}
    for agg, entries in by_agg.items():
        answers, _ = _first_op(
            tallies,
            lambda: batch([q for q, _, _ in entries], False, workers=1),
        )
        for (query, var, want), answer in zip(entries, answers):
            _verify(repr(query), answer, var, want, agg)

    ops = []
    for index in range(cfg["batches_per_cycle"]):
        agg = ("sum", "min")[index % 2]
        picks = rng.choice(
            len(by_agg[agg]), size=cfg["batch_size"], replace=False
        )
        queries = [by_agg[agg][i][0] for i in picks]
        checkpoint = index % cfg["checkpoint_every"] == (
            cfg["checkpoint_every"] - 1
        )

        def run(queries=queries, checkpoint=checkpoint, **options):
            return batch(queries, checkpoint, **options)

        ops.append(Op(
            f"batch[{index}] {agg}{' +checkpoint' if checkpoint else ''}",
            run,
            [ref.expected_fingerprint(by_agg[agg][i][2], agg) for i in picks],
            variant=lambda run=run: run(workers=1),
        ))

    def after_op():
        # Size each new checkpoint, then drop it: the directory stays small.
        written = 0
        for name in checkpointer.list_checkpoints():
            path = os.path.join(directory, name)
            written += os.path.getsize(path)
            os.remove(path)
        return {"storage.checkpoint_bytes": written}

    def close():
        wal.close()
        shutil.rmtree(directory, ignore_errors=True)

    return State(
        ops, registry, [db.pool],
        variant_metric="plans.sched_wall_speedup",
        setup_tallies=tallies, after_op=after_op, close=close,
    )


def setup_serve_open(seed: int) -> State:
    """The op list here is the template list; arrivals are made by the
    open-loop runner from the same seed."""
    cfg = SERVE_OPEN
    rng = np.random.default_rng(seed)
    db, tables, relations, sizes = _supply_chain(cfg["scale"], seed)

    # Three versions of ctdeals: the initial one and the two reloads.
    versions = [relations["ctdeals"]]
    for _ in range(2):
        versions.append(versions[0].with_measure(
            rng.uniform(0.5, 1.0, size=versions[0].ntuples)
        ))
    dense = [
        _chain_tables({**relations, "ctdeals": version})
        for version in versions
    ]
    ops, tallies = [], {}
    for var, agg, where in _chain_templates(rng, relations, cfg["constants"]):
        query = MPFQuery(
            MPFView("invest", tables, _AGGREGATES[agg]), (var,), where
        )
        wants = [
            ref.chain_answer(tables_of, sizes, var, agg, where)
            for tables_of in dense
        ]
        answer = _first_op(
            tallies, lambda: db.run_query(query, strategy="ve+")
        ).result
        _verify(repr(query), answer, var, wants[0], agg)
        ops.append(Op(
            repr(query), lambda query=query: ([query], {}),
            [ref.expected_fingerprint(want, agg) for want in wants],
        ))
    tenants = [
        TenantSpec(name, priority=priority, queue_depth=cfg["queue_depth"],
                   slo=cfg["slo_s"])
        for name, priority in (("gold", 2), ("silver", 1), ("bronze", 0))
    ]
    return State(
        ops, db.metrics, [db.pool], setup_tallies=tallies,
        serve={"db": db, "tenants": tenants, "reloads": versions[1:]},
    )


# ----------------------------------------------------------------------
# plan_heavy
# ----------------------------------------------------------------------
_VIEW_PLANNERS = (
    ("cs+", "degree"), ("ve", "width"),
    ("ve+", "degree"), ("ve+", "width"), ("ve+", "elim_cost"),
)
"""``ve``/``degree`` is left out: on the star views it joins every table
before the first group-by and needs gigabytes.  With 38 network ops the
cycle has 70 ops, four of them heavy (``cs+`` and star ``ve+``/``degree``
at 10 tables), so the 95th percentile sits inside the lightest heavy
template's own samples and not in the gap below it."""


def _network(seed: int) -> BayesianNetwork:
    """Frozen structure, CPTs from ``seed``."""
    cfg = PLAN_HEAVY
    shape = random_network(
        cfg["nodes"], max_parents=cfg["max_parents"],
        max_domain=cfg["max_domain"], seed=cfg["structure_seed"],
    )
    rng = np.random.default_rng(seed)
    return BayesianNetwork(
        CPD.random(shape.cpd(name).variable, shape.cpd(name).parents, rng)
        for name in sorted(shape.variable_names, key=lambda n: int(n[1:]))
    )


def _posterior(vector):
    return vector / vector.sum()


def setup_plan_heavy(seed: int) -> State:
    cfg = PLAN_HEAVY
    rng = np.random.default_rng(seed)
    registry = MetricsRegistry()
    network = _network(seed)
    names = sorted(network.variable_names, key=lambda n: int(n[1:]))
    factors = [
        (tuple(v.name for v in network.cpd(n).scope), network.cpd(n).table)
        for n in names
    ]
    inference = MPFInference(network, metrics=registry)
    started = time.perf_counter()
    cache = inference.build_cache()
    tallies = {
        "workload.vecache_build_ms": (time.perf_counter() - started) * 1e3
    }

    def evidence_for(query_var):
        other = names[int(rng.integers(len(names)))]
        while other == query_var:
            other = names[int(rng.integers(len(names)))]
        return {other: int(rng.integers(network.variable(other).size))}

    def bn_op(kind, var, evidence):
        call = {
            "query": lambda: inference.query(var, evidence),
            "map": lambda: inference.map_query(var, evidence),
            "cached": lambda: inference.query_cached(cache, var, evidence),
        }[kind]
        want = ref.dense_answer(
            factors, var, "max" if kind == "map" else "sum", evidence
        )
        if kind != "map":
            want = _posterior(want)
        label = f"bn.{kind} {var} | {evidence}"
        _verify(label, _first_op(tallies, call), var, want)
        return Op(label, lambda: ([call()], {}), [ref.fingerprint(want)])

    ops = [bn_op("query", var, evidence_for(var)) for var in names]
    for kind, count in (("map", cfg["map_queries"]),
                        ("cached", cfg["cached_queries"])):
        for var in rng.choice(names, size=count, replace=False):
            ops.append(bn_op(kind, str(var), evidence_for(str(var))))

    # Brute force on the ancestor-closed prefix V0..V9: its marginals
    # equal the full network's, with evidence inside the prefix.
    prefix = names[:10]
    joint = ref.joint_enumeration(factors[:10], prefix)
    for var, other in ((prefix[3], prefix[7]), (prefix[9], prefix[0])):
        sliced = np.take(joint, 0, axis=prefix.index(other))
        kept = [n for n in prefix if n != other]
        axes = tuple(i for i, n in enumerate(kept) if n != var)
        _verify(
            f"enumeration {var}|{other}=0", inference.query(var, {other: 0}),
            var, _posterior(sliced.sum(axis=axes)),
        )

    pools = []
    for maker in (star_view, multistar_view, linear_view):
        for n_tables in cfg["view_tables"]:
            made = maker(n_tables, cfg["view_domain"], seed=seed)
            db = Database(metrics=registry)
            pools.append(db.pool)
            dense = []
            for name in made.tables:
                relation = made.catalog.relation(name)
                db.register(relation, name)
                tensor = np.zeros(
                    tuple(v.size for v in relation.variables)
                )
                tensor[tuple(
                    relation.columns[n] for n in relation.var_names
                )] = relation.measure
                dense.append((relation.var_names, tensor))
            view = MPFView(f"{made.kind}{n_tables}", made.tables)
            planners = list(_VIEW_PLANNERS)
            if made.kind == "linear":
                planners.append(("ve", "degree"))
            for strategy, heuristic in planners:
                var = made.chain_variables[n_tables // 2]
                query = MPFQuery(view, (var,))
                want = ref.dense_answer(dense, var)

                def run(db=db, query=query, strategy=strategy,
                        heuristic=heuristic, **options):
                    report = db.run_query(
                        query, strategy=strategy, heuristic=heuristic,
                        **options,
                    )
                    return [report.result], {}

                label = f"{view.name} {strategy}/{heuristic} {var}"
                _verify(label, run()[0][0], var, want)
                ops.append(Op(
                    label, run, [ref.fingerprint(want)],
                    variant=lambda run=run: run(tracer=QueryTracer()),
                ))
    rng.shuffle(ops)
    return State(
        ops, registry, pools,
        variant_metric="obs.engine_tracer_overhead_frac",
        setup_tallies=tallies,
    )


SETUPS = {
    "dss_exec": setup_dss_exec,
    "plan_heavy": setup_plan_heavy,
    "serve_open": setup_serve_open,
    "batch_sharded": setup_batch_sharded,
}
