"""Layer boundaries and the per-layer metrics computed across them.

Layers are the ``repro.*`` package names.  Times are milliseconds per
traced op (span totals unless the name says ``self``); counts are exact
and per traced op.  A metric whose layer a workload never enters reads
0 there (the contract wants every name on every workload);
``perfbench/README.md`` says which end-to-end metric each should move.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

from perfbench.spans import Target, percentile, rollup

TARGETS = [
    Target("query.parse", "repro.query.parser", "parse_statement"),
    Target("query.to_spec", "repro.query.query", "MPFQuery.to_spec"),
    Target(
        "optimizer.optimize", "repro.optimizer.base", "Optimizer.optimize",
        tally=lambda r: {"optimizer.plans_considered": r.plans_considered},
    ),
    Target(
        "plans.lower", "repro.plans.lower", "lower",
        tally=lambda dag: {
            "plans.dag_nodes": dag.unique_nodes,
            "plans.shared_subplans": dag.shared_nodes,
        },
    ),
    Target("plans.executor_run", "repro.plans.executor", "Executor.run"),
    Target("plans.evaluate_dag", "repro.plans.runtime", "evaluate_dag"),
    Target("plans.pool_run", "repro.plans.scheduler", "OrderedPool.run"),
    Target("algebra.product_join", "repro.algebra.join", "product_join"),
    Target("algebra.marginalize", "repro.algebra.aggregate", "marginalize"),
    Target("algebra.restrict", "repro.algebra.select", "restrict"),
    Target(
        "algebra.product_semijoin", "repro.algebra.semijoin",
        "product_semijoin",
    ),
    Target(
        "algebra.update_semijoin", "repro.algebra.semijoin",
        "update_semijoin",
    ),
    Target(
        "algebra.groupindex_build", "repro.algebra.groupindex",
        "GroupIndex.__init__",
    ),
    Target("storage.scan", "repro.storage.heapfile", "HeapFile.scan"),
    Target("storage.write_out", "repro.storage.heapfile",
           "HeapFile.write_out"),
    Target("storage.wal_append", "repro.storage.wal", "WriteAheadLog.append"),
    Target(
        "storage.checkpoint", "repro.storage.checkpoint",
        "CheckpointManager.checkpoint",
    ),
    Target(
        "serve.admit", "repro.serve.runtime", "ServingRuntime.admit",
        op_of=lambda args: args[1].seq,
    ),
    Target(
        "serve.dispatch", "repro.serve.runtime", "ServingRuntime.dispatch",
        op_of=lambda args: args[1].seq,
    ),
    Target(
        "serve.reload", "repro.serve.runtime", "ServingRuntime.reload_table"
    ),
    Target("workload.vecache_answer", "repro.workload.vecache",
           "VECache.answer"),
    Target(
        "workload.absorb_evidence", "repro.workload.vecache",
        "VECache.absorb_evidence",
    ),
] + [
    Target("obs.metrics_calls", "repro.obs.metrics",
           f"MetricsRegistry.{kind}", count_only=True)
    for kind in ("counter", "gauge", "histogram")
]

_SHARE_LAYERS = ("query", "optimizer", "plans", "algebra", "storage",
                 "serve", "workload")


def _metric(name, unit, better="lower"):
    return {"name": name, "unit": unit, "better": better}


PER_LAYER = [
    _metric("query.parse_ms", "ms"),
    _metric("query.to_spec_ms", "ms"),
    _metric("optimizer.optimize_ms", "ms"),
    _metric("optimizer.plans_considered", "count"),
    _metric("plans.lower_ms", "ms"),
    _metric("plans.execute_ms", "ms"),
    _metric("plans.runtime_self_ms", "ms"),
    _metric("plans.operators_run", "count"),
    _metric("plans.dag_nodes", "count"),
    _metric("plans.shared_subplans", "count", "higher"),
    _metric("plans.sched_pool_ms", "ms"),
    _metric("plans.sched_tasks", "count"),
    _metric("plans.sched_modeled_speedup", "ratio", "higher"),
    _metric("plans.sched_wall_speedup", "ratio", "higher"),
    _metric("algebra.groupindex_build_ms", "ms"),
    _metric("algebra.groupindex_hit_ratio", "ratio", "higher"),
    _metric("algebra.groupindex_evictions", "count"),
    _metric("algebra.join_ms", "ms"),
    _metric("algebra.marginalize_ms", "ms"),
    _metric("algebra.select_ms", "ms"),
    _metric("algebra.semijoin_ms", "ms"),
    _metric("algebra.tuples_processed", "count"),
    _metric("storage.scan_ms", "ms"),
    _metric("storage.page_reads", "count"),
    _metric("storage.pool_hit_ratio", "ratio", "higher"),
    _metric("storage.pool_evictions", "count"),
    _metric("storage.wal_append_ms", "ms"),
    _metric("storage.wal_bytes", "bytes"),
    _metric("storage.checkpoint_ms", "ms"),
    _metric("storage.checkpoint_bytes", "bytes"),
    _metric("serve.admit_ms", "ms"),
    _metric("serve.queue_wait_p50_ms", "ms"),
    _metric("serve.queue_wait_p95_ms", "ms"),
    _metric("serve.dispatch_ms", "ms"),
    _metric("serve.plan_cache_hit_ratio", "ratio", "higher"),
    _metric("serve.reload_ms", "ms"),
    _metric("serve.post_reload_p50_ms", "ms"),
    _metric("serve.burst_shed_frac", "ratio"),
    _metric("serve.burst_admitted_p50_ms", "ms"),
    _metric("serve.generator_lag_p99_ms", "ms"),
    _metric("workload.vecache_build_ms", "ms"),
    _metric("workload.vecache_answer_ms", "ms"),
    _metric("workload.absorb_evidence_ms", "ms"),
    _metric("obs.bench_trace_overhead_frac", "ratio"),
    _metric("obs.engine_tracer_overhead_frac", "ratio"),
    _metric("obs.metrics_calls", "count"),
    _metric("client.op_p99_ms", "ms"),
    _metric("client.first_op_ms", "ms"),
    _metric("client.samples", "count", "higher"),
    _metric("trace.coverage_frac", "ratio", "higher"),
] + [_metric(f"{layer}.share", "ratio") for layer in _SHARE_LAYERS]

_UNITS = {m["name"]: m["unit"] for m in PER_LAYER}


def _cost_per_op(window) -> float:
    """Seconds of the median cycle per op; an open loop's rate is set by
    its arrivals, so there it is processor seconds per op."""
    if window.cycles:
        return statistics.median(window.cycles) / window.cycle_ops
    return window.cpu_s / window.attempted


def layer_metrics(recorder, traced, plain, counts, extra):
    """``({name: (value, unit)}, rollup)`` for one traced window.

    ``counts`` are registry/cache deltas over the traced window,
    ``extra`` the values measured outside it (variant ratio, burst,
    set-up tallies).
    """
    ops = traced.attempted
    rolled = rollup(recorder.spans)

    def total_ms(*names):
        return sum(
            rolled[n]["total_s"] for n in names if n in rolled
        ) / ops * 1e3

    def self_ms(*names):
        return sum(
            rolled[n]["self_s"] for n in names if n in rolled
        ) / ops * 1e3

    def per_op(amount):
        return amount / ops

    def ratio(part, whole):
        return part / whole if whole else 0.0

    tallies = defaultdict(float, {**recorder.counts, **traced.tallies})
    roots = ("client.op",) if "client.op" in rolled else (
        "serve.admit", "serve.dispatch"
    )
    busy_ms = total_ms(*roots)
    inner = [n for n in rolled if n != "client.op"]
    serve = traced.serve
    latencies_ms = [t * 1e3 for t in traced.latencies]
    admissions = counts["pool_reads"] + counts["pool_writes"]
    checkpoints = counts["checkpoints"]

    # Whatever is not set below belongs to a layer this workload never
    # enters (or to ``extra``) and reads 0.
    values = dict.fromkeys(_UNITS, 0.0)
    values.update({
        "query.parse_ms": total_ms("query.parse"),
        "query.to_spec_ms": total_ms("query.to_spec"),
        "optimizer.optimize_ms": total_ms("optimizer.optimize"),
        "optimizer.plans_considered":
            per_op(tallies["optimizer.plans_considered"]),
        "plans.lower_ms": total_ms("plans.lower"),
        "plans.execute_ms": total_ms("plans.evaluate_dag"),
        "plans.runtime_self_ms":
            self_ms("plans.executor_run", "plans.evaluate_dag"),
        "plans.operators_run": per_op(counts["operators"]),
        "plans.dag_nodes": per_op(tallies["plans.dag_nodes"]),
        "plans.shared_subplans":
            per_op(tallies["plans.shared_subplans"]),
        "plans.sched_pool_ms": self_ms("plans.pool_run"),
        "plans.sched_tasks": per_op(tallies["plans.sched_tasks"]),
        "plans.sched_modeled_speedup":
            per_op(tallies["plans.sched_modeled_speedup"]),
        "algebra.groupindex_build_ms": total_ms("algebra.groupindex_build"),
        "algebra.groupindex_hit_ratio": ratio(
            counts["gidx_hits"], counts["gidx_hits"] + counts["gidx_misses"]
        ),
        "algebra.groupindex_evictions": per_op(counts["gidx_evictions"]),
        "algebra.join_ms": total_ms("algebra.product_join"),
        "algebra.marginalize_ms": total_ms("algebra.marginalize"),
        "algebra.select_ms": total_ms("algebra.restrict"),
        "algebra.semijoin_ms": total_ms(
            "algebra.product_semijoin", "algebra.update_semijoin"
        ),
        "algebra.tuples_processed": per_op(counts["tuples"]),
        "storage.scan_ms": total_ms("storage.scan"),
        "storage.page_reads": per_op(counts["pool_reads"]),
        "storage.pool_hit_ratio": ratio(
            counts["pool_hits"], counts["pool_hits"] + counts["pool_reads"]
        ),
        # Every miss or write admits a page; what did not grow the pool
        # pushed another page out.
        "storage.pool_evictions":
            per_op(max(0, admissions - counts["pool_resident"])),
        "storage.wal_append_ms": total_ms("storage.wal_append"),
        "storage.wal_bytes": per_op(counts["wal_bytes"]),
        "storage.checkpoint_ms": total_ms("storage.checkpoint"),
        "storage.checkpoint_bytes": ratio(
            tallies["storage.checkpoint_bytes"], checkpoints
        ),
        "serve.admit_ms": total_ms("serve.admit"),
        "serve.dispatch_ms": total_ms("serve.dispatch"),
        "workload.vecache_answer_ms": total_ms("workload.vecache_answer"),
        "workload.absorb_evidence_ms":
            total_ms("workload.absorb_evidence"),
        "obs.bench_trace_overhead_frac":
            _cost_per_op(traced) / _cost_per_op(plain) - 1.0,
        "obs.metrics_calls": per_op(tallies["obs.metrics_calls"]),
        "client.op_p99_ms": percentile(latencies_ms, 99),
        "client.samples": float(ops),
        "trace.coverage_frac": ratio(
            self_ms(*inner) if roots == ("client.op",) else busy_ms,
            busy_ms,
        ),
    })
    for layer in _SHARE_LAYERS:
        names = [n for n in rolled if n.startswith(layer + ".")]
        values[f"{layer}.share"] = ratio(self_ms(*names), busy_ms)
    if serve:
        values.update({
            "serve.queue_wait_p50_ms":
                percentile(serve["queue_wait_ms"], 50),
            "serve.queue_wait_p95_ms":
                percentile(serve["queue_wait_ms"], 95),
            "serve.plan_cache_hit_ratio": ratio(
                sum(serve["plan_cached"]), len(serve["plan_cached"])
            ),
            "serve.reload_ms": statistics.mean(serve["reload_ms"]),
            "serve.post_reload_p50_ms":
                percentile(serve["post_reload_ms"], 50),
            "serve.generator_lag_p99_ms": serve["lag_p99_ms"],
        })
    for name, value in extra.items():
        if name == "obs.engine_tracer_overhead_frac":
            value -= 1.0  # it arrives as traced over untraced cycle time
        values[name] = value
    return {n: (float(values[n]), _UNITS[n]) for n in _UNITS}, rolled
