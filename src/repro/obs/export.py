"""Structured exporters and their schemas.

Four JSON document shapes, each carrying an explicit ``schema`` tag
and validated strictly (unknown or missing keys fail — the CI
benchmark-smoke job depends on that).  :data:`SCHEMAS` is the one
definition of each shape: a table entry per tag, walked by one checker
(:func:`validate_document`) that reports every problem with its JSON
path in a single :class:`ValueError`.

* **metrics document** (:data:`METRICS_SCHEMA`) — a flat map of
  canonical metric keys (``name`` or ``name{label=value,...}``) to
  instrument dumps.  Metric names must appear in
  :data:`METRIC_CATALOG` (the documented catalog, mirrored in
  ``docs/observability.md``); the ``bench.`` prefix is reserved for
  benchmark-local metrics.

* **explain document** (:data:`EXPLAIN_SCHEMA`) — ``EXPLAIN (FORMAT
  JSON)`` for this engine: the chosen plan as a nested node tree with
  per-node estimated cardinality/cost, the optimizer verdict, and
  (for ``EXPLAIN ANALYZE``) executed totals plus the per-operator
  breakdown.  A calibrated ANALYZE adds the estimate→actual join
  (:mod:`repro.obs.calib`): per-node actuals, Q-error and misestimate
  ``source``, and a top-level ``calibration`` block with the plan's
  Q-errors, its dominant misestimate and the plan-choice audit.

* **bench document** (:data:`BENCH_SCHEMA`) — one reproduced paper
  table/figure with its rows *and* an embedded metrics document, so
  ``benchmarks/out/*.json`` tables are self-describing.

* **trace document** (:data:`TRACE_SCHEMA`) — served requests' span
  trees and server events (:func:`repro.obs.trace.trace_document`).
"""

from __future__ import annotations

from functools import partial
from typing import Any, Iterator, Mapping, NamedTuple, Sequence

from repro.obs.metrics import MetricsRegistry, MetricsSnapshot, base_name
from repro.obs.trace import (
    SPAN_KINDS,
    TRACE_SCHEMA,
    OperatorProfile,
    trace_document,
)
from repro.storage.iostats import IOStats

# NOTE: this module must not import repro.plans — repro.plans.profile
# imports repro.obs.trace, so a module-level dependency here would be
# a circular import.  Plan nodes are dispatched by class name.
# (TRACE_SCHEMA, SPAN_KINDS and trace_document live in repro.obs.trace
# for the same reason the other way: trace cannot import this module.)

__all__ = [
    "METRICS_SCHEMA",
    "EXPLAIN_SCHEMA",
    "BENCH_SCHEMA",
    "TRACE_SCHEMA",
    "SCHEMAS",
    "METRIC_CATALOG",
    "SPAN_KINDS",
    "SHED_REASONS",
    "iostats_dict",
    "plan_explain_dict",
    "explain_document",
    "metrics_document",
    "bench_document",
    "trace_document",
    "validate_document",
    "validate_metrics_document",
    "validate_explain_document",
    "validate_bench_document",
    "validate_trace_document",
]

METRICS_SCHEMA = "repro.metrics.v1"
EXPLAIN_SCHEMA = "repro.explain.v1"
BENCH_SCHEMA = "repro.bench.v1"

# The typed load-shedding vocabulary: every shed outcome — the
# ``serve.shed`` counter's ``reason`` label, an OverloadError's
# ``reason``, and a trace entry's ``reason`` field — draws from this
# set.  Defined here (not in repro.serve) so trace validation needs no
# serve import; repro.serve.admission imports it back.
SHED_REASONS = frozenset(
    {"rate", "queue_full", "evicted", "deadline", "draining"}
)

# The documented metric catalog: base instrument name -> kind.  Every
# name a registry may contain must be listed here (or carry the
# ``bench.`` prefix); validation fails on anything else so the catalog
# in docs/observability.md cannot silently drift from the code.
METRIC_CATALOG: dict[str, str] = {
    # storage substrate
    "bufferpool.reads": "counter",
    "bufferpool.writes": "counter",
    "bufferpool.hits": "counter",
    "faults.transient": "counter",
    "faults.permanent": "counter",
    # runtime, per evaluated operator (labels: operator=<node type>)
    "query.operator_runs": "counter",
    "query.page_reads": "counter",
    "query.page_writes": "counter",
    "query.buffer_hits": "counter",
    "query.tuples": "counter",
    "query.memo_hits": "counter",
    "query.retries": "counter",
    "query.retry_wait": "counter",
    "query.degradations": "counter",
    "query.operator_elapsed": "histogram",
    # guard accounting for the most recent guarded window
    "guard.pages_admitted": "gauge",
    "guard.retries_used": "gauge",
    "guard.budget_consumed": "gauge",
    # engine facade (labels on queries.total: status=ok|error)
    "optimizer.plans_considered": "counter",
    "queries.total": "counter",
    "batches.total": "counter",
    "batch.shared_subplans": "counter",
    # workload layer (labels on bp.messages: kind=product|update)
    "bp.messages": "counter",
    "bp.failures": "counter",
    "vecache.steps": "counter",
    "vecache.tables": "gauge",
    "junction.cliques": "counter",
    # durability: write-ahead log, checkpoints, and crash recovery
    # (labels on checkpoint.steps_skipped: unit=query)
    "wal.bytes": "counter",
    "checkpoint.taken": "counter",
    "checkpoint.steps_skipped": "counter",
    "recovery.checkpoints_discarded": "counter",
    # partition-parallel execution: per-shard work (worker-count
    # independent structural counters) and the modeled schedule
    # (worker-count dependent gauges; see docs/parallelism.md)
    "shard.tasks": "counter",
    "shard.repartitions": "counter",
    "shard.shuffle_pages": "counter",
    "shard.partial_aggregates": "counter",
    "scheduler.workers": "gauge",
    "scheduler.serial_elapsed": "gauge",
    "scheduler.makespan": "gauge",
    # kernel acceleration: group-index cache traffic and dense kernel
    # runs of the executed operators (deltas of process-wide counts,
    # published per node; see docs/internals.md)
    "kernel.groupindex_hits": "counter",
    "kernel.groupindex_misses": "counter",
    "kernel.dense_ops": "counter",
    # cost-model calibration (labels: calib.q_error operator=<op>,
    # calib.misestimates source=<estimator step>)
    "calib.runs": "counter",
    "calib.q_error": "histogram",
    "calib.misestimates": "counter",
    "calib.plans_replayed": "counter",
    # multi-tenant serving runtime (labels: tenant=<name> on all;
    # serve.shed additionally reason=rate|queue_full|evicted|deadline|
    # draining; serve.completed additionally status=ok|error).
    # serve.queue_wait records the runtime's clock units: simulated
    # cost units under the deterministic driver, seconds under the
    # asyncio server (see docs/serving.md).
    "serve.admitted": "counter",
    "serve.shed": "counter",
    "serve.completed": "counter",
    "serve.deadline_misses": "counter",
    "serve.queue_depth": "gauge",
    "serve.queue_wait": "histogram",
    "serve.plan_cache.hits": "counter",
    "serve.plan_cache.misses": "counter",
    "serve.reloads": "counter",
    "serve.snapshots_active": "gauge",
    "serve.snapshots_retired": "counter",
    "serve.drains": "counter",
    # per-tenant SLO telemetry (all labelled tenant=; sliding-window
    # nearest-rank quantiles and the SRE burn-rate ratio — see
    # repro.obs.slo).  Latency/queue-wait gauges are in the serving
    # clock's units: simulated cost under the deterministic driver.
    "serve.slo_latency_p50": "gauge",
    "serve.slo_latency_p95": "gauge",
    "serve.slo_latency_p99": "gauge",
    "serve.slo_queue_wait_p50": "gauge",
    "serve.slo_queue_wait_p95": "gauge",
    "serve.slo_queue_wait_p99": "gauge",
    "serve.slo_attainment": "gauge",
    "serve.slo_burn_rate": "gauge",
}


class PlanOp(NamedTuple):
    op: str  # the node's ``op`` in the explain plan tree
    fields: tuple[str, ...]  # what an explain node adds (_NODE_FIELDS)
    inputs: int  # child plans
    source: str  # the estimator step a calibration blames it on


# Plan node class name -> its document vocabulary: the one op table
# behind the explain plan tree, the calibration rows and the schema.
PLAN_OPS: dict[str, PlanOp] = {
    "Scan": PlanOp("scan", ("table",), 0, "base_table_stats"),
    "IndexScan": PlanOp(
        "index_scan", ("table", "predicate"), 0, "base_table_stats"
    ),
    "Select": PlanOp("select", ("predicate",), 1, "selection"),
    "ProductJoin": PlanOp("product_join", ("method",), 2, "join_selectivity"),
    "GroupBy": PlanOp(
        "group_by", ("method", "group_names"), 1, "group_by_collapse"
    ),
    "SemiJoin": PlanOp("semijoin", ("semijoin_kind",), 2, "semijoin"),
}

_NODE_FIELDS = {
    "table": lambda node: node.table,
    "predicate": lambda node: dict(node.predicate),
    "method": lambda node: node.method,
    "group_names": lambda node: list(node.group_names),
    "semijoin_kind": lambda node: node.kind,
}


def iostats_dict(stats: IOStats) -> dict:
    """Flat JSON view of one :class:`IOStats` clock."""
    return {
        "page_reads": stats.page_reads,
        "page_writes": stats.page_writes,
        "buffer_hits": stats.buffer_hits,
        "tuples": stats.tuples_processed,
        "operators_run": stats.operators_run,
        "memo_hits": stats.memo_hits,
        "retries": stats.retries,
        "retry_wait": stats.retry_wait,
        "elapsed": stats.elapsed(),
    }


# ----------------------------------------------------------------------
# EXPLAIN (FORMAT JSON)
# ----------------------------------------------------------------------
def plan_explain_dict(plan, calibration=None) -> dict:
    """Nested plan-node document with per-node estimates when annotated.

    With ``calibration`` (a :class:`~repro.obs.calib.PlanCalibration`
    from the same plan's execution), every executed node additionally
    carries an ``actual`` block, its ``q_error`` and the misestimate
    ``source`` it is blamed on.

    Iterative post-order build: deep plans (long Select/GroupBy
    chains) must not hit the recursion limit.
    """
    done: dict[int, dict] = {}
    stack: list = [plan]
    while stack:
        node = stack[-1]
        pending = [c for c in node.children() if id(c) not in done]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        if id(node) in done:
            continue
        done[id(node)] = _node_dict(
            node, [done[id(c)] for c in node.children()], calibration
        )
    return done[id(plan)]


def _node_dict(node, inputs: list[dict], calibration=None) -> dict:
    spec = PLAN_OPS.get(type(node).__name__)
    if spec is None:
        raise ValueError(f"unknown plan node {type(node).__name__}")
    out: dict = {"op": spec.op, "label": node.label()}
    for name in spec.fields:
        out[name] = _NODE_FIELDS[name](node)
    if node.stats is not None:
        estimated: dict = {"cardinality": node.stats.cardinality}
        if node.op_cost is not None:
            estimated["op_cost"] = node.op_cost
        if node.total_cost is not None:
            estimated["cost"] = node.total_cost
        out["estimated"] = estimated
    if calibration is not None:
        row = calibration.lookup(node.structural_key())
        if row is not None and row.actual_rows is not None:
            out["actual"] = {
                "rows": row.actual_rows,
                "elapsed": row.actual_elapsed,
            }
            if row.q_error is not None:
                out["q_error"] = row.q_error
                out["source"] = row.source
    if inputs:
        out["inputs"] = inputs
    return out


def explain_document(
    optimization,
    query=None,
    execution: IOStats | None = None,
    operators: Sequence[OperatorProfile] | None = None,
    calibration=None,
) -> dict:
    """The full EXPLAIN (FORMAT JSON) document for one planned query.

    ``optimization`` is an
    :class:`~repro.optimizer.base.OptimizationResult`; pass
    ``execution`` (and optionally the per-operator ``operators``
    breakdown from a :class:`~repro.obs.trace.QueryTracer`) to produce
    the ANALYZE form.  ``calibration`` adds per-node ``actual`` blocks,
    Q-errors and sources to the plan tree (see
    :func:`plan_explain_dict`) and the top-level ``calibration`` block.
    """
    doc: dict = {
        "schema": EXPLAIN_SCHEMA,
        "query": None if query is None else str(query),
        "algorithm": optimization.algorithm,
        "estimated_cost": optimization.cost,
        "plans_considered": optimization.plans_considered,
        "planning_seconds": optimization.planning_seconds,
        "plan": plan_explain_dict(optimization.plan, calibration),
        "execution": None,
    }
    if execution is not None or operators is not None:
        doc["execution"] = {
            "totals": None if execution is None else iostats_dict(execution),
            "operators": [
                op.to_dict() for op in (operators or [])
            ],
        }
    if calibration is not None:
        dominant, audit = calibration.dominant, calibration.audit
        doc["calibration"] = {
            "stats_epoch": calibration.stats_epoch,
            "plan_q_error": calibration.plan_q_error,
            "mean_q_error": calibration.mean_q_error,
            "dominant": None if dominant is None else {
                "label": dominant.label,
                "q_error": dominant.q_error,
                "source": dominant.source,
            },
            "audit": None if audit is None else audit.to_dict(),
        }
    return doc


# ----------------------------------------------------------------------
# Metrics / bench documents
# ----------------------------------------------------------------------
def metrics_document(
    metrics: MetricsRegistry | MetricsSnapshot,
    name: str | None = None,
) -> dict:
    """Flat metrics document from a registry or snapshot."""
    snapshot = (
        metrics.snapshot() if isinstance(metrics, MetricsRegistry) else metrics
    )
    return {
        "schema": METRICS_SCHEMA,
        "name": name,
        "metrics": snapshot.to_dict(),
    }


def bench_document(
    name: str,
    title: str,
    columns: Sequence[str],
    rows: Sequence[Sequence],
    metrics: MetricsRegistry | MetricsSnapshot | None = None,
) -> dict:
    """Self-describing benchmark table with embedded metrics.

    A pure function of its arguments: no commit, host or time stamp,
    so a suite's document can be committed as a byte-exact golden.
    """
    return {
        "schema": BENCH_SCHEMA,
        "name": name,
        "title": title,
        "columns": list(columns),
        "rows": [list(r) for r in rows],
        "metrics": metrics_document(
            metrics if metrics is not None else MetricsSnapshot({}),
            name=name,
        ),
    }


# ----------------------------------------------------------------------
# The schema table
# ----------------------------------------------------------------------
# A shape is ANY (any value), a frozenset (one of its values), a string
# (the shape of that name in SCHEMAS or _PARTS), or one of the tuples
# below.  A rule comparing fields is a named predicate an Obj lists: it
# yields ``(keys below the object, message)`` per violation, and runs
# only once the object and everything in it match their shapes — so
# it may index and compare without checking types.
ANY = None
CLOSED = object()  # Obj.rest: no key besides required and optional


class Obj(NamedTuple):  # an object; ``rest`` shapes any other key
    required: Mapping = {}
    optional: Mapping = {}
    rest: Any = CLOSED
    rules: tuple = ()


class ListOf(NamedTuple):
    item: Any = ANY
    length: int | None = None


class Number(NamedTuple):
    minimum: float | None = None


class Nullable(NamedTuple):
    shape: Any


class Tagged(NamedTuple):  # an object shaped by the variant ``key`` names
    key: str
    variants: Mapping


def _keys(names: str) -> dict:
    """``_keys("a b")`` is ``{"a": ANY, "b": ANY}``."""
    return dict.fromkeys(names.split())


Problems = Iterator[tuple[tuple, str]]


def _member(value, values) -> bool:
    """``value in values``; an unhashable value is simply not in it."""
    try:
        return value in values
    except TypeError:
        return False


def _counts_match_bounds(entry) -> Problems:
    counts, bounds = entry["counts"], entry["bounds"]
    if len(counts) != len(bounds) + 1:
        yield ("counts",), f"{len(counts)} counts for {len(bounds)} bounds"


def _in_the_catalog(metrics) -> Problems:
    for key, entry in metrics.items():
        name = base_name(str(key))
        kind = METRIC_CATALOG.get(name)
        if kind is None and not name.startswith("bench."):
            yield (key,), "name not in the catalog"
        elif kind is not None and entry["kind"] != kind:
            yield (key,), f"kind {entry['kind']!r}, catalog says {kind!r}"


def _rows_match_columns(doc) -> Problems:
    """A bench table's rows fit its columns."""
    width = len(doc["columns"])
    for i, row in enumerate(doc["rows"]):
        if len(row) != width:
            yield ("rows", i), f"{len(row)} cells for {width} columns"


def _q_error_iff_actual(node) -> Problems:
    if len({key in node for key in ("actual", "q_error", "source")}) > 1:
        yield (), "actual, q_error and source must be all present or absent"


def _shed_has_typed_reason(entry) -> Problems:
    status, reason = entry["status"], entry["reason"]
    if status == "shed" and not _member(reason, SHED_REASONS):
        yield ("reason",), f"shed without a typed reason (got {reason!r})"
    elif status != "shed" and reason is not None:
        yield ("reason",), f"reason {reason!r} on non-shed status {status!r}"


def _completed_has_lifecycle(entry) -> Problems:
    """A completed request's spans link admission, queue and dispatch."""
    root = entry["root"]
    kinds = [child["kind"] for child in root["children"]]
    missing = [k for k in ("admission", "queue", "dispatch") if k not in kinds]
    if entry["status"] == "ok" and root["kind"] == "request" and missing:
        yield ("root",), f"completed request missing lifecycle spans {missing}"


def _span_closed_in_order(span) -> Problems:
    if span["end"] is None:
        yield (), "span left open (end is None)"
    elif span["end"] < span["start"]:
        yield (), f"end {span['end']!r} < start {span['start']!r}"


def _plan_node(spec: PlanOp) -> Obj:
    required = dict.fromkeys(("op", "label", *spec.fields))
    if spec.inputs:
        required["inputs"] = ListOf("plan node", length=spec.inputs)
    return Obj(required, {
        "estimated": Nullable(Obj(_keys("cardinality"), _keys("cost op_cost"))),
        "actual": Nullable(Obj(_keys("rows"), _keys("elapsed"))),
        "q_error": _AT_LEAST_ONE,
        "source": _SOURCES,
    }, rules=(_q_error_iff_actual,))


_EVENT = Obj(_keys("name at"), rest=ANY)
_AT_LEAST_ONE = Number(minimum=1.0)
# Where a calibration blames a node's Q-error (repro.obs.calib).
_SOURCES = frozenset({
    "exact", "inherited", "unknown",
    *(spec.source for spec in PLAN_OPS.values()),
})

# The recursive parts: plan nodes nest in ``inputs``, spans in ``children``.
_PARTS: dict[str, Any] = {
    "plan node": Tagged(
        "op", {spec.op: _plan_node(spec) for spec in PLAN_OPS.values()}
    ),
    "span": Obj(
        {
            **_keys("name cost attributes"), "kind": SPAN_KINDS,
            "start": Number(), "end": Nullable(Number()),
            "events": ListOf(_EVENT), "children": ListOf("span"),
        },
        rules=(_span_closed_in_order,),
    ),
}

# The one definition of every document shape, keyed by schema tag.
SCHEMAS: dict[str, Obj] = {
    METRICS_SCHEMA: Obj({
        "schema": frozenset({METRICS_SCHEMA}),
        "name": ANY,
        "metrics": Obj(rest=Tagged("kind", {
            "counter": Obj(_keys("kind value")),
            "gauge": Obj(_keys("kind value")),
            "histogram": Obj(
                {**_keys("kind count sum"), "bounds": ListOf(),
                 "counts": ListOf()},
                rules=(_counts_match_bounds,),
            ),
        }), rules=(_in_the_catalog,)),
    }),
    EXPLAIN_SCHEMA: Obj({
        "schema": frozenset({EXPLAIN_SCHEMA}),
        **_keys("query algorithm estimated_cost plans_considered planning_seconds"),
        "plan": "plan node",
        "execution": Nullable(Obj({
            "totals": Nullable(Obj(dict.fromkeys(iostats_dict(IOStats())))),
            "operators": ListOf(Obj(dict.fromkeys(
                OperatorProfile("", 0, 0, 0, 0, 0.0).to_dict()
            ))),
        })),
    }, {
        "calibration": Obj({
            "stats_epoch": ANY,
            "plan_q_error": _AT_LEAST_ONE,
            "mean_q_error": _AT_LEAST_ONE,
            "dominant": Nullable(Obj(_keys("label q_error source"))),
            "audit": Nullable(Obj({
                "candidates": ListOf(Obj(
                    _keys("algorithm estimated_cost actual_cost chosen")
                )),
                "plan_regret": _AT_LEAST_ONE,
            })),
        }),
    }),
    BENCH_SCHEMA: Obj(
        {
            "schema": frozenset({BENCH_SCHEMA}), **_keys("name title"),
            "columns": ListOf(), "rows": ListOf(ListOf()),
            "metrics": METRICS_SCHEMA,
        },
        rules=(_rows_match_columns,),
    ),
    TRACE_SCHEMA: Obj({
        "schema": frozenset({TRACE_SCHEMA}),
        "name": ANY,
        "clock": frozenset({"virtual", "wall"}),
        "requests": ListOf(Obj(
            {
                **_keys("request_id tenant stats_epoch reason"),
                "status": frozenset({"ok", "shed", "error"}),
                "root": "span",
            },
            rules=(_shed_has_typed_reason, _completed_has_lifecycle),
        )),
        "events": ListOf(_EVENT),
    }),
}


# ----------------------------------------------------------------------
# The checker
# ----------------------------------------------------------------------
def _render(path) -> str:
    """A ``(parent, key)`` chain as a JSON path: ``$.plan.inputs[0]``."""
    out = ""
    while path is not None:
        path, key = path
        out = (
            f"[{key}]" if isinstance(key, int)
            else f".{key}" if str(key).isidentifier() else f"[{key!r}]"
        ) + out
    return "$" + out


class _Rules(NamedTuple):  # an Obj's rules, stacked beneath its fields
    rules: tuple
    mark: int  # problems found before the object was checked


def _problems(shape, doc) -> list[str]:
    """Every way ``doc`` departs from ``shape``, each with its JSON path
    (iteratively: plan and span trees may nest past the recursion limit)."""
    problems: list[str] = []

    def report(path, message: str, keys: tuple = ()) -> None:
        for key in keys:
            path = (path, key)
        problems.append(f"{_render(path)}: {message}")

    stack: list = [(shape, doc, None)]
    while stack:
        shape, value, path = stack.pop()
        if isinstance(shape, str):
            shape = SCHEMAS.get(shape) or _PARTS[shape]
        if shape is ANY:
            continue
        if isinstance(shape, _Rules):
            if len(problems) == shape.mark:  # all well formed below here
                for rule in shape.rules:
                    for keys, message in rule(value):
                        report(path, message, keys)
        elif isinstance(shape, Nullable):
            if value is not None:
                stack.append((shape.shape, value, path))
        elif isinstance(shape, frozenset):
            if not _member(value, shape):  # a field: path is (parent, key)
                report(path, f"unknown {path[1]} {value!r}, not in {sorted(shape)}")
        elif isinstance(shape, Number):
            least = shape.minimum
            if not isinstance(value, (int, float)) or (
                least is not None and value < least
            ):
                at_least = "" if least is None else f" >= {least}"
                report(path, f"expected a number{at_least}, got {value!r}")
        elif isinstance(shape, ListOf):
            if not isinstance(value, list):
                report(path, f"expected a list, got {type(value).__name__}")
                continue
            if shape.length is not None and len(value) != shape.length:
                report(path, f"expected {shape.length} items, got {len(value)}")
            for i in reversed(range(len(value))):
                stack.append((shape.item, value[i], (path, i)))
        elif not isinstance(value, Mapping):
            report(path, f"expected an object, got {type(value).__name__}")
        elif isinstance(shape, Tagged):
            tag = value.get(shape.key)
            if _member(tag, shape.variants):
                stack.append((shape.variants[tag], value, path))
            else:
                report(path, f"unknown {shape.key} {tag!r}, not in "
                       f"{sorted(shape.variants)}", (shape.key,))
        else:
            mark, known = len(problems), {**shape.optional, **shape.required}
            missing = sorted(k for k in shape.required if k not in value)
            unknown = [k for k in value if k not in known and shape.rest is CLOSED]
            if missing:
                report(path, f"missing keys {missing}")
            if unknown:
                report(path, f"unknown keys {sorted(unknown, key=str)}")
            if shape.rules:
                stack.append((_Rules(shape.rules, mark), value, path))
            stack.extend(
                (known.get(key, shape.rest), value[key], (path, key))
                for key in reversed(list(value)) if key not in unknown
            )
    return problems


def _check(schema: str, doc) -> str:
    problems = _problems(SCHEMAS[schema], doc)
    if problems:
        raise ValueError(f"{schema}: " + "; ".join(problems))
    return schema


def validate_document(doc) -> str:
    """Check ``doc`` against the :data:`SCHEMAS` entry its ``schema`` tag
    names; returns the tag.  Every problem is reported, with its JSON
    path, in one :class:`ValueError`; whatever ``doc`` holds, no other
    exception escapes."""
    if not isinstance(doc, Mapping) or "schema" not in doc:
        raise ValueError("document has no 'schema' tag")
    if not _member(doc["schema"], SCHEMAS):
        raise ValueError(f"unknown schema {doc['schema']!r}")
    return _check(doc["schema"], doc)


# The same check against one entry, whatever tag ``doc`` carries.
validate_metrics_document = partial(_check, METRICS_SCHEMA)
validate_explain_document = partial(_check, EXPLAIN_SCHEMA)
validate_bench_document = partial(_check, BENCH_SCHEMA)
validate_trace_document = partial(_check, TRACE_SCHEMA)
