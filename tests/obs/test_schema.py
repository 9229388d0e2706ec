"""The observability document schemas: rule coverage and robustness.

Every case starts from a real document the engine produces — a metrics
snapshot, an ``EXPLAIN ANALYZE`` plan, a bench table, a serving trace
and a benchmark history — and breaks exactly one rule of its schema.
The ``calibration`` cases break the calibrated ANALYZE plan's
estimate→actual join: its per-node ``actual`` / ``q_error`` /
``source`` and its ``calibration`` block with the plan-choice audit.  The checker must reject it
with :class:`ValueError` and name where the problem is (its JSON path).
The property tests then throw arbitrary JSON, and arbitrary one-field
mutations of the same documents, at every validator: a document either
passes or raises ``ValueError``, never anything else.
"""

from __future__ import annotations

import copy
import json
import warnings
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cli import _build_database
from repro.datagen import supply_chain
from repro.obs import (
    BENCH_SCHEMA,
    EXPLAIN_SCHEMA,
    METRICS_SCHEMA,
    TRACE_SCHEMA,
    ServeTracer,
    bench_document,
    validate_bench_document,
    validate_explain_document,
    validate_metrics_document,
    validate_trace_document,
)
from repro.obs import history
from repro.obs.history import HISTORY_SCHEMA, ingest_document, load_history
from repro.obs.validate import main as validate_main
from repro.obs.validate import validate_document
from repro.serve import ServeRequest, ServingRuntime, TenantSpec, VirtualClock

REPO = Path(__file__).parents[2]
COMMITTED_HISTORIES = sorted(REPO.glob("BENCH_*.json"))

VALIDATORS = {
    "metrics": validate_metrics_document,
    "explain": validate_explain_document,
    "bench": validate_bench_document,
    "calibration": validate_explain_document,
    "history": history.validate_history_document,
    "trace": validate_trace_document,
}
TAGS = {
    "metrics": METRICS_SCHEMA,
    "explain": EXPLAIN_SCHEMA,
    "bench": BENCH_SCHEMA,
    "calibration": EXPLAIN_SCHEMA,
    "history": HISTORY_SCHEMA,
    "trace": TRACE_SCHEMA,
}
HISTOGRAM = "query.operator_elapsed"
COUNTER = "queries.total{status=ok}"


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    """One real document of each shape, produced by the engine."""
    clock = VirtualClock()
    db = _build_database(0.004, 7, clock=clock)
    tracer = ServeTracer()
    runtime = ServingRuntime(
        db,
        [TenantSpec("gold", queue_depth=8), TenantSpec("none", queue_depth=0)],
        clock=clock,
        tracer=tracer,
    )
    query = db.bind("select wid, sum(inv) from invest group by wid")
    runtime.run_workload(
        [
            ServeRequest(tenant=("gold", "none")[i % 2], query=query,
                         arrival=1e4 * i, seq=i)
            for i in range(4)
        ],
        reloads=[(
            1.5e4,
            supply_chain(scale=0.004, seed=1043).catalog.relation("location"),
            "location",
        )],
    )
    report = db.explain_analyze(
        "select cid, sum(inv) from invest where wid = 1 group by cid",
        audit_plans=True,
    )
    db.metrics.counter("bench.rows").inc(2)
    bench = bench_document(
        "schema_demo", "Schema demo", ["query", "page_reads"],
        [["q1", 10], ["q2", 12]], metrics=db.metrics,
        git_sha="0" * 40, suite="schema_demo",
    )
    history_dir = tmp_path_factory.mktemp("history")
    ingest_document(bench, history_dir=history_dir, run_id="base")
    path = ingest_document(bench, history_dir=history_dir, run_id="next")
    docs = {
        "metrics": db.metrics_document(name="schema-demo"),
        "explain": report.to_explain_dict(),
        "bench": bench,
        "calibration": report.to_explain_dict(),
        "history": load_history(path),
        "trace": tracer.document(name="schema-demo"),
    }
    # The cases below rely on these features of the real documents.
    assert docs["metrics"]["metrics"][HISTOGRAM]["kind"] == "histogram"
    assert docs["metrics"]["metrics"][COUNTER]["kind"] == "counter"
    assert docs["explain"]["plan"]["op"] == "group_by"
    assert docs["explain"]["execution"]["operators"]
    assert docs["calibration"]["calibration"]["dominant"] is not None
    assert docs["calibration"]["calibration"]["audit"] is not None
    assert "source" in docs["calibration"]["plan"]
    assert len(docs["history"]["runs"]) == 2
    statuses = [r["status"] for r in docs["trace"]["requests"]]
    assert statuses[:2] == ["ok", "shed"]
    assert docs["trace"]["events"]
    return docs


# ----------------------------------------------------------------------
# Mutations: each returns the broken document
# ----------------------------------------------------------------------
def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def put(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        _at(doc, path[:-1])[path[-1]] = value
        return doc

    return mutate


def drop(*path):
    def mutate(doc):
        del _at(doc, path[:-1])[path[-1]]
        return doc

    return mutate


def append(*path_and_value):
    *path, value = path_and_value

    def mutate(doc):
        _at(doc, path).append(value)
        return doc

    return mutate


def _leaf_path(doc):
    path = ("plan",)
    while "inputs" in _at(doc, path):
        path += ("inputs", 0)
    return path


def _leaf_label(doc):
    return "".join(
        f"[{k}]" if isinstance(k, int) else f".{k}" for k in _leaf_path(doc)
    )[1:]


def _leaf_gains_inputs(doc):
    _at(doc, _leaf_path(doc))["inputs"] = []
    return doc


def _second_input(doc):
    doc["plan"]["inputs"].append(copy.deepcopy(doc["plan"]["inputs"][0]))
    return doc


def _drop_admission(doc):
    root = doc["requests"][0]["root"]
    root["children"] = [c for c in root["children"] if c["kind"] != "admission"]
    return doc


def _end_before_start(doc):
    span = doc["requests"][0]["root"]["children"][2]
    span["end"] = span["start"] - 1.0
    return doc


def _break_row_width(doc):
    doc["rows"][0].append(1)
    return doc


def _break_history_row_width(doc):
    doc["runs"][1]["rows"][0].append(1)
    return doc


def _short_counts(doc):
    doc["metrics"][HISTOGRAM]["counts"].pop()
    return doc


def _q_without_actual(doc):
    del doc["plan"]["actual"]
    return doc


# (document, case id, mutation, fragments every message must contain).
# Fragments name the offending location in the notation both the
# message's path and a reader share: ``plan.inputs[0]``,
# ``requests[0].root.children[2]``, ``'<metric key>'``.
RULES = [
    # repro.metrics.v1
    ("metrics", "unknown-top-key", put("extra", 1), ["unknown keys", "extra"]),
    ("metrics", "missing-top-key", drop("name"), ["missing keys", "name"]),
    ("metrics", "wrong-schema", put("schema", EXPLAIN_SCHEMA), ["schema"]),
    ("metrics", "map-not-object", put("metrics", []), ["metrics"]),
    ("metrics", "name-not-in-catalog",
     put("metrics", "made.up", {"kind": "counter", "value": 1}),
     ["'made.up'", "not in the catalog"]),
    ("metrics", "entry-not-object", put("metrics", COUNTER, 5),
     [f"'{COUNTER}'"]),
    ("metrics", "entry-without-kind", drop("metrics", COUNTER, "kind"),
     [f"'{COUNTER}'"]),
    ("metrics", "kind-against-catalog",
     put("metrics", COUNTER, "kind", "gauge"),
     [f"'{COUNTER}'", "catalog says"]),
    ("metrics", "unknown-kind", put("metrics", "bench.x",
                                    {"kind": "meter", "value": 1}),
     ["'bench.x'", "unknown kind"]),
    ("metrics", "entry-missing-key", drop("metrics", COUNTER, "value"),
     [f"'{COUNTER}'", "missing keys"]),
    ("metrics", "entry-unknown-key", put("metrics", COUNTER, "unit", "s"),
     [f"'{COUNTER}'", "unknown keys"]),
    ("metrics", "histogram-missing-key", drop("metrics", HISTOGRAM, "sum"),
     [f"'{HISTOGRAM}'", "missing keys"]),
    ("metrics", "counts-not-bounds-plus-one", _short_counts,
     [f"'{HISTOGRAM}'", "counts"]),
    # repro.explain.v1
    ("explain", "unknown-top-key", put("surprise", 1), ["unknown keys"]),
    ("explain", "missing-top-key", drop("algorithm"), ["missing keys"]),
    ("explain", "wrong-schema", put("schema", METRICS_SCHEMA), ["schema"]),
    ("explain", "plan-not-object", put("plan", 3), ["plan"]),
    ("explain", "unknown-op", put("plan", "op", "teleport"),
     ["plan", "unknown op"]),
    ("explain", "node-missing-label", drop("plan", "label"),
     ["plan", "missing keys"]),
    ("explain", "node-unknown-key", put("plan", "colour", "red"),
     ["plan", "unknown keys"]),
    ("explain", "op-attribute-missing", drop("plan", "group_names"),
     ["plan", "missing keys"]),
    ("explain", "estimated-not-object", put("plan", "estimated", 5),
     ["plan.estimated"]),
    ("explain", "estimated-missing-key",
     drop("plan", "estimated", "cardinality"),
     ["plan.estimated", "missing keys"]),
    ("explain", "estimated-unknown-key",
     put("plan", "estimated", "rows", 1),
     ["plan.estimated", "unknown keys"]),
    ("explain", "actual-missing-key", drop("plan", "actual", "rows"),
     ["plan.actual", "missing keys"]),
    ("explain", "actual-unknown-key", put("plan", "actual", "x", 1),
     ["plan.actual", "unknown keys"]),
    ("explain", "too-many-inputs", _second_input, ["plan", "inputs"]),
    ("explain", "child-unknown-op", put("plan", "inputs", 0, "op", "x"),
     ["plan.inputs[0]", "unknown op"]),
    ("explain", "leaf-with-inputs", _leaf_gains_inputs, [_leaf_label]),
    ("explain", "execution-not-object", put("execution", []),
     ["execution"]),
    ("explain", "execution-missing-key", drop("execution", "operators"),
     ["execution", "missing keys"]),
    ("explain", "totals-unknown-key",
     put("execution", "totals", "x", 1),
     ["execution.totals", "unknown keys"]),
    ("explain", "totals-missing-key",
     drop("execution", "totals", "page_reads"),
     ["execution.totals", "missing keys"]),
    ("explain", "operators-not-list", put("execution", "operators", {}),
     ["execution.operators"]),
    ("explain", "operator-unknown-key",
     put("execution", "operators", 0, "x", 1),
     ["execution.operators[0]", "unknown keys"]),
    ("explain", "operator-missing-key",
     drop("execution", "operators", 0, "label"),
     ["execution.operators[0]", "missing keys"]),
    # repro.bench.v1
    ("bench", "unknown-top-key", put("extra", 1), ["unknown keys"]),
    ("bench", "missing-top-key", drop("title"), ["missing keys"]),
    ("bench", "wrong-schema", put("schema", METRICS_SCHEMA), ["schema"]),
    ("bench", "columns-not-list", put("columns", "query"), ["columns"]),
    ("bench", "rows-not-list", put("rows", {}), ["rows"]),
    ("bench", "row-not-list", put("rows", 0, "ab"), ["rows"]),
    ("bench", "row-width", _break_row_width, ["rows"]),
    ("bench", "embedded-metric-not-in-catalog",
     put("metrics", "metrics", "made.up", {"kind": "counter", "value": 1}),
     ["'made.up'", "not in the catalog"]),
    ("bench", "embedded-metrics-schema", put("metrics", "schema", "x"),
     ["metrics", "schema"]),
    # repro.explain.v1, calibrated: the estimate→actual join
    ("calibration", "unknown-top-key", put("calibration", "extra", 1),
     ["calibration", "unknown keys"]),
    ("calibration", "missing-top-key", drop("calibration", "plan_q_error"),
     ["missing", "plan_q_error"]),
    ("calibration", "wrong-schema", put("schema", METRICS_SCHEMA),
     ["schema"]),
    ("calibration", "nodes-empty", put("plan", {}), ["plan", "unknown op"]),
    ("calibration", "nodes-not-list", put("plan", "inputs", {}),
     ["plan.inputs", "expected a list"]),
    ("calibration", "node-missing-key", drop("plan", "source"),
     ["plan", "source"]),
    ("calibration", "node-unknown-key", put("plan", "inputs", 0, "x", 1),
     ["plan.inputs[0]", "unknown keys"]),
    ("calibration", "node-unknown-op",
     put("plan", "inputs", 0, "op", "teleport"),
     ["plan.inputs[0]", "unknown op"]),
    ("calibration", "node-q-error-below-one",
     put("plan", "q_error", 0.5), ["plan.q_error"]),
    ("calibration", "node-q-error-not-number",
     put("plan", "q_error", "big"), ["plan.q_error"]),
    ("calibration", "node-unknown-source",
     put("plan", "source", "gremlins"), ["plan.source"]),
    ("calibration", "q-error-without-actual", _q_without_actual,
     ["plan", "q_error"]),
    ("calibration", "plan-q-error-below-one",
     put("calibration", "plan_q_error", 0.5), ["plan_q_error"]),
    ("calibration", "mean-q-error-missing-value",
     put("calibration", "mean_q_error", None), ["mean_q_error"]),
    ("calibration", "dominant-not-object",
     put("calibration", "dominant", 3), ["calibration.dominant"]),
    ("calibration", "dominant-unknown-key",
     put("calibration", "dominant", "x", 1),
     ["calibration.dominant", "unknown keys"]),
    ("calibration", "dominant-missing-key",
     drop("calibration", "dominant", "source"),
     ["calibration.dominant", "missing keys"]),
    ("calibration", "audit-not-object", put("calibration", "audit", []),
     ["calibration.audit"]),
    ("calibration", "audit-missing-key",
     drop("calibration", "audit", "plan_regret"),
     ["calibration.audit", "missing keys"]),
    ("calibration", "candidates-not-list",
     put("calibration", "audit", "candidates", "all"),
     ["audit.candidates"]),
    ("calibration", "candidate-missing-key",
     drop("calibration", "audit", "candidates", 0, "chosen"),
     ["audit.candidates[0]", "missing keys"]),
    ("calibration", "candidate-unknown-key",
     put("calibration", "audit", "candidates", 0, "x", 1),
     ["audit.candidates[0]", "unknown keys"]),
    ("calibration", "plan-regret-below-one",
     put("calibration", "audit", "plan_regret", 0.9), ["plan_regret"]),
    # repro.bench_history.v1
    ("history", "unknown-top-key", put("extra", True), ["unknown keys"]),
    ("history", "missing-top-key", drop("title"), ["missing keys"]),
    ("history", "wrong-schema", put("schema", BENCH_SCHEMA), ["schema"]),
    ("history", "columns-not-list", put("columns", {}), ["columns"]),
    ("history", "runs-empty", put("runs", []), ["runs"]),
    ("history", "runs-not-list", put("runs", {}), ["runs"]),
    ("history", "run-not-object", put("runs", 1, 3), ["runs[1]"]),
    ("history", "run-unknown-key", put("runs", 1, "x", 1), ["runs[1]"]),
    ("history", "run-missing-key", drop("runs", 1, "git_sha"),
     ["runs[1]"]),
    ("history", "run-rows-not-list", put("runs", 1, "rows", {}),
     ["runs[1]", "rows"]),
    ("history", "run-row-width", _break_history_row_width,
     ["runs[1]", "rows"]),
    ("history", "delta-on-baseline", put("runs", 0, "metrics_delta", {}),
     ["runs[0]", "baseline"]),
    # repro.trace.v1
    ("trace", "unknown-top-key", put("extra", 1), ["unknown keys"]),
    ("trace", "missing-top-key", drop("clock"), ["missing keys"]),
    ("trace", "wrong-schema", put("schema", METRICS_SCHEMA), ["schema"]),
    ("trace", "unknown-clock", put("clock", "sundial"), ["clock"]),
    ("trace", "events-not-list", put("events", {}), ["events"]),
    ("trace", "event-without-at", drop("events", 0, "at"), ["events[0]"]),
    ("trace", "requests-not-list", put("requests", {}), ["requests"]),
    ("trace", "request-missing-key", drop("requests", 0, "tenant"),
     ["requests[0]", "missing keys"]),
    ("trace", "request-unknown-key", put("requests", 0, "x", 1),
     ["requests[0]", "unknown keys"]),
    ("trace", "unknown-status", put("requests", 0, "status", "pending"),
     ["requests[0]", "status"]),
    ("trace", "shed-without-reason", put("requests", 1, "reason", None),
     ["requests[1]", "reason"]),
    ("trace", "shed-untyped-reason", put("requests", 1, "reason", "because"),
     ["requests[1]", "reason"]),
    ("trace", "reason-on-ok", put("requests", 0, "reason", "rate"),
     ["requests[0]", "reason"]),
    ("trace", "root-not-object", put("requests", 0, "root", None),
     ["requests[0].root"]),
    ("trace", "span-missing-key", drop("requests", 0, "root", "cost"),
     ["requests[0].root", "missing keys"]),
    ("trace", "span-unknown-key", put("requests", 0, "root", "x", 1),
     ["requests[0].root", "unknown keys"]),
    ("trace", "unknown-span-kind",
     put("requests", 0, "root", "children", 2, "kind", "sprint"),
     ["requests[0].root.children[2]", "kind"]),
    ("trace", "span-left-open", put("requests", 0, "root", "end", None),
     ["requests[0].root", "open"]),
    ("trace", "span-ends-before-start", _end_before_start,
     ["requests[0].root.children[2]", "start"]),
    ("trace", "span-events-not-list",
     put("requests", 0, "root", "events", {}),
     ["requests[0].root", "events"]),
    ("trace", "span-event-without-name",
     drop("requests", 0, "root", "children", 0, "events", 0, "name"),
     ["requests[0].root.children[0].events[0]"]),
    ("trace", "span-children-not-list",
     put("requests", 0, "root", "children", 0, "children", {}),
     ["requests[0].root.children[0]", "children"]),
    ("trace", "nested-span-unknown-kind",
     put("requests", 0, "root", "children", 2, "children", 0, "kind", "x"),
     ["requests[0].root.children[2].children[0]", "kind"]),
    ("trace", "completed-without-lifecycle", _drop_admission,
     ["requests[0]", "admission"]),
]


@pytest.mark.parametrize(
    "kind,mutate,fragments",
    [pytest.param(k, m, f, id=f"{k}-{name}") for k, name, m, f in RULES],
)
def test_each_rule_rejects_with_its_path(documents, kind, mutate, fragments):
    original = documents[kind]
    broken = mutate(copy.deepcopy(original))
    with pytest.raises(ValueError) as info:
        VALIDATORS[kind](broken)
    message = str(info.value)
    for fragment in fragments:
        expected = fragment(original) if callable(fragment) else fragment
        assert expected in message


@pytest.mark.parametrize("kind", sorted(VALIDATORS))
def test_real_documents_pass(documents, kind):
    VALIDATORS[kind](documents[kind])
    assert validate_document(documents[kind]) == TAGS[kind]


@pytest.mark.parametrize(
    "path", COMMITTED_HISTORIES, ids=[p.name for p in COMMITTED_HISTORIES]
)
def test_committed_histories_validate(path):
    assert COMMITTED_HISTORIES
    doc = json.loads(path.read_text(encoding="utf-8"))
    assert validate_document(doc) == HISTORY_SCHEMA


# ----------------------------------------------------------------------
# Wrong types are ValueErrors, not TypeErrors
# ----------------------------------------------------------------------
TYPE_ERROR_INPUTS = [
    ("schema-tag-list", None, lambda doc: {"schema": ["x"]}),
    ("trace-clock-list", "trace", put("clock", ["virtual"])),
    ("span-start-string", "trace",
     put("requests", 0, "root", "start", "0")),
    ("trace-status-list", "trace", put("requests", 0, "status", ["ok"])),
    ("plan-inputs-int", "explain", put("plan", "inputs", 5)),
    ("histogram-counts-int", "metrics",
     put("metrics", HISTOGRAM, "counts", 3)),
    ("calibration-source-list", "calibration",
     put("plan", "source", ["exact"])),
    ("history-columns-int", "history", put("columns", 3)),
    ("metric-kind-list", "bench",
     put("metrics", "metrics", "bench.rows", "kind", ["counter"])),
]


@pytest.mark.parametrize(
    "kind,mutate",
    [pytest.param(k, m, id=name) for name, k, m in TYPE_ERROR_INPUTS],
)
def test_wrong_types_raise_value_error(documents, kind, mutate):
    doc = mutate(copy.deepcopy(documents[kind]) if kind else None)
    with pytest.raises(ValueError):
        validate_document(doc)


def test_validate_cli_reports_and_continues(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": ["x"]}))
    good = COMMITTED_HISTORIES[0]
    assert validate_main([str(bad), str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.err.count("INVALID") == 1
    assert f"{bad}: INVALID" in captured.err
    assert f"{good}: ok ({HISTORY_SCHEMA})" in captured.out


def test_validate_cli_closes_its_files(documents, tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(documents["metrics"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert validate_main([str(path)]) == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_history_ingest_skips_non_bench_json(documents, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    (out / "array.json").write_text("[1, 2]")
    (out / "other.json").write_text(json.dumps(documents["metrics"]))
    (out / "demo.json").write_text(json.dumps(documents["bench"]))
    assert history.main([
        "ingest", "--out-dir", str(out), "--history-dir", str(tmp_path),
    ]) == 0
    assert "demo.json" in capsys.readouterr().out
    assert (tmp_path / "BENCH_schema_demo.json").exists()


# ----------------------------------------------------------------------
# Property: pass or ValueError, never anything else
# ----------------------------------------------------------------------
_VOCABULARY = sorted({
    "ok", "shed", "error", "request", "admission", "queue", "dispatch",
    "operator", "counter", "gauge", "histogram", "scan", "select",
    "group_by", "semijoin", "virtual", "rate", "exact", "schema",
    "name", "kind", "value", "inputs", "children", "rows", "columns",
    *TAGS.values(),
})
_SCALARS = (
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=4) | st.sampled_from(_VOCABULARY)
)
JSON = st.recursive(
    _SCALARS,
    lambda inner: (
        st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(_VOCABULARY) | st.text(max_size=3),
                          inner, max_size=4)
    ),
    max_leaves=12,
)
_PROPERTY = settings(
    max_examples=150, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def _check_total(kind, doc):
    """Run ``kind``'s validator (or the dispatcher): pass or ValueError."""
    check = validate_document if kind is None else VALIDATORS[kind]
    try:
        check(doc)
    except ValueError:
        pass


@_PROPERTY
@given(value=JSON)
def test_any_json_value_passes_or_raises_value_error(value):
    for kind in (None, *VALIDATORS):
        _check_total(kind, value)


@_PROPERTY
@given(kind=st.sampled_from(sorted(TAGS)), body=st.dictionaries(
    st.sampled_from(_VOCABULARY), JSON, max_size=6,
))
def test_tagged_json_object_passes_or_raises_value_error(kind, body):
    _check_total(None, {**body, "schema": TAGS[kind]})


def _locations(doc):
    """Every ``(container, key)`` slot of a document, outermost first."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        if isinstance(node, dict):
            items = list(node.items())
        elif isinstance(node, list):
            items = list(enumerate(node))
        else:
            continue
        for key, value in items:
            slots.append((node, key))
            stack.append(value)
    return slots


@_PROPERTY
@given(kind=st.sampled_from(sorted(TAGS)), data=st.data())
def test_one_field_mutation_passes_or_raises_value_error(
    documents, kind, data
):
    doc = copy.deepcopy(documents[kind])
    slots = _locations(doc)
    container, key = slots[data.draw(st.integers(0, len(slots) - 1))]
    if data.draw(st.booleans()):
        container[key] = data.draw(JSON)
    else:
        del container[key]
    _check_total(kind, doc)
    _check_total(None, doc)
