"""Tests for the structured exporters and their strict validators."""

import json

import pytest

from repro.catalog import Catalog
from repro.data import complete_relation, var
from repro.obs import (
    BENCH_SCHEMA,
    METRIC_CATALOG,
    MetricsRegistry,
    bench_document,
    explain_document,
    metrics_document,
    plan_explain_dict,
    validate_bench_document,
    validate_explain_document,
    validate_metrics_document,
)
from repro.obs.validate import validate_document
from repro.optimizer import QuerySpec, VariableElimination
from repro.plans import Scan, Select


@pytest.fixture
def optimization(rng):
    cat = Catalog()
    cat.register(complete_relation([var("a", 6), var("b", 5)], rng=rng,
                                   name="s1"))
    cat.register(complete_relation([var("b", 5), var("c", 4)], rng=rng,
                                   name="s2"))
    spec = QuerySpec(tables=("s1", "s2"), query_vars=("a",))
    return VariableElimination("degree").optimize(spec, cat), cat


class TestPlanExplainDict:
    def test_shape(self, optimization):
        from repro.plans.annotate import annotate

        opt, cat = optimization
        doc = plan_explain_dict(annotate(opt.plan, cat))
        assert doc["op"] == "group_by"
        assert doc["group_names"] == ["a"]
        assert "estimated" in doc
        leaves = []
        stack = [doc]
        while stack:
            node = stack.pop()
            kids = node.get("inputs", [])
            stack.extend(kids)
            if not kids:
                leaves.append(node)
        assert {leaf["table"] for leaf in leaves} == {"s1", "s2"}

    def test_deep_plan_does_not_recurse(self):
        plan = Scan("s1")
        for _ in range(5000):
            plan = Select(plan, {"a": 0})
        doc = plan_explain_dict(plan)  # must not hit the recursion limit
        depth = 0
        while "inputs" in doc:
            doc = doc["inputs"][0]
            depth += 1
        assert depth == 5000

    def test_unknown_node_rejected(self):
        class Weird:
            def label(self):
                return "weird"

            def children(self):
                return []

        with pytest.raises(ValueError):
            plan_explain_dict(Weird())


class TestExplainDocument:
    def test_plan_only_document_validates(self, optimization):
        opt, _ = optimization
        doc = explain_document(opt)
        validate_explain_document(doc)
        assert doc["execution"] is None
        assert json.loads(json.dumps(doc)) == doc

    def test_analyze_document_validates(self, optimization):
        from tests.obs.test_calib import profiled

        opt, cat = optimization
        profile = profiled(opt.plan, cat)
        doc = explain_document(
            opt, execution=profile.total, operators=profile.operators
        )
        validate_explain_document(doc)
        ops = doc["execution"]["operators"]
        assert len(ops) == opt.plan.count_nodes()
        assert doc["execution"]["totals"]["page_reads"] == (
            profile.total.page_reads
        )

    def test_unknown_key_rejected(self, optimization):
        opt, _ = optimization
        doc = explain_document(opt)
        doc["surprise"] = 1
        with pytest.raises(ValueError, match="unknown keys"):
            validate_explain_document(doc)

    def test_missing_key_rejected(self, optimization):
        opt, _ = optimization
        doc = explain_document(opt)
        del doc["algorithm"]
        with pytest.raises(ValueError, match="missing keys"):
            validate_explain_document(doc)

    def test_malformed_plan_node_rejected(self, optimization):
        opt, _ = optimization
        doc = explain_document(opt)
        doc["plan"]["op"] = "teleport"
        with pytest.raises(ValueError, match="unknown op"):
            validate_explain_document(doc)


class TestMetricsDocument:
    def test_catalog_metrics_validate(self):
        reg = MetricsRegistry()
        reg.counter("query.page_reads").inc(3)
        reg.counter("queries.total", status="ok").inc()
        reg.gauge("vecache.tables").set(2)
        reg.histogram("query.operator_elapsed").observe(10.0)
        doc = metrics_document(reg, name="unit")
        validate_metrics_document(doc)
        assert doc["name"] == "unit"

    def test_uncataloged_name_rejected(self):
        reg = MetricsRegistry()
        reg.counter("made.up").inc()
        with pytest.raises(ValueError, match="not in the catalog"):
            validate_metrics_document(metrics_document(reg))

    def test_bench_prefix_is_freeform(self):
        reg = MetricsRegistry()
        reg.counter("bench.anything_goes").inc()
        validate_metrics_document(metrics_document(reg))

    def test_wrong_kind_rejected(self):
        doc = metrics_document(MetricsRegistry())
        doc["metrics"]["queries.total"] = {"kind": "gauge", "value": 1}
        with pytest.raises(ValueError, match="catalog says"):
            validate_metrics_document(doc)

    def test_malformed_entry_rejected(self):
        doc = metrics_document(MetricsRegistry())
        doc["metrics"]["queries.total"] = {"kind": "counter"}
        with pytest.raises(ValueError, match="missing keys"):
            validate_metrics_document(doc)

    def test_every_catalog_kind_is_known(self):
        assert set(METRIC_CATALOG.values()) <= {
            "counter", "gauge", "histogram"
        }

    def test_catalog_documented(self):
        """docs/observability.md must mention every catalog metric.

        The validator enforces code→catalog agreement; this pins
        catalog→docs, so a new metric (calib.*, ...) cannot land
        without a row in the documented table.
        """
        from pathlib import Path

        doc = (
            Path(__file__).parents[2] / "docs" / "observability.md"
        ).read_text()
        missing = [name for name in METRIC_CATALOG if f"`{name}" not in doc]
        assert not missing, f"undocumented metrics: {missing}"

    def test_serve_metrics_documented_in_serving_guide(self):
        """docs/serving.md must name every serve.* catalog metric.

        The serving guide carries its own metrics table; this keeps
        it from drifting as serving metrics are added.
        """
        from pathlib import Path

        doc = (
            Path(__file__).parents[2] / "docs" / "serving.md"
        ).read_text()
        serve_names = [
            name for name in METRIC_CATALOG if name.startswith("serve.")
        ]
        assert serve_names, "serve.* metrics missing from the catalog"
        missing = [name for name in serve_names if f"`{name}" not in doc]
        assert not missing, f"not in docs/serving.md: {missing}"


class TestBenchDocument:
    def test_roundtrip_validates(self):
        reg = MetricsRegistry()
        reg.counter("bench.rows").inc(2)
        doc = bench_document(
            "t", "Table T", ["x", "y"], [[1, 2.0], [3, 4.0]], metrics=reg
        )
        validate_bench_document(doc)
        assert validate_document(doc) == BENCH_SCHEMA

    def test_row_width_mismatch_rejected(self):
        doc = bench_document("t", "Table T", ["x", "y"], [[1]])
        with pytest.raises(ValueError, match="rows"):
            validate_bench_document(doc)

    def test_embedded_metrics_are_checked(self):
        doc = bench_document("t", "Table T", ["x"], [[1]])
        doc["metrics"]["metrics"]["made.up"] = {
            "kind": "counter", "value": 1,
        }
        with pytest.raises(ValueError, match="not in the catalog"):
            validate_bench_document(doc)


class TestValidateDispatch:
    def test_unknown_schema(self):
        with pytest.raises(ValueError, match="unknown schema"):
            validate_document({"schema": "repro.nope.v9"})

    def test_untagged_document(self):
        with pytest.raises(ValueError, match="no 'schema' tag"):
            validate_document({"metrics": {}})
