"""Tests for cost-model calibration: the estimate→actual join."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.catalog import Catalog
from repro.data import FunctionalRelation, complete_relation, var
from repro.obs import MetricsRegistry
from repro.obs.calib import (
    MISESTIMATE_THRESHOLD,
    CandidateReplay,
    PlanAudit,
    calibrate_plan,
    q_error,
)
from repro.obs.export import explain_document
from repro.obs.trace import QueryTracer
from repro.obs.validate import validate_document
from repro.optimizer.base import OptimizationResult
from repro.plans import (
    ExecutionContext,
    ExecutionProfile,
    GroupBy,
    ProductJoin,
    Scan,
    Select,
)
from repro.plans.annotate import annotate
from repro.semiring import SUM_PRODUCT
from repro.storage import IOStats


class TestQError:
    def test_exact(self):
        assert q_error(100, 100) == 1.0

    def test_symmetric(self):
        assert q_error(10, 40) == q_error(40, 10) == 4.0

    def test_floored_at_one_row(self):
        # An estimate of 0.2 for an empty actual is not an error.
        assert q_error(0.2, 0) == 1.0
        assert q_error(0.5, 2) == 2.0


@pytest.fixture
def exact_setting(rng):
    """Two complete relations: every estimator rule is exact."""
    cat = Catalog()
    cat.register(complete_relation([var("a", 6), var("b", 5)], rng=rng,
                                   name="s1"))
    cat.register(complete_relation([var("b", 5), var("c", 4)], rng=rng,
                                   name="s2"))
    plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
    return cat, plan


def profiled(plan, cat):
    """The ``EXPLAIN ANALYZE`` profile of one traced run of ``plan``."""
    tracer = QueryTracer()
    stats = IOStats()
    tracer.bind_stats(stats)
    ctx = ExecutionContext(cat, SUM_PRODUCT, tracer=tracer)
    result, _ = ctx.run(plan, stats=stats)
    return ExecutionProfile.traced(
        plan, result, stats, tracer, lambda t: cat.relation(t).ntuples
    )


def run_calibrated(plan, cat):
    annotate(plan, cat)
    profile = profiled(plan, cat)
    return calibrate_plan(plan, profile.operators,
                          stats_epoch=cat.stats_epoch)


class TestCalibratePlan:
    def test_exact_stats_give_unit_q_error(self, exact_setting):
        cat, plan = exact_setting
        calib = run_calibrated(plan, cat)
        assert calib.plan_q_error == 1.0
        assert calib.mean_q_error == 1.0
        assert calib.dominant is None
        assert all(n.source == "exact" for n in calib.nodes)
        assert all(n.q_error == 1.0 for n in calib.nodes)

    def test_one_row_per_unique_node_children_first(self, exact_setting):
        cat, plan = exact_setting
        calib = run_calibrated(plan, cat)
        assert len(calib.nodes) == plan.count_nodes()
        assert calib.nodes[-1].op == "group_by"  # root last
        keys = [n.key for n in calib.nodes]
        assert len(set(keys)) == len(keys)

    def test_lookup_by_structural_key(self, exact_setting):
        cat, plan = exact_setting
        calib = run_calibrated(plan, cat)
        row = calib.lookup(plan.structural_key())
        assert row is not None and row.op == "group_by"
        assert calib.lookup(("no", "such", "key")) is None

    def test_accepts_actuals_mapping(self, exact_setting):
        cat, plan = exact_setting
        annotate(plan, cat)
        actuals = {
            node.structural_key(): (int(node.stats.cardinality), 7.0)
            for node in plan.walk()
        }
        calib = calibrate_plan(plan, actuals)
        assert calib.plan_q_error == 1.0
        assert all(n.actual_elapsed == 7.0 for n in calib.nodes)

    def test_unexecuted_node_has_no_q_error(self, exact_setting):
        cat, plan = exact_setting
        annotate(plan, cat)
        calib = calibrate_plan(plan, {})
        assert all(n.q_error is None and n.source is None
                   for n in calib.nodes)
        assert calib.plan_q_error == 1.0  # vacuous


@pytest.fixture
def skewed_setting(rng):
    """A selection whose uniformity assumption is badly wrong.

    In s1, b=0 appears with every a value while every other b value
    appears only once — so the uniform estimate |s1|/d(b) for the
    selection is ~2 rows against an actual of n.
    """
    n = 8
    a, b, c = var("a", n), var("b", n), var("c", n)
    rows = [(i, 0, 1.0) for i in range(n)]
    rows += [(0, j, 1.0) for j in range(1, n)]
    cat = Catalog()
    cat.register(FunctionalRelation.from_rows([a, b], rows, name="s1"))
    cat.register(complete_relation([b, c], rng=rng, name="s2"))
    plan = GroupBy(
        ProductJoin(
            Select(Scan("s1"), {"b": 0}),
            Select(Scan("s2"), {"b": 0}),
        ),
        ["c"],
    )
    return cat, plan


class TestAttribution:
    def test_selection_misestimate_is_blamed_on_the_selection(
        self, skewed_setting
    ):
        cat, plan = skewed_setting
        calib = run_calibrated(plan, cat)
        assert calib.plan_q_error > MISESTIMATE_THRESHOLD
        dominant = calib.dominant
        assert dominant.op == "select"
        assert dominant.source == "selection"
        assert calib.misestimates  # crossed the 2x line

    def test_scans_stay_exact_under_the_misestimate(self, skewed_setting):
        cat, plan = skewed_setting
        calib = run_calibrated(plan, cat)
        for node in calib.nodes:
            if node.op == "scan":
                assert node.source == "exact"

    def test_downstream_error_is_inherited_not_own(self, skewed_setting):
        cat, plan = skewed_setting
        calib = run_calibrated(plan, cat)
        join = next(n for n in calib.nodes if n.op == "product_join")
        # The join's error comes from its selection input; it must not
        # be blamed on join selectivity.
        assert join.source in ("inherited", "exact")


class TestPublish:
    def test_metrics_published(self, skewed_setting):
        cat, plan = skewed_setting
        calib = run_calibrated(plan, cat)
        reg = MetricsRegistry()
        calib.publish(reg)
        snap = reg.snapshot()
        assert snap.get("calib.runs") == 1
        assert snap.get("calib.misestimates", source="selection") >= 1

    def test_q_error_histogram_labeled_by_operator(self, exact_setting):
        cat, plan = exact_setting
        calib = run_calibrated(plan, cat)
        reg = MetricsRegistry()
        calib.publish(reg)
        entry = reg.snapshot().to_dict()["calib.q_error{operator=scan}"]
        assert entry["kind"] == "histogram"
        assert entry["count"] == 2

    def test_none_registry_is_a_noop(self, exact_setting):
        cat, plan = exact_setting
        calib = run_calibrated(plan, cat)
        calib.publish(None)


def analyze_document(plan, calib) -> dict:
    """The calibrated ANALYZE explain document of ``plan``."""
    optimization = OptimizationResult(
        plan=plan, cost=0.0, algorithm="ve+", planning_seconds=0.0,
        plans_considered=1,
    )
    return explain_document(optimization, query="q", calibration=calib)


class TestCalibrationDocument:
    """The join travels in the ANALYZE form of ``repro.explain.v1``."""

    def test_document_validates(self, skewed_setting):
        cat, plan = skewed_setting
        calib = run_calibrated(plan, cat)
        calib.audit = PlanAudit(candidates=[
            CandidateReplay("ve+", 100.0, 50.0, chosen=True),
            CandidateReplay("cs", 120.0, 40.0, chosen=False),
        ])
        doc = analyze_document(plan, calib)
        assert validate_document(doc) == "repro.explain.v1"
        block = doc["calibration"]
        assert block["audit"]["plan_regret"] == pytest.approx(1.25)
        assert block["plan_q_error"] == calib.plan_q_error
        assert block["dominant"]["source"] == "selection"
        select = doc["plan"]["inputs"][0]["inputs"][0]
        assert select["op"] == "select"
        assert select["source"] == calib.lookup(
            plan.children()[0].children()[0].structural_key()
        ).source

    def test_validator_rejects_bad_q_error(self, exact_setting):
        cat, plan = exact_setting
        doc = analyze_document(plan, run_calibrated(plan, cat))
        doc["plan"]["inputs"][0]["q_error"] = 0.5
        with pytest.raises(ValueError, match="q_error"):
            validate_document(doc)

    def test_validator_rejects_unknown_source(self, exact_setting):
        cat, plan = exact_setting
        doc = analyze_document(plan, run_calibrated(plan, cat))
        doc["plan"]["inputs"][0]["source"] = "gremlins"
        with pytest.raises(ValueError, match="source"):
            validate_document(doc)

    def test_validator_rejects_missing_keys(self, exact_setting):
        cat, plan = exact_setting
        doc = analyze_document(plan, run_calibrated(plan, cat))
        del doc["calibration"]["plan_q_error"]
        with pytest.raises(ValueError, match="missing"):
            validate_document(doc)


class TestPlanAudit:
    def test_regret_is_chosen_over_best(self):
        audit = PlanAudit(candidates=[
            CandidateReplay("ve+", 10.0, 200.0, chosen=True),
            CandidateReplay("cs", 12.0, 100.0, chosen=False),
        ])
        assert audit.plan_regret == 2.0
        assert audit.best.algorithm == "cs"
        assert audit.chosen.algorithm == "ve+"

    def test_regret_one_when_chosen_is_best(self):
        audit = PlanAudit(candidates=[
            CandidateReplay("ve+", 10.0, 100.0, chosen=True),
            CandidateReplay("cs", 12.0, 150.0, chosen=False),
        ])
        assert audit.plan_regret == 1.0

    def test_publish(self):
        audit = PlanAudit(candidates=[
            CandidateReplay("ve+", 10.0, 100.0, chosen=True),
            CandidateReplay("cs", 12.0, 150.0, chosen=False),
        ])
        reg = MetricsRegistry()
        audit.publish(reg)
        assert reg.snapshot().get("calib.plans_replayed") == 2


class TestCalibrationProperty:
    """Full product joins over exact statistics calibrate to q ≡ 1.0.

    Complete relations make every estimator rule exact (containment
    holds with equality, group-by collapse hits the distinct product),
    so with fresh statistics and no selections the whole plan must
    calibrate to Q-error exactly 1.0 — the property the acceptance
    criterion pins.
    """

    @settings(max_examples=20, deadline=None)
    @given(
        sizes=st.lists(st.integers(min_value=2, max_value=5),
                       min_size=3, max_size=4),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_complete_chain_calibrates_exactly(self, sizes, seed):
        rng = np.random.default_rng(seed)
        names = [f"v{i}" for i in range(len(sizes))]
        variables = [var(n, s) for n, s in zip(names, sizes)]
        cat = Catalog()
        plan = None
        for i in range(len(sizes) - 1):
            rel = complete_relation(
                [variables[i], variables[i + 1]], rng=rng, name=f"t{i}"
            )
            cat.register(rel)
            scan = Scan(f"t{i}")
            plan = scan if plan is None else ProductJoin(plan, scan)
        plan = GroupBy(plan, [names[0]])
        calib = run_calibrated(plan, cat)
        assert calib.plan_q_error == 1.0
        assert all(n.q_error == 1.0 for n in calib.nodes)
        assert all(n.source == "exact" for n in calib.nodes)
