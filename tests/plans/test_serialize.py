"""Plan serialization round-trip tests."""

import pytest

from repro.errors import PlanError
from repro.optimizer import CSPlusNonlinear, QuerySpec, VariableElimination
from repro.plans import (
    FilterScan,
    GroupBy,
    IndexScan,
    ProductJoin,
    Scan,
    Select,
    SemiJoin,
    execute,
    explain,
    plan_from_dict,
    plan_from_json,
    plan_to_dict,
    plan_to_json,
)
from repro.semiring import SUM_PRODUCT


def _roundtrip(plan):
    return plan_from_json(plan_to_json(plan))


class TestRoundTrip:
    def test_structure_preserved(self):
        plan = GroupBy(
            ProductJoin(
                Select(Scan("a"), {"x": 1}),
                IndexScan("b", {"y": 2}),
                method="sort_merge",
            ),
            ["x"],
            method="hash",
        )
        rebuilt = _roundtrip(plan)
        assert explain(rebuilt) == explain(plan)
        assert rebuilt.child.method == "sort_merge"
        assert rebuilt.method == "hash"

    def test_optimizer_plan_roundtrips_and_executes(self, tiny_supply_chain):
        sc = tiny_supply_chain
        spec = QuerySpec(tables=sc.tables, query_vars=("wid",))
        plan = VariableElimination("degree").optimize(spec, sc.catalog).plan
        rebuilt = _roundtrip(plan)
        original, _ = execute(plan, sc.catalog, SUM_PRODUCT)
        again, _ = execute(rebuilt, sc.catalog, SUM_PRODUCT)
        assert original.equals(again, SUM_PRODUCT)

    def test_json_defaults(self):
        plan = ProductJoin(Scan("a"), Scan("b"))
        data = plan_to_dict(plan)
        assert data["method"] == "hash"
        # Older payloads without method still load.
        del data["method"]
        rebuilt = plan_from_dict(data)
        assert rebuilt.method == "hash"

    def test_index_scan_fields(self):
        rebuilt = _roundtrip(IndexScan("contracts", {"pid": 3}))
        assert isinstance(rebuilt, IndexScan)
        assert rebuilt.table == "contracts"
        assert dict(rebuilt.predicate) == {"pid": 3}

    @pytest.mark.parametrize("method", ["hash", "sort_merge"])
    def test_product_join_method(self, method):
        plan = ProductJoin(Scan("a"), Scan("b"), method=method)
        rebuilt = _roundtrip(plan)
        assert rebuilt.method == method
        assert rebuilt.structural_key() == plan.structural_key()

    @pytest.mark.parametrize("method", ["sort", "hash"])
    def test_group_by_method(self, method):
        plan = GroupBy(Scan("a"), ["x", "y"], method=method)
        rebuilt = _roundtrip(plan)
        assert rebuilt.method == method
        assert rebuilt.group_names == ("x", "y")
        assert rebuilt.structural_key() == plan.structural_key()

    @pytest.mark.parametrize("kind", ["product", "update"])
    def test_semijoin_kind(self, kind):
        plan = SemiJoin(Scan("a"), Scan("b"), kind)
        rebuilt = _roundtrip(plan)
        assert isinstance(rebuilt, SemiJoin)
        assert rebuilt.kind == kind
        assert rebuilt.structural_key() == plan.structural_key()

    def test_semijoin_kind_defaults_to_product(self):
        data = plan_to_dict(SemiJoin(Scan("a"), Scan("b"), "update"))
        del data["kind"]
        assert plan_from_dict(data).kind == "product"

    def test_prepared_statement_workflow(self, tiny_supply_chain):
        """Persist a plan as JSON, reload in a 'new session', run it."""
        sc = tiny_supply_chain
        spec = QuerySpec(tables=sc.tables, query_vars=("cid",))
        payload = plan_to_json(
            CSPlusNonlinear().optimize(spec, sc.catalog).plan, indent=2
        )
        assert '"op":' in payload
        rebuilt = plan_from_json(payload)
        result, _ = execute(rebuilt, sc.catalog, SUM_PRODUCT)
        assert result.var_names == ("cid",)


class TestDeepPlans:
    def test_depth_3000_chain_round_trips(self):
        """Every other plan walk is iterative (docs/robustness.md "Deep
        plans"); the plan caches and a checkpoint's memo section go
        through these two functions, so they must be too."""
        plan = Scan("a")
        for i in range(3000):
            plan = Select(plan, {"x": i})
        data = plan_to_dict(plan)
        rebuilt = plan_from_dict(data)
        assert rebuilt.structural_key() is plan.structural_key()
        depth, node = 0, data
        while "child" in node:
            assert list(node) == ["op", "predicate", "child"]
            depth, node = depth + 1, node["child"]
        assert depth == 3000 and node == {"op": "scan", "table": "a"}

    def test_deep_left_and_right_spines(self):
        left = right = Scan("t0")
        for i in range(1, 1500):
            left = ProductJoin(left, Scan(f"t{i}"))
            right = SemiJoin(Scan(f"t{i}"), right, "update")
        for plan in (left, right, GroupBy(ProductJoin(left, right), ["x"])):
            rebuilt = plan_from_dict(plan_to_dict(plan))
            assert rebuilt.structural_key() is plan.structural_key()


class TestEveryNodeKind:
    """Introspective coverage: every concrete PlanNode round-trips.

    A new node type added to ``plans/nodes.py`` without serialization
    support fails here loudly — checkpointed runtime memos persist
    plans through ``plan_to_dict``, so coverage gaps would silently
    break crash recovery.
    """

    SAMPLES = {
        "Scan": lambda: Scan("a"),
        "IndexScan": lambda: IndexScan("a", {"x": 1}),
        "FilterScan": lambda: FilterScan("a", {"x": 1, "y": 0}),
        "Select": lambda: Select(Scan("a"), {"x": 2}),
        "ProductJoin": lambda: ProductJoin(
            Scan("a"), Scan("b"), method="sort_merge"
        ),
        "GroupBy": lambda: GroupBy(Scan("a"), ["x"], method="hash"),
        "SemiJoin": lambda: SemiJoin(Scan("a"), Scan("b"), "update"),
    }

    def _concrete_node_classes(self):
        import repro.plans.nodes as nodes_module
        from repro.plans.nodes import PlanNode

        return [
            obj
            for obj in vars(nodes_module).values()
            if isinstance(obj, type)
            and issubclass(obj, PlanNode)
            and obj is not PlanNode
        ]

    def test_every_concrete_node_has_a_sample(self):
        missing = [
            cls.__name__
            for cls in self._concrete_node_classes()
            if cls.__name__ not in self.SAMPLES
        ]
        assert not missing, (
            f"plan node kinds without serialization coverage: {missing}; "
            "extend plans/serialize.py and this test's SAMPLES"
        )

    @pytest.mark.parametrize("kind", sorted(SAMPLES))
    def test_round_trip_preserves_structural_key(self, kind):
        plan = self.SAMPLES[kind]()
        rebuilt = plan_from_dict(plan_to_dict(plan))
        assert type(rebuilt) is type(plan)
        # Structural keys are interned: identity, not just equality.
        assert rebuilt.structural_key() is plan.structural_key()

    def test_annotated_plan_round_trips_structure(self, tiny_supply_chain):
        from repro.plans.annotate import annotate

        sc = tiny_supply_chain
        plan = GroupBy(
            ProductJoin(Scan(sc.tables[0]), Scan(sc.tables[1])), []
        )
        annotate(plan, sc.catalog, choose_methods=True)
        assert plan.total_cost is not None
        rebuilt = plan_from_dict(plan_to_dict(plan))
        # Annotations are re-derivable and deliberately dropped; the
        # chosen physical methods (part of the structure) survive.
        assert rebuilt.structural_key() is plan.structural_key()
        assert rebuilt.stats is None and rebuilt.total_cost is None

    def test_unknown_node_class_fails_loudly_on_encode(self):
        from repro.plans.nodes import PlanNode

        class Teleport(PlanNode):
            __slots__ = ()

            def label(self):
                return "Teleport"

            def _key(self):
                return ("teleport",)

        with pytest.raises(PlanError, match="cannot serialize"):
            plan_to_dict(Teleport())


class TestErrors:
    def test_unknown_op(self):
        with pytest.raises(PlanError):
            plan_from_dict({"op": "teleport"})

    def test_malformed_dict(self):
        with pytest.raises(PlanError):
            plan_from_dict({"nope": 1})

    def test_invalid_json(self):
        with pytest.raises(PlanError):
            plan_from_json("{not json")
