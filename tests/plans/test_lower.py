"""Structural keys and plan-DAG lowering (CSE)."""

from repro.plans import (
    FilterScan,
    GroupBy,
    IndexScan,
    ProductJoin,
    Scan,
    Select,
    SemiJoin,
    lower,
)
from repro.plans.lower import _cse


def _shared_join():
    return ProductJoin(Scan("s1"), Scan("s2"))


class TestStructuralKeys:
    def test_equal_for_identical_structure(self):
        a = GroupBy(_shared_join(), ["a"])
        b = GroupBy(_shared_join(), ["a"])
        assert a.structural_key() == b.structural_key()

    def test_physical_method_is_part_of_the_key(self):
        hash_join = ProductJoin(Scan("s1"), Scan("s2"), method="hash")
        merge_join = ProductJoin(Scan("s1"), Scan("s2"), method="sort_merge")
        assert hash_join.structural_key() != merge_join.structural_key()
        sort_gb = GroupBy(Scan("s1"), ["a"], method="sort")
        hash_gb = GroupBy(Scan("s1"), ["a"], method="hash")
        assert sort_gb.structural_key() != hash_gb.structural_key()

    def test_predicate_order_is_canonical(self):
        a = Select(Scan("s1"), {"x": 1, "y": 2})
        b = Select(Scan("s1"), {"y": 2, "x": 1})
        assert a.structural_key() == b.structural_key()

    def test_distinct_nodes_distinct_keys(self):
        keys = {
            Scan("s1").structural_key(),
            IndexScan("s1", {"x": 1}).structural_key(),
            Select(Scan("s1"), {"x": 1}).structural_key(),
            SemiJoin(Scan("s1"), Scan("s2"), "product").structural_key(),
            SemiJoin(Scan("s1"), Scan("s2"), "update").structural_key(),
        }
        assert len(keys) == 5

    def test_key_is_cached(self):
        plan = GroupBy(_shared_join(), ["a"])
        assert plan.structural_key() is plan.structural_key()


class TestLower:
    def test_repeated_scan_dedupes_within_one_tree(self):
        # s1 ⋈ s1: two tree occurrences of Scan(s1), one DAG node.
        plan = ProductJoin(Scan("s1"), Scan("s1"))
        dag = lower(plan)
        assert dag.tree_nodes == 3
        assert dag.unique_nodes == 2
        assert dag.shared_nodes == 1

    def test_shared_subplan_across_batch(self):
        q1 = GroupBy(_shared_join(), ["a"])
        q2 = GroupBy(_shared_join(), ["b"])
        dag = lower([q1, q2])
        # Join + both scans shared; only the two GroupBys are distinct.
        assert dag.unique_nodes == 5
        assert dag.shared_nodes == 3
        assert len(dag.roots) == 2
        assert dag.roots[0] == q1.structural_key()

    def test_duplicate_roots_preserved(self):
        q = GroupBy(_shared_join(), ["a"])
        dag = lower([q, q])
        assert dag.roots == (q.structural_key(), q.structural_key())
        assert dag.unique_nodes == 4

    def test_topological_order_children_first(self):
        plan = GroupBy(Select(_shared_join(), {"a": 0}), ["a"])
        dag = lower(plan)
        seen = set()
        for key in dag.topological():
            assert all(c in seen for c in dag.children[key])
            seen.add(key)
        assert seen == set(dag.nodes)

    def test_base_table_dependencies(self):
        q1 = GroupBy(_shared_join(), ["a"])
        q2 = GroupBy(Scan("s3"), ["c"])
        dag = lower([q1, q2])
        assert dag.base_tables(q1.structural_key()) == {"s1", "s2"}
        assert dag.base_tables(q2.structural_key()) == {"s3"}
        assert dag.base_tables(Scan("s1").structural_key()) == {"s1"}


class TestReplaces:
    """Lowering rewrites and the one record of what they replaced."""

    def _select(self, table="s1"):
        return Select(Scan(table), {"a": 0})

    def test_exclusive_select_scan_becomes_one_filter_scan(self):
        select = self._select()
        plan = GroupBy(ProductJoin(select, Scan("s2")), ["b"])
        dag = lower(plan)
        fs_key = FilterScan("s1", {"a": 0}).structural_key()
        assert dag.replaces == {
            fs_key: (select.structural_key(), Scan("s1").structural_key())
        }
        assert isinstance(dag.nodes[fs_key], FilterScan)
        assert select.structural_key() not in dag.nodes
        assert Scan("s1").structural_key() not in dag.nodes
        assert dag.children[fs_key] == ()
        assert dag.base_tables(fs_key) == {"s1"}
        assert fs_key in dag.children[plan.child.structural_key()]

    def test_unrewritten_nodes_have_no_entry(self):
        assert lower(GroupBy(_shared_join(), ["a"])).replaces == {}
        assert _cse(self._select()).replaces == {}

    def test_shared_scan_is_not_fused(self):
        # Scan(s1) also feeds the join directly: fusing would read s1
        # twice where CSE reads it once.
        plan = ProductJoin(self._select(), Scan("s1"))
        dag = lower(plan)
        assert dag.replaces == {}
        assert set(dag.nodes) == set(_cse(plan).nodes)

    def test_root_scan_is_not_fused(self):
        dag = lower([self._select(), Scan("s1")])
        assert dag.replaces == {}
        assert dag.roots[1] == Scan("s1").structural_key()

    def test_fused_root_select_remaps_roots(self):
        dag = lower(self._select())
        (fs_key,) = dag.replaces
        assert dag.roots == (fs_key,)
        assert list(dag.topological()) == [fs_key]

    def test_entry_survives_cse_across_a_batch(self):
        q1 = GroupBy(ProductJoin(self._select(), Scan("s2")), ["b"])
        q2 = GroupBy(ProductJoin(self._select(), Scan("s2")), ["c"])
        dag = lower([q1, q2])
        # One CSE hit on the Select(Scan) pair, then one fusion.
        assert list(dag.replaces.values()) == [
            (self._select().structural_key(), Scan("s1").structural_key())
        ]
        assert sum(isinstance(n, FilterScan) for n in dag.nodes.values()) == 1

    def test_a_fusion_is_not_a_shared_subplan(self):
        plan = GroupBy(ProductJoin(self._select(), Scan("s2")), ["b"])
        assert _cse(plan).shared_nodes == 0
        dag = lower(plan)
        assert dag.shared_nodes == 0
        assert dag.tree_nodes == plan.count_nodes() == 5
        assert dag.unique_nodes == 4

    def test_sharing_is_counted_before_the_rewrite(self):
        q1 = GroupBy(ProductJoin(self._select(), Scan("s2")), ["b"])
        q2 = GroupBy(ProductJoin(self._select(), Scan("s2")), ["c"])
        # Select, Scan(s1), Scan(s2) and the join each occur twice.
        assert _cse([q1, q2]).shared_nodes == 4
        assert lower([q1, q2]).shared_nodes == 4

    def test_plan_tree_rows_rekey_and_list_absorbed_scans(self):
        from repro.obs.trace import OperatorProfile

        select = self._select()
        plan = ProductJoin(select, Scan("s2"))
        dag = lower(plan)
        (fs_key,) = dag.replaces

        def row(key, label, out_rows):
            return OperatorProfile(
                label=label, out_rows=out_rows, tuples=out_rows,
                page_reads=1, page_writes=0, elapsed=9.0, node_key=key,
            )

        rows = [
            row(fs_key, "FilterScan(s1, a=0)", 3),
            row(Scan("s2").structural_key(), "Scan(s2)", 7),
        ]
        out = dag.plan_tree_rows(rows, {"s1": 40, "s2": 7}.__getitem__)
        assert out == rows  # labels and counts untouched
        assert out[0].node_key == select.structural_key()
        assert out[0].absorbed == ((Scan("s1").structural_key(), 40),)
        assert out[1] is rows[1]
        assert rows[0].node_key == fs_key  # input rows not mutated


class TestDeepPlans:
    """Structural keys, traversal, and lowering on very deep trees.

    All three are iterative; plans thousands of operators deep must
    not hit the interpreter recursion limit.
    """

    DEPTH = 5000

    def _deep_chain(self):
        plan = Scan("s1")
        for _ in range(self.DEPTH):
            plan = GroupBy(plan, ["a"])
        return plan

    def test_structural_key_on_deep_chain(self):
        plan = self._deep_chain()
        # Interning makes equal keys the same object, so comparing
        # independently built deep keys is identity, not recursion.
        assert plan.structural_key() is self._deep_chain().structural_key()

    def test_walk_and_count_on_deep_chain(self):
        plan = self._deep_chain()
        assert plan.count_nodes() == self.DEPTH + 1

    def test_lower_deep_chain(self):
        dag = lower(self._deep_chain())
        assert dag.unique_nodes == self.DEPTH + 1
        assert dag.shared_nodes == 0
        order = list(dag.topological())
        assert order[0] == Scan("s1").structural_key()
