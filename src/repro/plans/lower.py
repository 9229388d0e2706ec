"""Lowering: plan trees → a shared physical DAG (CSE).

``lower`` converts one or more plan trees into a :class:`PlanDAG`:
nodes are deduplicated by :meth:`PlanNode.structural_key`, so repeated
``Scan``s and structurally identical subplans — within one query or
across a batch — become a single DAG node.  The runtime evaluates each
unique node at most once (see :mod:`repro.plans.runtime`), which is the
physical counterpart of the paper's Section 6 workload sharing: common
work across an MPF query batch is detected and paid for once.

Lowering also owns the physical rewrites the optimizers never see —
today one: a ``Select`` over a ``Scan`` nothing else reads becomes a
:class:`~repro.plans.nodes.FilterScan`.  Every rewrite is recorded in
:attr:`PlanDAG.replaces`, which is how consumers that speak the plan
trees' vocabulary (calibration, EXPLAIN ANALYZE's per-node actuals)
keep joining on the nodes the optimizer produced.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Callable, Iterator, Sequence

from repro.plans.nodes import FilterScan, IndexScan, PlanNode, Scan, Select

__all__ = ["PlanDAG", "lower"]


class PlanDAG:
    """A deduplicated plan DAG over structural keys.

    ``nodes`` maps each structural key to one representative plan node;
    ``children`` gives each key's input keys; ``roots`` are the keys of
    the input trees, in input order (duplicates preserved so batch
    callers can zip results back to queries); ``order`` is a
    topological order with children before parents.

    ``replaces`` records the lowering rewrites: it maps a rewritten
    node's key to the structural keys of the plan-tree nodes it stands
    for, outermost first (``FilterScan → (Select, Scan)``).  Nodes
    lowered as they were planned have no entry.
    """

    def __init__(
        self,
        nodes: dict[tuple, PlanNode],
        children: dict[tuple, tuple[tuple, ...]],
        depends_on: dict[tuple, frozenset[str]],
        roots: tuple[tuple, ...],
        order: tuple[tuple, ...],
        tree_nodes: int,
        replaces: dict[tuple, tuple[tuple, ...]] | None = None,
    ):
        self.nodes = nodes
        self.children = children
        self.depends_on = depends_on
        self.roots = roots
        self.order = order
        self.tree_nodes = tree_nodes
        self.replaces = replaces or {}

    # ------------------------------------------------------------------
    @property
    def unique_nodes(self) -> int:
        return len(self.nodes)

    @property
    def shared_nodes(self) -> int:
        """Tree occurrences eliminated by CSE.

        Counted in plan-tree nodes — a rewritten node counts as the
        nodes it replaces — so a rewrite never reads as sharing.
        """
        absorbed = sum(len(r) - 1 for r in self.replaces.values())
        return self.tree_nodes - self.unique_nodes - absorbed

    def node(self, key: tuple) -> PlanNode:
        return self.nodes[key]

    def topological(self) -> Iterator[tuple]:
        """Keys with every child before its parents."""
        return iter(self.order)

    def base_tables(self, key: tuple) -> frozenset[str]:
        """Base tables the subplan rooted at ``key`` reads."""
        return self.depends_on[key]

    def plan_tree_rows(
        self, rows: Sequence, table_rows: Callable[[str], int]
    ) -> list:
        """Executed-operator rows re-keyed to the plan trees' vocabulary.

        A row (:class:`~repro.obs.trace.OperatorProfile`) of a rewritten
        node takes the key of the outermost node it replaces — its rows
        and elapsed are that node's actuals — and lists the nodes it
        absorbed: a ``Scan`` with its exact output,
        ``table_rows(table)``; anything else was never built and gets no
        actual.  Labels and counts still show the operators that ran.
        """
        out = []
        for row in rows:
            replaced = self.replaces.get(row.node_key)
            if replaced is not None:
                outermost, *inner = replaced
                scans = {
                    Scan(table).structural_key(): table
                    for table in self.base_tables(row.node_key)
                }
                row = replace(
                    row,
                    node_key=outermost,
                    absorbed=tuple(
                        (key, table_rows(scans[key]))
                        for key in inner if key in scans
                    ),
                )
            out.append(row)
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"PlanDAG(roots={len(self.roots)}, unique={self.unique_nodes}, "
            f"shared={self.shared_nodes})"
        )


def lower(plans: PlanNode | Sequence[PlanNode]) -> PlanDAG:
    """Lower plan trees into one physical DAG: CSE, then rewrites.

    After common-subexpression elimination, each ``Select`` whose only
    child is a ``Scan`` *exclusively feeding that Select* becomes a
    single :class:`~repro.plans.nodes.FilterScan` node, which
    evaluates the predicate during the scan and skips one full
    materialization pass.  Shared scans (another DAG node, or a root,
    also reads the table's scan) are never fused — fusing them would
    duplicate the page reads the CSE just eliminated.  Results are
    byte-identical to evaluating the un-rewritten DAG.
    """
    return _push_selects_into_scans(_cse(plans))


def _cse(plans: PlanNode | Sequence[PlanNode]) -> PlanDAG:
    """Common-subexpression-eliminate plan trees into one DAG."""
    if isinstance(plans, PlanNode):
        plans = [plans]
    nodes: dict[tuple, PlanNode] = {}
    children: dict[tuple, tuple[tuple, ...]] = {}
    depends_on: dict[tuple, frozenset[str]] = {}
    order: list[tuple] = []

    def visit(root: PlanNode) -> tuple:
        # Iterative post-order: lowering must survive plans far deeper
        # than the interpreter recursion limit (long operator chains).
        stack = [root]
        while stack:
            node = stack[-1]
            key = node.structural_key()
            if key in nodes:
                stack.pop()
                continue
            pending = [
                c for c in node.children()
                if c.structural_key() not in nodes
            ]
            if pending:
                stack.extend(pending)
                continue
            child_keys = tuple(c.structural_key() for c in node.children())
            nodes[key] = node
            children[key] = child_keys
            tables = set()
            if isinstance(node, (Scan, IndexScan, FilterScan)):
                tables.add(node.table)
            for child_key in child_keys:
                tables |= depends_on[child_key]
            depends_on[key] = frozenset(tables)
            order.append(key)  # post-order ⇒ children first
            stack.pop()
        return root.structural_key()

    roots = tuple(visit(plan) for plan in plans)
    tree_nodes = sum(plan.count_nodes() for plan in plans)
    return PlanDAG(
        nodes=nodes,
        children=children,
        depends_on=depends_on,
        roots=roots,
        order=tuple(order),
        tree_nodes=tree_nodes,
    )


def _push_selects_into_scans(dag: PlanDAG) -> PlanDAG:
    """Rewrite exclusive Select→Scan pairs into FilterScan nodes."""
    parents: dict[tuple, set[tuple]] = {key: set() for key in dag.nodes}
    for key, child_keys in dag.children.items():
        for child_key in child_keys:
            parents[child_key].add(key)
    root_keys = set(dag.roots)

    fused: dict[tuple, FilterScan] = {}    # select key -> its replacement
    replaces: dict[tuple, tuple[tuple, ...]] = {}
    for key, node in dag.nodes.items():
        if not isinstance(node, Select):
            continue
        (scan_key,) = dag.children[key]
        scan = dag.nodes[scan_key]
        if not isinstance(scan, Scan):
            continue
        if scan_key in root_keys or parents[scan_key] != {key}:
            continue
        fused[key] = FilterScan(scan.table, node.predicate)
        replaces[fused[key].structural_key()] = (key, scan_key)
    if not fused:
        return dag

    remap = {key: fs.structural_key() for key, fs in fused.items()}
    absorbed = {scan_key for _, scan_key in replaces.values()}
    nodes: dict[tuple, PlanNode] = {}
    children: dict[tuple, tuple[tuple, ...]] = {}
    depends_on: dict[tuple, frozenset[str]] = {}
    order: list[tuple] = []
    for key in dag.order:
        if key in absorbed:
            continue
        if key in fused:
            fs_key = remap[key]
            nodes[fs_key] = fused[key]
            children[fs_key] = ()
            depends_on[fs_key] = dag.depends_on[key]
            order.append(fs_key)
            continue
        nodes[key] = dag.nodes[key]
        children[key] = tuple(
            remap.get(k, k) for k in dag.children[key]
        )
        depends_on[key] = dag.depends_on[key]
        order.append(key)
    return PlanDAG(
        nodes=nodes,
        children=children,
        depends_on=depends_on,
        roots=tuple(remap.get(k, k) for k in dag.roots),
        order=tuple(order),
        tree_nodes=dag.tree_nodes,
        replaces=replaces,
    )
