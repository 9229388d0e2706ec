"""Evaluation-plan trees.

A plan is a tree of Scan / Select / ProductJoin / GroupBy nodes — the
node vocabulary of the GDL plan space (Definition 4): inner nodes are
product joins or GroupBys, and every plan is equivalent to the naive
plan with only joins and a single GroupBy at the root.

Nodes are structural; estimated statistics and costs are attached by
:func:`repro.plans.annotate.annotate` so the same tree can be re-costed
under different cost models.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from repro.catalog.statistics import TableStats
from repro.errors import PlanError

__all__ = [
    "PlanNode",
    "Scan",
    "IndexScan",
    "FilterScan",
    "Select",
    "ProductJoin",
    "GroupBy",
    "SemiJoin",
]


# Structural keys are interned: equal keys are the *same* tuple
# object.  Nested-tuple equality recurses per level, so comparing two
# independently built deep keys (thousands of operators) would blow
# the C stack; with interning every shared child compares by identity
# and deep-plan CSE across separately built trees stays flat.
_KEY_CACHE: dict[tuple, tuple] = {}


class PlanNode:
    """Base plan node with optimizer annotations."""

    __slots__ = ("stats", "op_cost", "total_cost", "_structural_key")

    def __init__(self):
        self.stats: TableStats | None = None
        self.op_cost: float | None = None
        self.total_cost: float | None = None
        self._structural_key: tuple | None = None

    def children(self) -> tuple["PlanNode", ...]:
        return ()

    def label(self) -> str:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Structural identity
    # ------------------------------------------------------------------
    def structural_key(self) -> tuple:
        """Canonical hashable key: equal keys ⇔ structurally equal plans.

        The key covers everything execution depends on (node type,
        table names, predicates, group lists, physical methods) and
        nothing else; annotations are ignored.  It is the identity
        used by :func:`repro.plans.lower.lower` for common-subexpression
        elimination and by the runtime memo table.  Cached after first
        computation — plan trees must not be mutated afterwards.
        """
        if self._structural_key is None:
            # Fill caches bottom-up with an explicit stack: a deep
            # plan (a long Select/GroupBy chain) must not hit the
            # interpreter recursion limit.  ``_key`` may call
            # ``child.structural_key()`` freely — every child is
            # cached by the time its parent is keyed.
            stack = [self]
            while stack:
                node = stack[-1]
                if node._structural_key is not None:
                    stack.pop()
                    continue
                pending = [
                    c for c in node.children()
                    if c._structural_key is None
                ]
                if pending:
                    stack.extend(pending)
                else:
                    key = node._key()
                    node._structural_key = _KEY_CACHE.setdefault(key, key)
                    stack.pop()
        return self._structural_key

    def _key(self) -> tuple:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # Tree utilities
    # ------------------------------------------------------------------
    def walk(self) -> Iterator["PlanNode"]:
        """Pre-order traversal (iterative: safe on deep trees)."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children()))

    def base_tables(self) -> tuple[str, ...]:
        """Names of all scanned base tables, left to right."""
        return tuple(
            node.table
            for node in self.walk()
            if isinstance(node, (Scan, IndexScan, FilterScan))
        )

    def count_nodes(self, node_type=None) -> int:
        return sum(
            1
            for node in self.walk()
            if node_type is None or isinstance(node, node_type)
        )

    def is_linear(self) -> bool:
        """Left-deep check: every join's right input contains one scan.

        The paper's linear plans join one base relation at a time
        (possibly through Select/GroupBy wrappers); nonlinear (bushy)
        plans may join two composite subplans (Section 5.1).
        """
        for node in self.walk():
            if isinstance(node, ProductJoin):
                if len(node.right.base_tables()) != 1:
                    return False
        return True

    def output_variables(self) -> tuple[str, ...]:
        """Variables of the node's result (requires annotation or scans)."""
        if self.stats is not None:
            return self.stats.variables
        raise PlanError("plan not annotated; call annotate() first")

    def __repr__(self) -> str:
        from repro.plans.printer import explain

        return explain(self)


class Scan(PlanNode):
    """Sequential scan of a named base relation."""

    __slots__ = ("table",)

    def __init__(self, table: str):
        super().__init__()
        self.table = table

    def label(self) -> str:
        return f"Scan({self.table})"

    def _key(self) -> tuple:
        return ("scan", self.table)


class IndexScan(PlanNode):
    """Equality access via a hash index: probe instead of scan.

    ``predicate`` must be a single-variable equality on an indexed
    variable of the base relation; the optimizer only emits this node
    when the catalog holds a matching index and the cost model favors
    the probe over Select(Scan).
    """

    __slots__ = ("table", "predicate")

    def __init__(self, table: str, predicate: Mapping[str, object]):
        super().__init__()
        if len(predicate) != 1:
            raise PlanError(
                "IndexScan takes exactly one equality predicate"
            )
        self.table = table
        self.predicate = dict(predicate)

    @property
    def variable(self) -> str:
        return next(iter(self.predicate))

    def label(self) -> str:
        (var_name, value), = self.predicate.items()
        return f"IndexScan({self.table}, {var_name}={value})"

    def _key(self) -> tuple:
        return ("index_scan", self.table, tuple(sorted(self.predicate.items())))


class FilterScan(PlanNode):
    """Fused Select→Scan: evaluate equality predicates during the scan.

    Produced by :func:`repro.plans.lower.lower` wherever a ``Select``
    sits directly over a ``Scan`` that no other node shares: the scan's
    single pass evaluates the predicate in-stream, so the selection's
    separate full-input pass (and its materialized intermediate)
    disappears.  Never emitted by the optimizer itself —
    it is a lowering rewrite, which keeps plan trees, ``EXPLAIN``
    output, and the plan cache in the unfused vocabulary.
    """

    __slots__ = ("table", "predicate")

    def __init__(self, table: str, predicate: Mapping[str, object]):
        super().__init__()
        if not predicate:
            raise PlanError("FilterScan requires a non-empty predicate")
        self.table = table
        self.predicate = dict(predicate)

    def label(self) -> str:
        preds = ", ".join(f"{k}={v}" for k, v in self.predicate.items())
        return f"FilterScan({self.table}, {preds})"

    def _key(self) -> tuple:
        return (
            "filter_scan",
            self.table,
            tuple(sorted(self.predicate.items())),
        )


class Select(PlanNode):
    """Equality selection ``{variable: value}`` on a child plan."""

    __slots__ = ("child", "predicate")

    def __init__(self, child: PlanNode, predicate: Mapping[str, object]):
        super().__init__()
        if not predicate:
            raise PlanError("Select requires a non-empty predicate")
        self.child = child
        self.predicate = dict(predicate)

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        preds = ", ".join(f"{k}={v}" for k, v in self.predicate.items())
        return f"Select({preds})"

    def _key(self) -> tuple:
        return (
            "select",
            tuple(sorted(self.predicate.items())),
            self.child.structural_key(),
        )


class ProductJoin(PlanNode):
    """Product join ``left ⋈* right`` (Definition 2).

    ``method`` names the physical algorithm ("hash" or "sort_merge");
    the default matches the executor's hash join, and
    :func:`repro.plans.annotate.annotate` can re-choose it per the
    cost model (``choose_methods=True``).
    """

    __slots__ = ("left", "right", "method")

    JOIN_METHODS = ("hash", "sort_merge")

    def __init__(self, left: PlanNode, right: PlanNode,
                 method: str = "hash"):
        super().__init__()
        self.left = left
        self.right = right
        self.method = method

    def children(self) -> tuple[PlanNode, ...]:
        return (self.left, self.right)

    def label(self) -> str:
        suffix = "" if self.method == "hash" else f" [{self.method}]"
        return f"ProductJoin{suffix}"

    def _key(self) -> tuple:
        return (
            "product_join",
            self.method,
            self.left.structural_key(),
            self.right.structural_key(),
        )


class GroupBy(PlanNode):
    """GroupBy on the named variables, aggregating with the semiring.

    ``method`` is "sort" (n log n) or "hash" (linear, memory-bound).
    """

    __slots__ = ("child", "group_names", "method")

    GROUP_METHODS = ("sort", "hash")

    def __init__(self, child: PlanNode, group_names, method: str = "sort"):
        super().__init__()
        self.child = child
        self.group_names = tuple(group_names)
        self.method = method

    def children(self) -> tuple[PlanNode, ...]:
        return (self.child,)

    def label(self) -> str:
        return f"GroupBy({', '.join(self.group_names) or '∅'})"

    def _key(self) -> tuple:
        return (
            "group_by",
            self.group_names,
            self.method,
            self.child.structural_key(),
        )


class SemiJoin(PlanNode):
    """Semijoin reduction ``target ⋉ source`` (Definition 6).

    ``kind`` selects the message direction: ``"product"`` is the
    forward message ``t ⋉* s`` (absorb the source's marginal) and
    ``"update"`` the backward message ``t ⋉ s`` (absorb while dividing
    out the target's own marginal; needs semiring division).  These are
    the physical operators of the workload machinery — BP passes,
    VE-cache calibration, and evidence absorption all compile to plans
    of SemiJoins over cached tables.
    """

    __slots__ = ("target", "source", "kind")

    KINDS = ("product", "update")

    def __init__(self, target: PlanNode, source: PlanNode,
                 kind: str = "product"):
        super().__init__()
        if kind not in self.KINDS:
            raise PlanError(f"unknown semijoin kind {kind!r}")
        self.target = target
        self.source = source
        self.kind = kind

    def children(self) -> tuple[PlanNode, ...]:
        return (self.target, self.source)

    def label(self) -> str:
        symbol = "⋉*" if self.kind == "product" else "⋉"
        return f"SemiJoin[{symbol}]"

    def _key(self) -> tuple:
        return (
            "semijoin",
            self.kind,
            self.target.structural_key(),
            self.source.structural_key(),
        )
