"""Belief Propagation as a semijoin program (Algorithm 4, Appendix A).

BP reduces each functional relation with respect to the others using
the product / update semijoins of Definition 6, so that afterwards
every relation satisfies the workload-correctness invariant
(Definition 5): an MPF query on any of its variables answered from the
local table equals the answer computed from the full view
(Theorem 6 / Pearl).

Two entry points:

* :func:`belief_propagation` — the *correct* program: messages flow
  only along a junction tree of the schema (collect toward a root with
  product semijoins, then distribute back with update semijoins).
  Requires the schema to be acyclic — Theorem 7 guarantees the tree
  exists exactly then — and raises :class:`AcyclicityError` otherwise,
  because running the program on a cyclic schema multiplies some
  measure in twice (the paper walks through this failure on the
  ``stdeals`` schema, Figure 12).

* :func:`bp_program_literal` — Algorithm 4 exactly as printed: one
  chosen table order, reductions between *all* pairs of relations that
  share variables.  On the chain-shaped supply-chain schema with the
  Figure 11 order this coincides with the junction-tree program; on
  cyclic schemas (or unsuitable orders) it double-counts — we keep it
  so tests can demonstrate the Figure 12 failure mode.

Both are "build a :class:`BPStep` list, hand it to the runner".  The
program builders — :func:`collect` / :func:`distribute` from a root of
a forest, :func:`literal_program` for Algorithm 4's all-pairs order —
are pure functions of the schema; :func:`run_program` is the one place
a message is sent (semijoin evaluated, target rebound, ``bp.messages``
counted, error context attached).  The VE-cache backward pass, its
evidence protocol and the alternate-measure patch
(:mod:`repro.workload.vecache`) are distribute programs through the
same runner (Theorem 10).

The backward pass needs semiring division; for division-free semirings
with idempotent multiplication (boolean), re-absorption is harmless and
the product semijoin is used instead (:func:`backward_kind`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce as _reduce
from typing import Mapping, Sequence

import networkx as nx

from repro.algebra.aggregate import marginalize
from repro.algebra.join import product_join
from repro.data.relation import FunctionalRelation
from repro.errors import (
    AcyclicityError,
    MPFError,
    ResourceError,
    SemiringError,
    WorkloadError,
)
from repro.plans.nodes import PlanNode, ProductJoin, Scan, SemiJoin
from repro.plans.runtime import ExecutionContext, evaluate
from repro.semiring.base import Semiring
from repro.storage.iostats import IOStats
from repro.workload.graphs import junction_tree_of_schema

__all__ = [
    "BPStep",
    "BPFailure",
    "BPResult",
    "backward_kind",
    "collect",
    "distribute",
    "literal_program",
    "run_program",
    "belief_propagation",
    "bp_program_literal",
    "satisfies_workload_invariant",
]


@dataclass(frozen=True)
class BPStep:
    """One semijoin-program step, e.g. ``ct ⋉* t`` (Figure 11)."""

    target: str
    source: str
    kind: str  # "product" (⋉*, forward) or "update" (⋉, backward)

    def __str__(self) -> str:
        symbol = "⋉*" if self.kind == "product" else "⋉"
        return f"{self.target} {symbol} {self.source}"


@dataclass(frozen=True)
class BPFailure:
    """One message that could not be delivered (``keep_going`` mode)."""

    step: BPStep
    error: MPFError

    def __str__(self) -> str:
        return f"{self.step}: {self.error}"


@dataclass
class BPResult:
    """Updated relations plus the program that produced them."""

    tables: dict[str, FunctionalRelation]
    program: list[BPStep] = field(default_factory=list)
    tree: nx.Graph | None = None
    stats: IOStats | None = None
    """Simulated IO of running the program through the runtime."""
    failures: list[BPFailure] = field(default_factory=list)
    """Messages skipped under ``keep_going=True``; empty on a clean run.

    A non-empty list means the workload invariant (Definition 5) is NOT
    restored for tables downstream of the failed messages — callers
    must check :attr:`ok` before trusting local answers.
    """

    @property
    def ok(self) -> bool:
        return not self.failures

    def program_listing(self) -> str:
        """Figure 11-style listing, one numbered step per line."""
        return "\n".join(
            f"{i + 1}. {step}" for i, step in enumerate(self.program)
        )


def named_relations(
    relations: Sequence[FunctionalRelation] | Mapping[str, FunctionalRelation],
) -> dict[str, FunctionalRelation]:
    """Name → relation; an unnamed relation is ``s{i}`` by position."""
    if isinstance(relations, Mapping):
        return dict(relations)
    out = {rel.name or f"s{i}": rel for i, rel in enumerate(relations)}
    if len(out) != len(relations):
        raise WorkloadError("relations must have unique names")
    return out


def join_chain(names: Sequence[str]) -> PlanNode:
    """Left-deep ProductJoin plan over named (bound) relations."""
    plan: PlanNode = Scan(names[0])
    for name in names[1:]:
        plan = ProductJoin(plan, Scan(name))
    return plan


def backward_kind(semiring: Semiring) -> str:
    """SemiJoin kind of an update message (idempotent-times fallback)."""
    if semiring.supports_division:
        return "update"
    if semiring.idempotent_times:
        return "product"
    raise SemiringError(
        f"semiring {semiring.name!r} supports neither division nor "
        "idempotent multiplication; BP's backward pass is undefined"
    )


# ----------------------------------------------------------------------
# Program builders: pure functions of a forest / schema, no data touched
# ----------------------------------------------------------------------
def collect(forest: nx.Graph, root: str) -> list[BPStep]:
    """Product messages toward ``root``: children before parents."""
    parent_of = {child: parent for parent, child in nx.bfs_edges(forest, root)}
    return [
        BPStep(target=parent_of[node], source=node, kind="product")
        for node in nx.dfs_postorder_nodes(forest, source=root)
        if node != root
    ]


def distribute(forest: nx.Graph, root: str) -> list[BPStep]:
    """Update messages away from ``root``, breadth first: a table hears
    from its parent only after the parent has heard from its own."""
    return [
        BPStep(target=child, source=parent, kind="update")
        for parent, child in nx.bfs_edges(forest, root)
    ]


def literal_program(
    scopes: Mapping[str, frozenset[str]], order: Sequence[str]
) -> list[BPStep]:
    """Algorithm 4's all-pairs order over tables sharing variables."""
    sharing = [
        (i, j)
        for j in range(len(order))
        for i in range(j)
        if scopes[order[i]] & scopes[order[j]]
    ]
    # Forward: each table absorbs every earlier sharing table; backward:
    # the same pairs reversed, each earlier table absorbs the later one.
    return [
        BPStep(target=order[j], source=order[i], kind="product")
        for i, j in sharing
    ] + [
        BPStep(target=order[i], source=order[j], kind="update")
        for i, j in reversed(sharing)
    ]


def run_program(
    ctx: ExecutionContext,
    tables: dict[str, FunctionalRelation],
    program: Sequence[BPStep],
    semiring: Semiring,
    failures: list[BPFailure] | None = None,
) -> None:
    """Send every message of ``program``, in order, through the runtime.

    The one place a §6 message is sent: the step's semijoin is
    evaluated, its result (named after the target) rebound in ``ctx``
    and stored in ``tables``, and counted in ``bp.messages``.  Update steps run as
    :func:`backward_kind` of ``semiring`` says.

    Any :class:`MPFError` is attributed to the message it interrupted
    and counted in ``bp.failures``.  With a ``failures`` list the error
    is recorded there and the step skipped (the target keeps its
    pre-message table) — except :class:`ResourceError`, which always
    propagates: once the query's deadline is blown or it is cancelled,
    every later message would fail the same way.
    """
    kinds = {"product": "product", "update": backward_kind(semiring)}
    for step in program:
        plan = SemiJoin(
            Scan(step.target), Scan(step.source), kinds[step.kind]
        )
        try:
            result = evaluate(plan, ctx)
        except MPFError as exc:
            exc.add_context(f"BP message {step}")
            ctx.count("bp.failures")
            if failures is None or isinstance(exc, ResourceError):
                raise
            failures.append(BPFailure(step=step, error=exc))
            continue
        if result.name != step.target:
            # A semijoin's result takes its target relation's name, so
            # this only fires for a table bound under another name;
            # renaming regardless would gather a deferred join's
            # columns for nothing.
            result = result.with_name(step.target)
        ctx.count("bp.messages", kind=step.kind)
        ctx.bind(step.target, result)
        tables[step.target] = result


def _run_bp(tables, semiring, program, tree, context, keep_going) -> BPResult:
    """Bind ``tables``, run ``program`` over them, package the result."""
    ctx = context or ExecutionContext({}, semiring)
    for name, rel in tables.items():
        ctx.bind(name, rel)
    failures: list[BPFailure] = []
    run_program(
        ctx, tables, program, semiring,
        failures=failures if keep_going else None,
    )
    return BPResult(
        tables=tables, program=program, tree=tree, stats=ctx.stats,
        failures=failures,
    )


def belief_propagation(
    relations: Sequence[FunctionalRelation] | Mapping[str, FunctionalRelation],
    semiring: Semiring,
    tree: nx.Graph | None = None,
    root: str | None = None,
    context: ExecutionContext | None = None,
    keep_going: bool = False,
) -> BPResult:
    """Collect/distribute BP over a junction tree of the schema.

    ``tree`` may supply a precomputed junction tree (nodes are relation
    names); otherwise one is derived, and :class:`AcyclicityError` is
    raised when none exists (cyclic schema — run the Junction Tree
    algorithm first).  ``root`` defaults to the last relation, which on
    the supply-chain schema with its natural order reproduces the
    Figure 11 program exactly.

    Failures are attributed per message: an error raised while running
    step ``ct ⋉* t`` carries that step in its context.  With
    ``keep_going=True`` storage/query failures skip the affected
    message and are collected on :attr:`BPResult.failures` instead of
    aborting the program (resource errors — timeout, cancellation —
    still abort: they would fail every remaining message too).

    A ``context`` with ``workers > 1`` runs the messages on the
    modeled scheduler pool through the runtime's table-writer
    dependency tracking: a message scanning a table rebound by an
    earlier message depends on its producer, so messages within one
    tree level that touch *different* targets overlap on the modeled
    clock while same-target chains stay serialized — results are
    identical for every worker count.
    """
    tables = named_relations(relations)
    if tree is None:
        tree = junction_tree_of_schema(
            {name: rel.var_names for name, rel in tables.items()}
        )
        if tree is None:
            raise AcyclicityError(
                "schema is cyclic: no spanning tree has the running "
                "intersection property (Theorem 7); build a junction "
                "tree (Algorithm 5) first"
            )
    root = root or list(tables)[-1]
    if root not in tables:
        raise WorkloadError(f"unknown root table {root!r}")
    program: list[BPStep] = []
    for component in nx.connected_components(tree):
        component_root = root if root in component else sorted(component)[0]
        program += collect(tree, component_root)
        program += distribute(tree, component_root)
    return _run_bp(tables, semiring, program, tree, context, keep_going)


def bp_program_literal(
    relations: Sequence[FunctionalRelation] | Mapping[str, FunctionalRelation],
    semiring: Semiring,
    order: Sequence[str],
    context: ExecutionContext | None = None,
    keep_going: bool = False,
) -> BPResult:
    """Algorithm 4 verbatim: all sharing pairs, given table order.

    No acyclicity check — this is the version the paper uses to show
    the double-counting failure on the cyclic ``stdeals`` schema
    (Figure 12).  Correct only when reductions between sharing pairs
    coincide with a junction-tree traversal (e.g. the chain schema of
    Figure 11).
    """
    tables = named_relations(relations)
    order = list(order)
    if set(order) != set(tables):
        raise WorkloadError(
            f"order {order} must be a permutation of {sorted(tables)}"
        )
    scopes = {name: frozenset(rel.var_names) for name, rel in tables.items()}
    return _run_bp(
        tables, semiring, literal_program(scopes, order), None, context,
        keep_going,
    )


def satisfies_workload_invariant(
    updated: Mapping[str, FunctionalRelation],
    base_relations: Sequence[FunctionalRelation],
    semiring: Semiring,
    rtol: float = 1e-9,
) -> bool:
    """Check Definition 5 by brute force (test-sized inputs only).

    For every updated table and every variable it contains, the
    single-variable MPF query answered locally must match the one
    answered from the materialized view.
    """
    joint = _reduce(
        lambda a, b: product_join(a, b, semiring), base_relations
    )
    for table in updated.values():
        for v in table.var_names:
            local = marginalize(table, [v], semiring)
            expected = marginalize(joint, [v], semiring)
            if not local.equals(
                expected, semiring, ignore_zero_rows=True
            ):
                return False
    return True
