"""The Junction Tree algorithm (Algorithm 5).

Transforms an arbitrary (possibly cyclic) schema of functional
relations into an *acyclic* one:

1. build the variable graph of the schema;
2. triangulate it (Algorithm 6);
3. each maximal clique of the chordal graph becomes a relation of the
   new schema;
4. assign every original relation to a clique covering its scope;
5. each clique relation is the product join of its assigned relations
   (cliques with no assignment get the multiplicative-identity
   relation over their scope).

The clique relations are connected by a maximum-weight spanning tree
over shared-variable counts — a junction tree by construction — so
Belief Propagation runs correctly on the result (Theorem 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import networkx as nx

from repro.data.builders import identity_relation
from repro.data.domain import VariableSet
from repro.data.relation import FunctionalRelation
from repro.errors import MPFError, WorkloadError
from repro.plans.runtime import ExecutionContext, evaluate
from repro.semiring.base import Semiring
from repro.storage.iostats import IOStats
from repro.workload.bp import join_chain, named_relations
from repro.workload.graphs import (
    has_running_intersection,
    maximum_weight_spanning_tree,
    variable_graph,
)
from repro.workload.triangulate import TriangulationResult, triangulate

__all__ = ["JunctionTree", "build_junction_tree"]


@dataclass
class JunctionTree:
    """An acyclic clique schema with materialized potentials."""

    cliques: dict[str, FunctionalRelation]
    """Clique name → materialized clique relation (potential)."""
    tree: nx.Graph
    """Junction tree over clique names; edges carry ``separator`` sets."""
    assignment: dict[str, str]
    """Original relation name → clique name it was folded into."""
    triangulation: TriangulationResult
    stats: IOStats | None = None
    """Simulated IO of materializing the clique potentials."""

    @property
    def schema(self) -> dict[str, tuple[str, ...]]:
        return {
            name: rel.var_names for name, rel in self.cliques.items()
        }

    def cliques_with_variable(self, var_name: str) -> tuple[str, ...]:
        return tuple(
            name
            for name, rel in self.cliques.items()
            if var_name in rel.variables
        )

    def validate(self) -> None:
        """Assert the running intersection property holds."""
        if not has_running_intersection(self.tree, self.schema):
            raise WorkloadError(
                "junction tree lost the running intersection property"
            )


def build_junction_tree(
    relations: Sequence[FunctionalRelation],
    semiring: Semiring,
    order: Sequence[str] | None = None,
    context: ExecutionContext | None = None,
) -> JunctionTree:
    """Algorithm 5 over materialized functional relations.

    ``order`` optionally fixes (a prefix of) the triangulation order —
    Figure 14 triangulates the cyclic supply-chain schema with
    ``tid, sid``; min-fill completes it.

    Clique potentials are materialized by running product-join plans
    through the physical runtime (step 5), so construction pays
    simulated IO; ``context`` lets the caller share a buffer pool and
    stats clock across junction-tree construction and later BP passes.
    """
    if not relations:
        raise WorkloadError("junction tree over an empty schema")
    by_name = named_relations(relations)
    schema = {name: rel.var_names for name, rel in by_name.items()}

    graph = variable_graph(schema)
    triangulation = triangulate(graph, order=order)

    clique_scopes = list(triangulation.maximal_cliques)
    clique_names = [f"C{i}" for i in range(len(clique_scopes))]
    scope_of = dict(zip(clique_names, clique_scopes))

    # Step 4: assign relations to covering cliques (smallest first for
    # tighter potentials; existence is guaranteed by triangulation).
    assignment: dict[str, str] = {}
    for rel_name, rel in by_name.items():
        scope = frozenset(rel.var_names)
        candidates = [
            c for c in clique_names if scope <= scope_of[c]
        ]
        if not candidates:
            raise WorkloadError(
                f"no clique covers relation {rel_name!r} with scope "
                f"{sorted(scope)} — triangulation is broken"
            )
        assignment[rel_name] = min(
            candidates, key=lambda c: (len(scope_of[c]), c)
        )

    # Step 5: materialize clique potentials through the runtime.
    ctx = context or ExecutionContext({}, semiring)
    for name, rel in by_name.items():
        ctx.bind(name, rel)

    variables_by_name = {}
    for rel in by_name.values():
        for v in rel.variables:
            variables_by_name.setdefault(v.name, v)

    cliques: dict[str, FunctionalRelation] = {}
    for clique_name in clique_names:
        member_names = [
            r for r, c in assignment.items() if c == clique_name
        ]
        scope_vars = VariableSet.of(
            [variables_by_name[v] for v in sorted(scope_of[clique_name])]
        )
        member_scope = frozenset(
            v.name
            for r in member_names
            for v in by_name[r].variables
        )
        # The assigned members may not mention every clique variable
        # (e.g. a clique {pid, sid, cid} whose only member is
        # contracts(pid, sid)); pad with the identity over the missing
        # variables so messages on any separator can flow through.
        missing = [
            v for v in scope_vars if v.name not in member_scope
        ]
        inputs = list(member_names)
        if missing:
            pad_name = f"{clique_name}.pad"
            ctx.bind(
                pad_name,
                identity_relation(
                    missing, semiring.one, dtype=semiring.dtype
                ).with_name(pad_name),
            )
            inputs.append(pad_name)
        plan = join_chain(inputs)
        try:
            potential = evaluate(plan, ctx).with_name(clique_name)
        except MPFError as exc:
            exc.add_context(
                f"materializing clique {clique_name} "
                f"({', '.join(sorted(scope_of[clique_name]))}) "
                f"from {sorted(member_names)}"
            )
            raise
        ctx.bind(clique_name, potential)
        ctx.count("junction.cliques")
        cliques[clique_name] = potential

    # Junction tree over the cliques.
    clique_graph = nx.Graph()
    clique_graph.add_nodes_from(clique_names)
    for i, a in enumerate(clique_names):
        for b in clique_names[i + 1:]:
            shared = scope_of[a] & scope_of[b]
            if shared:
                clique_graph.add_edge(
                    a, b, weight=len(shared), separator=shared
                )
    tree = maximum_weight_spanning_tree(clique_graph)
    tree.add_nodes_from(clique_names)

    result = JunctionTree(
        cliques=cliques,
        tree=tree,
        assignment=assignment,
        triangulation=triangulation,
        stats=ctx.stats,
    )
    result.validate()
    return result
