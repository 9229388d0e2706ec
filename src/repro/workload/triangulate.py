"""Triangulation of variable graphs (Algorithm 6).

Eliminating a vertex connects all of its remaining neighbors and
removes it; the edges added ("fill-in") make the graph chordal.  Each
elimination step defines a clique — the vertex plus its neighbors at
elimination time — and the maximal ones become the relations of the
junction-tree schema (Algorithm 5).

The order matters enormously: the minimum-induced-width order is
NP-complete to find (Theorem 9 / Yannakakis), so we support explicit
orders (the paper's Figure 14 uses ``tid, sid``) completed by the
standard min-fill greedy heuristic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import networkx as nx

from repro.errors import WorkloadError

__all__ = ["TriangulationResult", "triangulate", "elimination_cliques"]


@dataclass
class TriangulationResult:
    """Chordal graph plus the artifacts the junction tree needs."""

    chordal_graph: nx.Graph
    order: tuple[str, ...]
    fill_edges: tuple[tuple[str, str], ...]
    cliques: tuple[frozenset[str], ...]
    """Elimination cliques ({v} ∪ neighbors at elimination), in order."""

    @property
    def maximal_cliques(self) -> tuple[frozenset[str], ...]:
        """Elimination cliques not contained in another (dedup included)."""
        out: list[frozenset[str]] = []
        for clique in sorted(self.cliques, key=len, reverse=True):
            if not any(clique <= kept for kept in out):
                out.append(clique)
        return tuple(out)

    @property
    def induced_width(self) -> int:
        """Largest clique size minus one."""
        return max((len(c) for c in self.cliques), default=1) - 1


def _min_fill_vertex(work: nx.Graph) -> str:
    """The vertex whose elimination adds the fewest fill edges (ties go
    to the first name in sorted order)."""
    return min(
        sorted(work.nodes),
        key=lambda v: sum(
            not work.has_edge(a, b)
            for a, b in combinations(work.neighbors(v), 2)
        ),
    )


def triangulate(
    graph: nx.Graph,
    order: Sequence[str] | None = None,
) -> TriangulationResult:
    """Algorithm 6: eliminate vertices, connecting their neighbors.

    ``order`` may be a partial prefix (like Figure 14's ``tid, sid``);
    remaining vertices are chosen by min-fill.
    """
    work = graph.copy()
    chordal = graph.copy()
    pending = list(order or ())
    unknown = [v for v in pending if v not in graph]
    if unknown:
        raise WorkloadError(f"order mentions unknown vertices {unknown}")

    final_order: list[str] = []
    fill_edges: list[tuple[str, str]] = []
    cliques: list[frozenset[str]] = []

    while work.number_of_nodes():
        if pending:
            v = pending.pop(0)
            if v not in work:
                raise WorkloadError(f"vertex {v!r} given twice in order")
        else:
            v = _min_fill_vertex(work)
        neighbors = list(work.neighbors(v))
        cliques.append(frozenset([v, *neighbors]))
        for i, a in enumerate(neighbors):
            for b in neighbors[i + 1:]:
                if not work.has_edge(a, b):
                    work.add_edge(a, b)
                    chordal.add_edge(a, b)
                    fill_edges.append((a, b))
        work.remove_node(v)
        final_order.append(v)

    return TriangulationResult(
        chordal_graph=chordal,
        order=tuple(final_order),
        fill_edges=tuple(fill_edges),
        cliques=tuple(cliques),
    )


def elimination_cliques(
    graph: nx.Graph, order: Sequence[str]
) -> tuple[frozenset[str], ...]:
    """Just the cliques induced by a full elimination order."""
    return triangulate(graph, order=order).cliques
