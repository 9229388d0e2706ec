"""Unit tests for triangulation (Algorithm 6) and Figure 14."""

import networkx as nx
import pytest

from repro.errors import WorkloadError
from repro.workload import triangulate, variable_graph

CYCLIC_SCHEMA = {
    "contracts": ("pid", "sid"),
    "warehouses": ("wid", "cid"),
    "transporters": ("tid",),
    "location": ("pid", "wid"),
    "ctdeals": ("cid", "tid"),
    "stdeals": ("sid", "tid"),
}


@pytest.fixture
def cyclic_graph():
    return variable_graph(CYCLIC_SCHEMA)


class TestFigure14:
    """The paper triangulates the cyclic supply chain with the vertex
    order tid, sid, producing fill edges (cid, sid) and (cid, pid)."""

    def test_fill_edges(self, cyclic_graph):
        result = triangulate(cyclic_graph, order=["tid", "sid"])
        fills = {frozenset(e) for e in result.fill_edges}
        assert frozenset(("cid", "sid")) in fills
        assert frozenset(("cid", "pid")) in fills

    def test_chordal_result(self, cyclic_graph):
        result = triangulate(cyclic_graph, order=["tid", "sid"])
        assert nx.is_chordal(result.chordal_graph)

    def test_figure15_cliques(self, cyclic_graph):
        """The maximal cliques are the Figure 15 junction tree nodes:
        (sid, cid, tid), (pid, sid, cid), (pid, wid, cid)."""
        result = triangulate(cyclic_graph, order=["tid", "sid"])
        maximal = {frozenset(c) for c in result.maximal_cliques}
        assert frozenset(("sid", "cid", "tid")) in maximal
        assert frozenset(("pid", "sid", "cid")) in maximal
        assert frozenset(("pid", "wid", "cid")) in maximal


class TestMechanics:
    def test_already_chordal_no_fill(self):
        g = nx.path_graph(["a", "b", "c", "d"])
        result = triangulate(g)
        assert result.fill_edges == ()
        assert result.induced_width == 1

    def test_cycle_needs_fill(self):
        g = nx.cycle_graph(["a", "b", "c", "d"])
        result = triangulate(g)
        assert len(result.fill_edges) == 1
        assert nx.is_chordal(result.chordal_graph)

    def test_order_covers_all_vertices(self, cyclic_graph):
        result = triangulate(cyclic_graph, order=["tid", "sid"])
        assert set(result.order) == set(cyclic_graph.nodes)
        assert result.order[:2] == ("tid", "sid")

    def test_cliques_in_elimination_order(self, cyclic_graph):
        result = triangulate(cyclic_graph, order=["tid", "sid"])
        assert result.cliques[0] == frozenset(("tid", "cid", "sid"))

    def test_unknown_vertex_rejected(self, cyclic_graph):
        with pytest.raises(WorkloadError):
            triangulate(cyclic_graph, order=["ghost"])

    def test_duplicate_vertex_rejected(self, cyclic_graph):
        with pytest.raises(WorkloadError):
            triangulate(cyclic_graph, order=["tid", "tid"])

    def test_min_fill_optimal_on_cycle(self):
        # On a plain cycle, min-fill adds exactly n-3 chords.
        g = nx.cycle_graph(list("abcdef"))
        result = triangulate(g)
        assert len(result.fill_edges) == 3

    def test_induced_width_single_vertex(self):
        g = nx.Graph()
        g.add_node("a")
        result = triangulate(g)
        assert result.induced_width == 0
