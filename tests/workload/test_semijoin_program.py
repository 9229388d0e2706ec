"""Section 6 as one semijoin program.

Every producer of calibrated tables — tree BP, junction tree + BP,
the VE-cache build and its evidence protocol — builds a
:class:`BPStep` list and sends it through
:func:`repro.workload.bp.run_program`.  One parametrised Definition 5
check covers them all, on every semiring family the runner serves
(division, log-space, tropical, and the boolean product-semijoin
fallback); the rest pins what the one runner owes each caller:
listing, counters, error context.
"""

import networkx as nx
import numpy as np
import pytest

from repro.algebra import restrict
from repro.data import complete_relation, var
from repro.errors import SemiringError, TransientStorageError
from repro.obs.metrics import MetricsRegistry
from repro.plans.runtime import ExecutionContext
from repro.semiring import BOOLEAN, COUNTING, LOG_PROB, MIN_SUM, SUM_PRODUCT
from repro.storage.faults import Faults
from repro.workload import (
    belief_propagation,
    bp_program_literal,
    build_junction_tree,
    build_ve_cache,
    satisfies_workload_invariant,
)
from repro.workload.bp import (
    BPStep,
    backward_kind,
    collect,
    distribute,
    literal_program,
)

SEMIRINGS = [SUM_PRODUCT, LOG_PROB, MIN_SUM, BOOLEAN]
FIGURE11_ORDER = [
    "transporters", "ctdeals", "warehouses", "location", "contracts",
]
FIGURE11 = [
    "ctdeals ⋉* transporters",
    "warehouses ⋉* ctdeals",
    "location ⋉* warehouses",
    "contracts ⋉* location",
    "location ⋉ contracts",
    "warehouses ⋉ location",
    "ctdeals ⋉ warehouses",
    "transporters ⋉ ctdeals",
]


def _in_semiring(relations, semiring):
    """The same relations with measures in ``semiring``'s carrier."""
    if semiring is LOG_PROB:
        return [r.with_measure(np.log(r.measure)) for r in relations]
    if semiring is BOOLEAN:
        return [
            r.with_measure(r.measure > r.measure.mean()) for r in relations
        ]
    return list(relations)


def _two_components():
    """a–b–c and, sharing nothing with it, d–e: a two-tree forest."""
    rng = np.random.default_rng(23)
    a, b, c = var("a", 3), var("b", 4), var("c", 2)
    d, e = var("d", 3), var("e", 2)
    return [
        complete_relation([a, b], rng=rng, name="r_ab"),
        complete_relation([b, c], rng=rng, name="r_bc"),
        complete_relation([d, e], rng=rng, name="r_de"),
    ]


def _restricted(relations, evidence):
    return [
        restrict(
            r, {v: x for v, x in evidence.items() if v in r.variables}
        )
        for r in relations
    ]


# Each producer: (fixture name | None, semiring) -> (tables, base view
# the tables must be calibrated against).
def _tree_bp(relations, semiring):
    return belief_propagation(relations, semiring).tables, relations


def _junction_bp(relations, semiring):
    ctx = ExecutionContext({}, semiring)
    jt = build_junction_tree(relations, semiring, context=ctx)
    result = belief_propagation(
        jt.cliques, semiring, tree=jt.tree, context=ctx
    )
    return result.tables, relations


def _ve_cache(relations, semiring):
    return build_ve_cache(relations, semiring).tables, relations


def _evidence(*variables):
    def produce(relations, semiring):
        cache = build_ve_cache(relations, semiring)
        evidence = {
            v: cache.tables[cache.table_for(v)].variables[v]
            .domain.label_of(1)
            for v in variables
        }
        return (
            cache.absorb_evidence(evidence).tables,
            _restricted(relations, evidence),
        )

    return produce


PRODUCERS = {
    "tree-bp": ("tiny_supply_chain", _tree_bp),
    "junction+bp": ("cyclic_supply_chain", _junction_bp),
    "ve-cache": ("tiny_supply_chain", _ve_cache),
    "ve-cache-cyclic": ("cyclic_supply_chain", _ve_cache),
    "evidence-1": ("tiny_supply_chain", _evidence("tid")),
    "evidence-2": ("tiny_supply_chain", _evidence("tid", "wid")),
    "evidence-forest-1": (None, _evidence("b")),
    "evidence-forest-2": (None, _evidence("b", "e")),
}


class TestDefinition5:
    @pytest.mark.parametrize("semiring", SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("producer", sorted(PRODUCERS))
    def test_every_producer_calibrates(self, request, producer, semiring):
        fixture, produce = PRODUCERS[producer]
        if fixture is None:
            base = _two_components()
        else:
            sc = request.getfixturevalue(fixture)
            base = [sc.catalog.relation(t) for t in sc.tables]
        relations = _in_semiring(base, semiring)
        tables, view = produce(relations, semiring)
        assert satisfies_workload_invariant(tables, view, semiring)

    def test_forest_fixture_has_two_components(self):
        cache = build_ve_cache(_two_components(), SUM_PRODUCT)
        assert nx.number_connected_components(cache.forest) == 2


class TestBuilders:
    """Programs are pure functions of the forest: no data touched."""

    TREE = nx.path_graph(FIGURE11_ORDER)

    def test_figure11_listing(self):
        program = collect(self.TREE, "contracts") + distribute(
            self.TREE, "contracts"
        )
        assert [str(step) for step in program] == FIGURE11

    def test_literal_order_coincides_on_the_chain(self):
        scopes = {
            "transporters": frozenset({"tid"}),
            "ctdeals": frozenset({"cid", "tid"}),
            "warehouses": frozenset({"wid", "cid"}),
            "location": frozenset({"pid", "wid"}),
            "contracts": frozenset({"pid", "sid"}),
        }
        program = literal_program(scopes, FIGURE11_ORDER)
        assert [str(step) for step in program] == FIGURE11

    def test_entry_points_run_the_built_programs(self, tiny_supply_chain):
        sc = tiny_supply_chain
        rels = {t: sc.catalog.relation(t) for t in FIGURE11_ORDER}
        tree_bp = belief_propagation(rels, SUM_PRODUCT, root="contracts")
        literal = bp_program_literal(rels, SUM_PRODUCT, FIGURE11_ORDER)
        for result in (tree_bp, literal):
            assert result.program_listing().splitlines() == [
                f"{i}. {line}" for i, line in enumerate(FIGURE11, 1)
            ]

    def test_distribute_sends_to_parents_before_children(self):
        tree = nx.Graph([("r", "a"), ("r", "b"), ("a", "c"), ("c", "d")])
        program = distribute(tree, "r")
        assert {(s.source, s.target) for s in program} == {
            ("r", "a"), ("r", "b"), ("a", "c"), ("c", "d"),
        }
        heard = {"r"}
        for step in program:
            assert step.kind == "update" and step.source in heard
            heard.add(step.target)
        mirrored = [
            BPStep(target=s.source, source=s.target, kind="product")
            for s in program
        ]
        assert sorted(map(str, collect(tree, "r"))) == sorted(
            map(str, mirrored)
        )


class TestBackwardKind:
    def test_one_rule(self):
        assert backward_kind(SUM_PRODUCT) == "update"
        assert backward_kind(LOG_PROB) == "update"
        assert backward_kind(BOOLEAN) == "product"

    def test_counting_is_undefined_for_every_caller(self, chain_relations):
        counting = [
            r.with_measure(r.measure.astype("int64") + 1)
            for r in chain_relations
        ]
        with pytest.raises(SemiringError, match="backward pass"):
            backward_kind(COUNTING)
        with pytest.raises(SemiringError, match="backward pass"):
            belief_propagation(counting, COUNTING)
        with pytest.raises(SemiringError, match="backward pass"):
            build_ve_cache(counting, COUNTING)


class TestRunnerCountsAndContext:
    def _cache(self, relations, semiring=SUM_PRODUCT, pool=None):
        registry = MetricsRegistry()
        ctx = ExecutionContext({}, semiring, pool=pool, metrics=registry)
        return build_ve_cache(relations, semiring, context=ctx), registry

    @staticmethod
    def _messages(registry, kind="update"):
        return registry.snapshot().get("bp.messages", kind=kind)

    def test_build_counts_one_update_message_per_forest_edge(
        self, tiny_supply_chain
    ):
        sc = tiny_supply_chain
        cache, registry = self._cache(
            [sc.catalog.relation(t) for t in sc.tables]
        )
        assert cache.forest.number_of_edges() > 0
        assert self._messages(registry) == cache.forest.number_of_edges()
        assert self._messages(registry, "product") == 0

    def test_boolean_fallback_still_counts_as_update(self, chain_relations):
        cache, registry = self._cache(
            _in_semiring(chain_relations, BOOLEAN), BOOLEAN
        )
        assert self._messages(registry) == cache.forest.number_of_edges()

    def test_absorb_evidence_adds_k_messages_on_a_k_edge_forest(
        self, tiny_supply_chain
    ):
        sc = tiny_supply_chain
        cache, registry = self._cache(
            [sc.catalog.relation(t) for t in sc.tables]
        )
        assert nx.is_connected(cache.forest)
        k = cache.forest.number_of_edges()
        before = self._messages(registry)
        cache.absorb_evidence({"tid": 1})
        assert self._messages(registry) == before + k
        cache.absorb_evidence({"tid": 1, "wid": 0})
        assert self._messages(registry) == before + 3 * k

    def test_evidence_messages_stay_inside_their_component(self):
        cache, registry = self._cache(_two_components())
        start = cache.table_for("e")
        component = nx.node_connected_component(cache.forest, start)
        before = self._messages(registry)
        cache.absorb_evidence({"e": 1})
        assert self._messages(registry) == before + len(component) - 1

    def test_results_are_named_after_the_name_they_are_bound_under(
        self, chain_relations
    ):
        aliased = {f"alias_{r.name}": r for r in chain_relations}
        result = belief_propagation(aliased, SUM_PRODUCT)
        assert {n: r.name for n, r in result.tables.items()} == {
            n: n for n in aliased
        }
        assert satisfies_workload_invariant(
            result.tables, chain_relations, SUM_PRODUCT
        )

    def test_cache_messages_carry_the_bp_message_context(
        self, tiny_supply_chain, monkeypatch
    ):
        from repro.storage.buffer import BufferPool
        from repro.workload.vecache import VECache

        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        pool = BufferPool()
        cache, registry = self._cache(relations, pool=pool)
        propagate = VECache._propagate

        def faulty_propagate(self, *args):
            # The evidence selection has read its table; every page
            # read of the messages that follow fails.
            pool.faults = Faults().rate(
                "page.read", "transient", 1.0, times=10_000
            )
            return propagate(self, *args)

        monkeypatch.setattr(VECache, "_propagate", faulty_propagate)
        with pytest.raises(TransientStorageError, match="BP message t"):
            cache.absorb_evidence({"tid": 1})
        assert registry.snapshot().get("bp.failures") == 1
