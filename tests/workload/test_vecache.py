"""VE-cache (Algorithm 3) tests, including the paper's running example
and the Theorem 5 constrained-domain protocol."""

from functools import reduce

import pytest

from repro.algebra import marginalize, product_join, restrict
from repro.errors import WorkloadError
from repro.semiring import MIN_SUM, SUM_PRODUCT
from repro.workload import (
    build_ve_cache,
    satisfies_workload_invariant,
)


def _relations(sc):
    return [sc.catalog.relation(t) for t in sc.tables]


def _joint(relations, semiring):
    return reduce(lambda a, b: product_join(a, b, semiring), relations)


class TestPaperExample:
    def test_running_example_scopes(self, tiny_supply_chain):
        """With the paper's elimination order (tid, pid, cid) the
        maximal cached tables have scopes t1(sid, pid, wid),
        t2(wid, cid), t3(cid, tid) — the Section 6 running example."""
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(
            relations, SUM_PRODUCT, order=["tid", "pid", "cid"]
        )
        scopes = {
            frozenset(rel.var_names)
            for rel in cache.maximal_tables().values()
        }
        assert frozenset(("sid", "pid", "wid")) in scopes
        assert frozenset(("wid", "cid")) in scopes
        assert frozenset(("cid", "tid")) in scopes

    def test_q1_answerable_from_wid_table(self, tiny_supply_chain):
        """"evaluating Q1 on t2 gives the correct answer"."""
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(
            relations, SUM_PRODUCT, order=["tid", "pid", "cid"]
        )
        got = cache.answer("wid")
        expected = marginalize(
            _joint(relations, SUM_PRODUCT), ["wid"], SUM_PRODUCT
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)


class TestInvariant:
    @pytest.mark.parametrize("heuristic", ["degree", "width"])
    def test_all_cached_tables_satisfy_definition5(
        self, tiny_supply_chain, heuristic
    ):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT, heuristic=heuristic)
        assert satisfies_workload_invariant(
            cache.tables, relations, SUM_PRODUCT
        )

    def test_every_variable_answerable(self, tiny_supply_chain):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT)
        joint = _joint(relations, SUM_PRODUCT)
        for v in ("pid", "sid", "wid", "cid", "tid"):
            got = cache.answer(v)
            expected = marginalize(joint, [v], SUM_PRODUCT)
            assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_cyclic_schema(self, cyclic_supply_chain):
        """VE-cache subsumes the junction-tree transformation: it is
        correct on cyclic schemas too (Theorem 10)."""
        relations = _relations(cyclic_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT, order=["tid", "sid"])
        assert satisfies_workload_invariant(
            cache.tables, relations, SUM_PRODUCT
        )

    def test_min_sum_cache(self, tiny_supply_chain):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, MIN_SUM)
        joint = _joint(relations, MIN_SUM)
        got = cache.answer("cid")
        expected = marginalize(joint, ["cid"], MIN_SUM)
        assert got.equals(expected, MIN_SUM, ignore_zero_rows=True)

    def test_disconnected_components(self, rng):
        """Cross-component total mass must reach every cached table."""
        from repro.data import complete_relation, var

        a, b = var("a", 3), var("b", 2)
        x, y = var("x", 2), var("y", 3)
        relations = [
            complete_relation([a, b], rng=rng, name="r1"),
            complete_relation([x, y], rng=rng, name="r2"),
        ]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        joint = _joint(relations, SUM_PRODUCT)
        for v in ("a", "x"):
            got = cache.answer(v)
            expected = marginalize(joint, [v], SUM_PRODUCT)
            assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)


class TestRestrictedAnswer:
    def test_selection_on_query_variable(self, tiny_supply_chain):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT)
        got = cache.answer("wid", selection={"wid": 1})
        joint = _joint(relations, SUM_PRODUCT)
        expected = restrict(
            marginalize(joint, ["wid"], SUM_PRODUCT), {"wid": 1}
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_selection_on_other_variable_rejected(self, tiny_supply_chain):
        cache = build_ve_cache(_relations(tiny_supply_chain), SUM_PRODUCT)
        with pytest.raises(WorkloadError):
            cache.answer("wid", selection={"tid": 1})


class TestConstrainedDomainProtocol:
    def test_paper_example_query(self, tiny_supply_chain):
        """select wid, agg(inv) from invest where tid=1 group by wid —
        the Section 6 protocol example (Theorem 5)."""
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT)
        conditioned = cache.absorb_evidence({"tid": 1})
        got = conditioned.answer("wid")
        expected = marginalize(
            restrict(_joint(relations, SUM_PRODUCT), {"tid": 1}),
            ["wid"],
            SUM_PRODUCT,
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_evidence_does_not_mutate_original(self, tiny_supply_chain):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT)
        before = cache.answer("wid")
        cache.absorb_evidence({"tid": 1})
        after = cache.answer("wid")
        assert before.equals(after, SUM_PRODUCT)

    def test_multiple_evidence_variables(self, tiny_supply_chain):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT)
        conditioned = cache.absorb_evidence({"tid": 1, "sid": 0})
        got = conditioned.answer("cid")
        expected = marginalize(
            restrict(
                _joint(relations, SUM_PRODUCT), {"tid": 1, "sid": 0}
            ),
            ["cid"],
            SUM_PRODUCT,
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_evidence_scales_other_components(self, rng):
        """Evidence in one connected component rescales every other
        component's tables by the mass change (found by hypothesis:
        two disconnected singleton relations)."""
        from repro.data import FunctionalRelation, var

        x0, x1 = var("x0", 2), var("x1", 2)
        relations = [
            FunctionalRelation.from_rows([x0], [(0, 0.3), (1, 0.7)],
                                         name="t0"),
            FunctionalRelation.from_rows([x1], [(0, 0.4), (1, 0.6)],
                                         name="t1"),
        ]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        conditioned = cache.absorb_evidence({"x0": 1})
        got = conditioned.answer("x1")
        expected = marginalize(
            restrict(_joint(relations, SUM_PRODUCT), {"x0": 1}),
            ["x1"],
            SUM_PRODUCT,
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_unknown_evidence_variable(self, tiny_supply_chain):
        cache = build_ve_cache(_relations(tiny_supply_chain), SUM_PRODUCT)
        with pytest.raises(WorkloadError):
            cache.absorb_evidence({"ghost": 0})


class TestCosting:
    def test_cache_objective_components(self, tiny_supply_chain):
        relations = _relations(tiny_supply_chain)
        cache = build_ve_cache(relations, SUM_PRODUCT)
        assert cache.total_tuples() > 0
        assert cache.total_pages() >= len(cache.tables)
        assert cache.query_cost("wid") > 0

    def test_unknown_variable(self, tiny_supply_chain):
        cache = build_ve_cache(_relations(tiny_supply_chain), SUM_PRODUCT)
        with pytest.raises(WorkloadError):
            cache.table_for("ghost")

    def test_empty_view_rejected(self):
        with pytest.raises(WorkloadError):
            build_ve_cache([], SUM_PRODUCT)
