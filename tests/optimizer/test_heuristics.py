"""Unit tests for elimination heuristics (Section 5.5)."""

import numpy as np
import pytest

from repro.errors import OptimizationError
from repro.optimizer import QuerySpec, VariableElimination, parse_heuristic
from repro.optimizer.base import PlanContext
from repro.optimizer.heuristics import (
    Candidate,
    choose_variable,
    score_candidates,
)
from repro.datagen import star_view


class TestParse:
    def test_single(self):
        assert parse_heuristic("degree") == ("degree",)
        assert parse_heuristic("elim_cost") == ("elim_cost",)

    def test_combo(self):
        assert parse_heuristic("degree+width") == ("degree", "width")
        assert parse_heuristic("degree + elim_cost") == ("degree", "elim_cost")

    def test_unknown(self):
        with pytest.raises(OptimizationError):
            parse_heuristic("entropy")

    def test_random_cannot_combine(self):
        with pytest.raises(OptimizationError):
            parse_heuristic("random+degree")


@pytest.fixture
def star_context():
    view = star_view(n_tables=5, domain_size=10)
    spec = QuerySpec(tables=view.tables, query_vars=(view.chain_variables[0],))
    return view, PlanContext(spec, view.catalog)


def _candidates_for(view, context):
    """Every candidate over the view's leaves, scopes as bitmasks."""
    subplans = [context.leaf(t) for t in view.tables]
    scopes = [context.mask(s.variables) for s in subplans]
    query = context.mask(context.spec.query_vars)
    out = []
    names = sorted(
        set().union(*(s.variables for s in subplans))
        - set(context.spec.query_vars)
    )
    for v in names:
        bit = context.var_bits[v]
        rels = [s for s, scope in zip(subplans, scopes) if scope & bit]
        rels_live = [scope for scope in scopes if scope & bit]
        neighborhood = 0
        for scope in rels_live:
            neighborhood |= scope
        outside = query
        for scope in scopes:
            if not scope & bit:
                outside |= scope
        out.append(
            Candidate(
                var=v,
                rels=rels,
                neighborhood=neighborhood,
                surviving=outside & neighborhood,
                rels_live=rels_live,
            )
        )
    return out


class TestScores:
    def test_degree_prefers_hub_on_star(self, star_context):
        """The Table 2 pathology: the hub's surviving interface is just
        the query variable, so degree scores it lowest."""
        view, context = star_context
        candidates = _candidates_for(view, context)
        scores = score_candidates(candidates, context, ("degree",))
        assert min(scores, key=scores.get) == "h0"

    def test_width_avoids_hub_on_star(self, star_context):
        view, context = star_context
        candidates = _candidates_for(view, context)
        scores = score_candidates(candidates, context, ("width",))
        assert max(scores, key=scores.get) == "h0"

    def test_elim_cost_avoids_hub_on_star(self, star_context):
        view, context = star_context
        candidates = _candidates_for(view, context)
        scores = score_candidates(candidates, context, ("elim_cost",))
        assert max(scores, key=scores.get) == "h0"

    def test_combo_normalized_product(self, star_context):
        view, context = star_context
        candidates = _candidates_for(view, context)
        deg = score_candidates(candidates, context, ("degree",))
        wid = score_candidates(candidates, context, ("width",))
        combo = score_candidates(candidates, context, ("degree", "width"))
        top_deg = max(deg.values())
        top_wid = max(wid.values())
        for c in candidates:
            expected = (deg[c.var] / top_deg) * (wid[c.var] / top_wid)
            assert combo[c.var] == pytest.approx(expected)


    @pytest.mark.parametrize("part", ["degree", "width"])
    def test_domain_products_equal_catalog_lookups_in_any_order(
        self, star_context, part
    ):
        """σ_X comes from the context's size map; the score is bitwise
        the product of the catalog's domain sizes, whichever way the
        scope is walked (small integers multiply exactly in float)."""
        view, context = star_context
        candidates = _candidates_for(view, context)

        def product(names):
            size = 1.0
            for v in names:
                size *= context.catalog.variable(v).size
            return size

        scope_of = {
            "degree": lambda c: context.names(
                c.neighborhood & ~context.var_bits[c.var] & c.surviving
            ),
            "width": lambda c: context.names(c.neighborhood),
        }[part]
        forward = {c.var: product(sorted(scope_of(c))) for c in candidates}
        backward = {
            c.var: product(sorted(scope_of(c), reverse=True)) for c in candidates
        }
        assert forward == backward
        top = max(forward.values())
        scores = score_candidates(candidates, context, (part,))
        assert scores == {v: raw / top for v, raw in forward.items()}

    def test_context_domain_sizes_cover_the_view(self, star_context):
        view, context = star_context
        assert context.domain_sizes == {
            v: view.catalog.variable(v).size
            for t in view.tables
            for v in view.catalog.stats(t).variables
        }


class TestChoose:
    def test_deterministic_tie_break(self, star_context):
        view, context = star_context
        candidates = _candidates_for(view, context)
        first = choose_variable(candidates, context, ("width",))
        second = choose_variable(candidates, context, ("width",))
        assert first == second

    def test_random_respects_seed(self, star_context):
        view, context = star_context
        candidates = _candidates_for(view, context)
        rng1 = np.random.default_rng(3)
        rng2 = np.random.default_rng(3)
        assert choose_variable(
            candidates, context, ("random",), rng1
        ) == choose_variable(candidates, context, ("random",), rng2)

    def test_empty_candidates(self, star_context):
        _, context = star_context
        with pytest.raises(OptimizationError):
            choose_variable([], context, ("degree",))


class TestRandomHeuristicStability:
    def test_same_seed_same_plan(self):
        view = star_view(n_tables=4, domain_size=5)
        spec = QuerySpec(
            tables=view.tables, query_vars=(view.chain_variables[0],)
        )
        a = VariableElimination("random", seed=9).optimize(spec, view.catalog)
        b = VariableElimination("random", seed=9).optimize(spec, view.catalog)
        assert a.cost == b.cost
        assert a.extras["elimination_order"] == b.extras["elimination_order"]

    def test_different_seeds_explore(self):
        view = star_view(n_tables=5, domain_size=10)
        spec = QuerySpec(
            tables=view.tables, query_vars=(view.chain_variables[0],)
        )
        costs = {
            VariableElimination("random", seed=s).optimize(
                spec, view.catalog
            ).cost
            for s in range(8)
        }
        assert len(costs) > 1
