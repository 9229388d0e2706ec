"""VE's incremental elimination state against a rebuild-everything reference.

``eager_ve`` below is the search as it stood before candidates were
kept across steps: every step rebuilds the candidate of every remaining
variable from the current subplans and scores them afresh.  The shipped
search rebuilds only the neighbourhood of the eliminated variable and
keeps every other candidate's raw scores; it must be indistinguishable
— plan, cost, ``plans_considered`` and elimination order — under every
heuristic, both plan spaces and both cost models.
"""

import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes import random_network
from repro.catalog import Catalog
from repro.datagen import linear_view
from repro.optimizer import QuerySpec, VariableElimination, fd_prunable_variables
from repro.optimizer import ve as ve_module
from repro.optimizer.base import PlanContext, SubPlan
from repro.optimizer.heuristics import Candidate, choose_variable
from repro.optimizer.joinplan import linear_dp
from tests.optimizer.test_joinplan import MODELS, VIEWS, _bn_case
from tests.optimizer.test_properties import schema_and_query

HEURISTICS = (
    "degree", "width", "elim_cost", "degree+width", "degree+elim_cost", "random",
)


# ----------------------------------------------------------------------
# Reference: rebuild every candidate at every step.
# ----------------------------------------------------------------------
def _all_candidates(names, subplans, processed, context):
    """Every remaining variable's candidate, from a scan of all subplans;
    scopes are bitmasks over ``context``'s variable numbering."""
    query = context.mask(context.spec.query_vars)
    live_of = [context.mask(s.variables - processed) for s in subplans]
    out = []
    for v in names:
        bit = context.var_bits[v]
        rels, rels_live = [], []
        neighborhood, outside = 0, query
        for s, live in zip(subplans, live_of):
            if live & bit:
                rels.append(s)
                rels_live.append(live)
                neighborhood |= live
            else:
                outside |= live
        if not rels:
            continue
        out.append(Candidate(
            var=v, rels=rels, neighborhood=neighborhood,
            surviving=outside, rels_live=rels_live,
        ))
    return out


def _eager_search_mode(ve, context, extended):
    spec = context.spec
    rng = np.random.default_rng(ve.seed)
    order = []
    subplans: list[SubPlan] = [context.leaf(t) for t in spec.tables]
    query_vars = frozenset(spec.query_vars)
    present = set().union(*(s.variables for s in subplans))
    remaining = sorted(present - query_vars)
    processed = frozenset()
    prunable = fd_prunable_variables(
        {t: tuple(context.table_variables(t)) for t in spec.tables},
        ve.table_keys,
    )
    while remaining:
        candidates = _all_candidates(remaining, subplans, processed, context)
        if not candidates:
            break
        free = [c for c in candidates if c.var in prunable]
        pool = free or candidates
        v = choose_variable(pool, context, ve.parts, rng)
        order.append(v)
        chosen = next(c for c in pool if c.var == v)
        rels = chosen.rels
        rel_ids = {id(s) for s in rels}
        others = [s for s in subplans if id(s) not in rel_ids]
        if extended:
            outside = query_vars.union(*(s.variables for s in others)) \
                if others else query_vars
            p = linear_dp(rels, context, outside_needed=outside, use_groupbys=True)
        else:
            joined = linear_dp(rels, context, use_groupbys=False)
            needed = set(query_vars)
            for s in others:
                needed |= s.variables
            keep = [x for x in joined.stats.var_sizes if x != v and x in needed]
            p = context.group(joined, keep)
        subplans = others + [p]
        processed = processed | {v}
        still_live = set().union(*((s.variables - processed) for s in subplans))
        remaining = [x for x in remaining if x != v and x in still_live]
    if len(subplans) > 1:
        final = linear_dp(
            subplans, context, outside_needed=query_vars, use_groupbys=extended
        )
    else:
        final = subplans[0]
    return context.finalize(final), order


def eager_ve(ve: VariableElimination, context: PlanContext) -> SubPlan:
    """``VariableElimination._search`` rebuilding everything per step."""
    best, order = _eager_search_mode(ve, context, ve.extended)
    if ve.extended:
        plain, plain_order = _eager_search_mode(ve, context, False)
        if not best.cost <= plain.cost:
            best, order = plain, plain_order
    context.extras["elimination_order"] = tuple(order)
    return best


def _optimizers(table_keys=None):
    for heuristic in HEURISTICS:
        seed = 5 if heuristic == "random" else None
        for extended in (False, True):
            yield dict(
                heuristic=heuristic, extended=extended, seed=seed,
                table_keys=table_keys,
            )


def _assert_matches_eager(catalog, spec, monkeypatch, table_keys=None,
                          models=MODELS):
    for model in models:
        shipped = [
            VariableElimination(**kw).optimize(spec, catalog, model())
            for kw in _optimizers(table_keys)
        ]
        with monkeypatch.context() as patch:
            patch.setattr(VariableElimination, "_search", eager_ve)
            for got, kw in zip(shipped, _optimizers(table_keys)):
                want = VariableElimination(**kw).optimize(spec, catalog, model())
                assert got.algorithm == want.algorithm
                assert got.plan.structural_key() == want.plan.structural_key()
                assert repr(got.cost) == repr(want.cost)
                assert got.plans_considered == want.plans_considered
                assert got.extras == want.extras


def _keys_dropping_last(catalog, spec):
    """Declare every table keyed on all but its last variable, so the
    variables that are last everywhere are Proposition 1-prunable."""
    return {t: catalog.stats(t).variables[:-1] for t in spec.tables}


@pytest.mark.parametrize("n_tables", range(2, 9))
@pytest.mark.parametrize("kind", sorted(VIEWS))
def test_synthetic_views(kind, n_tables, monkeypatch):
    view = VIEWS[kind](n_tables=n_tables, domain_size=3)
    selections = {view.chain_variables[-1]: 1} if n_tables % 2 else {}
    spec = QuerySpec(view.tables, (view.chain_variables[0],), selections)
    _assert_matches_eager(view.catalog, spec, monkeypatch)


@pytest.mark.parametrize("seed", range(3))
def test_networks_with_evidence(seed, monkeypatch):
    catalog, spec = _bn_case(10, seed)
    _assert_matches_eager(catalog, spec, monkeypatch)


@pytest.mark.parametrize("case", ["bn", "linear"])
def test_table_keys(case, monkeypatch):
    """The Proposition 1 path: prunable variables go first."""
    if case == "bn":
        catalog, spec = _bn_case(10, 4)
    else:
        view = linear_view(n_tables=6, domain_size=3)
        catalog = view.catalog
        spec = QuerySpec(view.tables, (view.chain_variables[2],))
    keys = _keys_dropping_last(catalog, spec)
    assert fd_prunable_variables(
        {t: catalog.stats(t).variables for t in spec.tables}, keys
    ) - set(spec.query_vars)
    _assert_matches_eager(catalog, spec, monkeypatch, table_keys=keys)


@given(schema_and_query(), st.booleans(), st.sampled_from(MODELS))
@settings(max_examples=25, deadline=None)
def test_random_schemas(case, with_keys, model):
    catalog, spec = case
    keys = _keys_dropping_last(catalog, spec) if with_keys else None
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_matches_eager(
            catalog, spec, monkeypatch, table_keys=keys, models=[model]
        )


# ----------------------------------------------------------------------
# Work count (fails on the rebuild-everything search)
# ----------------------------------------------------------------------
class TestWorkCounts:
    def _steps(self, monkeypatch, heuristic, extended):
        """Per elimination step of one search: (candidates built since
        the previous step, that step's chosen candidate), and the
        candidates built after the last step."""
        built = [0]
        steps = []

        class Counting(Candidate):
            def __init__(self, *args, **kwargs):
                built[0] += 1
                super().__init__(*args, **kwargs)

        def choosing(pool, context, parts, rng=None):
            v = choose_variable(pool, context, parts, rng)
            steps.append((built[0], next(c for c in pool if c.var == v)))
            built[0] = 0
            return v

        monkeypatch.setattr(ve_module, "Candidate", Counting)
        monkeypatch.setattr(ve_module, "choose_variable", choosing)
        view = linear_view(n_tables=8, domain_size=3)
        spec = QuerySpec(view.tables, (view.chain_variables[0],))
        context = PlanContext(spec, view.catalog)
        VariableElimination(heuristic)._search_mode(context, extended)
        return steps, built[0]

    @pytest.mark.parametrize("extended", [False, True])
    @pytest.mark.parametrize("heuristic", ["degree", "elim_cost"])
    def test_a_step_rebuilds_at_most_its_neighbourhood(
        self, monkeypatch, heuristic, extended
    ):
        steps, after_last = self._steps(monkeypatch, heuristic, extended)
        assert len(steps) > 4
        # The first step builds every candidate once ...
        assert steps[0][0] == 8
        # ... and every later one only the neighbourhood of the last
        # (a chain link: two or three variables, of eight).
        rebuilt = [n for n, _ in steps[1:]] + [after_last]
        for n, (_, chosen) in zip(rebuilt, steps):
            assert n <= chosen.neighborhood.bit_count() <= 3


# ----------------------------------------------------------------------
# The elimination order is per call, not per instance
# ----------------------------------------------------------------------
def test_shared_instance_reports_each_calls_own_order():
    """Threads sharing one optimizer (as ``MPFInference`` does) each get
    their own query's elimination order back."""
    network = random_network(16, max_parents=3, seed=3)
    catalog = Catalog()
    tables = tuple(catalog.register_all(network.to_relations()))
    names = network.variable_names
    specs = [
        QuerySpec(tables, (names[i],), {names[(i + 7) % 16]: 0})
        for i in range(4)
    ]
    optimizer = VariableElimination("degree", extended=True)
    want = [
        optimizer.optimize(spec, catalog).extras["elimination_order"]
        for spec in specs
    ]
    assert len(set(want)) == len(want)

    wrong: list = []
    errors: list = []

    def worker(i):
        try:
            for _ in range(30):
                got = optimizer.optimize(specs[i], catalog)
                if got.extras["elimination_order"] != want[i]:
                    wrong.append(i)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert errors == []
    assert wrong == []
