"""Unit tests for the joinplan dynamic programs."""

from typing import Sequence

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bayes import random_network
from repro.catalog import Catalog
from repro.cost import IOCostModel, SimpleCostModel
from repro.cost import cardinality as cardinality_module
from repro.data import complete_relation, var
from repro.datagen import linear_view, multistar_view, star_view
from repro.errors import OptimizationError
from repro.optimizer import (
    CSOptimizer,
    CSPlusLinear,
    CSPlusNonlinear,
    QuerySpec,
    VariableElimination,
)
from repro.catalog.statistics import TableStats
from repro.cost.cardinality import group_stats, join_stats
from repro.optimizer import cs, csplus, ve
from repro.optimizer import joinplan as joinplan_module
from repro.optimizer.base import PlanContext, SubPlan
from repro.optimizer.joinplan import Estimate, bushy_dp, linear_dp
from repro.plans import Scan
from tests.optimizer.test_properties import schema_and_query


@pytest.fixture
def context(rng):
    a, b, c, d = var("a", 4), var("b", 6), var("c", 3), var("d", 2)
    cat = Catalog()
    cat.register(complete_relation([a, b], rng=rng, name="t0"))
    cat.register(complete_relation([b, c], rng=rng, name="t1"))
    cat.register(complete_relation([c, d], rng=rng, name="t2"))
    spec = QuerySpec(tables=("t0", "t1", "t2"), query_vars=("a",))
    return PlanContext(spec, cat)


class TestLinearDP:
    def test_empty_set_rejected(self, context):
        with pytest.raises(OptimizationError):
            linear_dp([], context)

    def test_single_item_is_identity(self, context):
        leaf = context.leaf("t0")
        assert linear_dp([leaf], context) is leaf

    def test_joins_all_items(self, context):
        leaves = [context.leaf(t) for t in ("t0", "t1", "t2")]
        plan = linear_dp(leaves, context)
        assert set(plan.plan.base_tables()) == {"t0", "t1", "t2"}
        assert plan.plan.is_linear()

    def test_groupbys_only_when_enabled(self, context):
        from repro.plans import GroupBy

        leaves = [context.leaf(t) for t in ("t0", "t1", "t2")]
        plain = linear_dp(leaves, context, use_groupbys=False)
        assert plain.plan.count_nodes(GroupBy) == 0

    def test_groupby_variant_never_costlier(self, context):
        leaves = [context.leaf(t) for t in ("t0", "t1", "t2")]
        plain = linear_dp(leaves, context, use_groupbys=False)
        capped = linear_dp(
            leaves, context,
            outside_needed=frozenset({"a"}), use_groupbys=True,
        )
        assert capped.cost <= plain.cost + 1e-9

    def test_outside_needed_variables_survive(self, context):
        leaves = [context.leaf(t) for t in ("t0", "t1", "t2")]
        result = linear_dp(
            leaves, context,
            outside_needed=frozenset({"a", "d"}), use_groupbys=True,
        )
        assert {"a", "d"} <= set(result.stats.var_sizes)


class TestBushyDP:
    def test_empty_set_rejected(self, context):
        with pytest.raises(OptimizationError):
            bushy_dp([], context)

    def test_single_item_is_identity(self, context):
        leaf = context.leaf("t1")
        assert bushy_dp([leaf], context) is leaf

    def test_never_costlier_than_linear(self, context):
        leaves = [context.leaf(t) for t in ("t0", "t1", "t2")]
        linear = linear_dp(
            leaves, context,
            outside_needed=frozenset({"a"}), use_groupbys=True,
        )
        bushy = bushy_dp(
            leaves, context,
            outside_needed=frozenset({"a"}), use_groupbys=True,
        )
        # On 3 items bushy includes every linear order, so dominance
        # holds exactly here (the general caveat needs ≥4 items).
        assert bushy.cost <= linear.cost + 1e-9

    def test_two_items_equal_linear(self, context):
        # Same cap setting on both sides (bushy defaults groupbys on).
        leaves = [context.leaf(t) for t in ("t0", "t1")]
        assert bushy_dp(
            leaves, context, use_groupbys=False
        ).cost == pytest.approx(linear_dp(leaves, context).cost)


# ----------------------------------------------------------------------
# Reference: the eager DPs as they stood before candidates were costed
# on size and only winners built.  Kept verbatim (names aside) — every
# candidate goes through ``context.join``, i.e. full statistics, a
# ``ProductJoin`` and a ``SubPlan``, and the GroupBy cap is re-derived
# per candidate.  The shipped DPs must be indistinguishable from these.
# ----------------------------------------------------------------------
def _variables_of(items: Sequence[SubPlan], mask: int) -> frozenset[str]:
    """Union of variables of the items selected by ``mask``."""
    out: set[str] = set()
    for i, item in enumerate(items):
        if mask & (1 << i):
            out |= item.variables
    return frozenset(out)


def eager_linear_dp(
    items: Sequence[SubPlan],
    context: PlanContext,
    outside_needed: frozenset[str] = frozenset(),
    use_groupbys: bool = False,
) -> SubPlan:
    """Best left-deep plan joining all ``items``.

    ``use_groupbys`` enables the CS+ interior-GroupBy comparison; the
    returned plan is then guaranteed no more expensive than the best
    pure join order (both candidates are always costed).
    """
    items = list(items)
    n = len(items)
    if n == 0:
        raise OptimizationError("joinplan over an empty relation set")
    if n == 1:
        return items[0]

    full = (1 << n) - 1
    # Cache of "variables outside mask" per mask complement.
    dp: dict[int, SubPlan] = {1 << i: items[i] for i in range(n)}

    # Iterate masks in increasing popcount so predecessors exist.
    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_size[mask.bit_count()].append(mask)

    for size in range(2, n + 1):
        for mask in masks_by_size[size]:
            best: SubPlan | None = None
            for j in range(n):
                bit = 1 << j
                if not mask & bit:
                    continue
                prev_mask = mask ^ bit
                prev = dp.get(prev_mask)
                if prev is None:
                    continue
                q1 = context.join(prev, items[j])
                candidate = q1
                if use_groupbys:
                    # Relations not yet joined into S_j: everything
                    # outside prev_mask (r_j included), plus the query
                    # variables / outside scope.
                    needed = outside_needed | _variables_of(
                        items, full ^ prev_mask
                    )
                    capped = context.group_if_useful(prev, needed)
                    if capped is not None:
                        q2 = context.join(capped, items[j])
                        if q2.cost < candidate.cost:
                            candidate = q2
                if best is None or candidate.cost < best.cost:
                    best = candidate
            dp[mask] = best
    return dp[full]


def eager_bushy_dp(
    items: Sequence[SubPlan],
    context: PlanContext,
    outside_needed: frozenset[str] = frozenset(),
    use_groupbys: bool = True,
) -> SubPlan:
    """Best bushy plan joining all ``items`` (nonlinear CS+).

    For every unordered split {L, R} of every subset, costs up to four
    candidates (GroupBy caps on neither / left / right / both operands)
    and keeps the cheapest — the Section 5.1 extension of the CS+
    greedy-conservative rule to nonlinear plans.
    """
    items = list(items)
    n = len(items)
    if n == 0:
        raise OptimizationError("joinplan over an empty relation set")
    if n == 1:
        return items[0]

    full = (1 << n) - 1
    dp: dict[int, SubPlan] = {1 << i: items[i] for i in range(n)}

    masks_by_size: list[list[int]] = [[] for _ in range(n + 1)]
    for mask in range(1, full + 1):
        masks_by_size[mask.bit_count()].append(mask)

    for size in range(2, n + 1):
        for mask in masks_by_size[size]:
            best: SubPlan | None = None
            # Enumerate unordered splits: sub iterates proper nonempty
            # submasks; keep sub > complement to visit each split once.
            sub = (mask - 1) & mask
            while sub:
                other = mask ^ sub
                if sub > other:
                    left, right = dp[sub], dp[other]
                    left_mask, right_mask = sub, other
                    candidates = [context.join(left, right)]
                    if use_groupbys:
                        needed_left = outside_needed | _variables_of(
                            items, full ^ left_mask
                        )
                        needed_right = outside_needed | _variables_of(
                            items, full ^ right_mask
                        )
                        capped_left = context.group_if_useful(left, needed_left)
                        capped_right = context.group_if_useful(
                            right, needed_right
                        )
                        if capped_left is not None:
                            candidates.append(context.join(capped_left, right))
                        if capped_right is not None:
                            candidates.append(context.join(left, capped_right))
                        if capped_left is not None and capped_right is not None:
                            candidates.append(
                                context.join(capped_left, capped_right)
                            )
                    local = min(candidates, key=lambda s: s.cost)
                    if best is None or local.cost < best.cost:
                        best = local
                sub = (sub - 1) & mask
            dp[mask] = best
    return dp[full]


EAGER = {linear_dp: eager_linear_dp, bushy_dp: eager_bushy_dp}
VIEWS = {"star": star_view, "multistar": multistar_view, "linear": linear_view}
MODELS = [SimpleCostModel, IOCostModel]


def _assert_same_subplan(got: SubPlan, want: SubPlan):
    assert got.plan.structural_key() == want.plan.structural_key()
    assert got.cost == want.cost  # bitwise, not approx
    assert got.stats.name == want.stats.name
    assert got.stats.cardinality == want.stats.cardinality
    assert list(got.stats.var_sizes.items()) == list(want.stats.var_sizes.items())
    assert list(got.stats.distinct.items()) == list(want.stats.distinct.items())


def _assert_matches_eager(dp, catalog, spec, model, outside_needed, use_groupbys):
    """Run ``dp`` and its eager reference from fresh contexts; compare."""
    outcomes = []
    for search in (dp, EAGER[dp]):
        context = PlanContext(spec, catalog, model())
        leaves = [context.leaf(t) for t in spec.tables]
        plan = search(
            leaves, context,
            outside_needed=outside_needed, use_groupbys=use_groupbys,
        )
        outcomes.append((plan, context.plans_considered))
    (got, got_considered), (want, want_considered) = outcomes
    _assert_same_subplan(got, want)
    assert got_considered == want_considered


def _bn_case(n_variables, seed):
    """A seeded random network as (catalog, spec) with one evidence var."""
    network = random_network(n_variables, max_parents=3, seed=seed)
    catalog = Catalog()
    tables = tuple(catalog.register_all(network.to_relations()))
    names = network.variable_names
    spec = QuerySpec(
        tables=tables, query_vars=(names[0],), selections={names[-1]: 0}
    )
    return catalog, spec


class TestMatchesEagerDP:
    """The two-phase DPs return what the eager ones did, bit for bit."""

    @pytest.mark.parametrize("use_groupbys", [False, True])
    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n_tables", range(2, 9))
    @pytest.mark.parametrize("kind", sorted(VIEWS))
    def test_linear_on_synthetic_views(self, kind, n_tables, model, use_groupbys):
        view = VIEWS[kind](n_tables=n_tables, domain_size=3)
        spec = QuerySpec(view.tables, (view.chain_variables[0],))
        _assert_matches_eager(
            linear_dp, view.catalog, spec, model,
            frozenset(spec.query_vars), use_groupbys,
        )

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("n_tables", range(2, 9))
    @pytest.mark.parametrize("kind", sorted(VIEWS))
    def test_bushy_on_synthetic_views(self, kind, n_tables, model):
        view = VIEWS[kind](n_tables=n_tables, domain_size=3)
        spec = QuerySpec(view.tables, (view.chain_variables[-1],))
        _assert_matches_eager(
            bushy_dp, view.catalog, spec, model,
            frozenset(spec.query_vars), True,
        )

    @pytest.mark.parametrize("model", MODELS)
    def test_linear_on_random_network_with_evidence(self, model):
        catalog, spec = _bn_case(12, seed=5)
        _assert_matches_eager(
            linear_dp, catalog, spec, model, frozenset(spec.query_vars), True
        )

    @given(
        schema_and_query(),
        st.sampled_from([linear_dp, bushy_dp]),
        st.booleans(),
        st.sampled_from(MODELS),
        st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_schemas(self, case, dp, use_groupbys, model, data):
        catalog, spec = case
        covered = sorted({v for t in spec.tables for v in catalog.stats(t).variables})
        outside = data.draw(st.sets(st.sampled_from(covered), min_size=1))
        _assert_matches_eager(
            dp, catalog, spec, model, frozenset(outside), use_groupbys
        )


def _optimizers():
    yield CSOptimizer, {}
    yield CSPlusLinear, {}
    yield CSPlusNonlinear, {}
    for heuristic in ("degree", "width", "elim_cost", "degree+width"):
        for extended in (False, True):
            yield VariableElimination, {
                "heuristic": heuristic, "extended": extended,
            }


def _end_to_end_cases():
    for kind in sorted(VIEWS):
        view = VIEWS[kind](n_tables=6, domain_size=3)
        yield kind, view.catalog, QuerySpec(
            view.tables,
            (view.chain_variables[0],),
            {view.chain_variables[-1]: 1},
        )
    yield ("bn",) + _bn_case(9, seed=2)


class TestOptimizersMatchEagerDP:
    """Every optimizer, with the eager DPs patched in, returns the same
    ``OptimizationResult`` as with the shipped ones."""

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize(
        "case", _end_to_end_cases(), ids=lambda case: case[0]
    )
    def test_results_identical(self, case, model, monkeypatch):
        _, catalog, spec = case
        shipped = [
            cls(**kwargs).optimize(spec, catalog, model())
            for cls, kwargs in _optimizers()
        ]
        for module in (cs, csplus, ve):
            monkeypatch.setattr(module, "linear_dp", eager_linear_dp)
        monkeypatch.setattr(csplus, "bushy_dp", eager_bushy_dp)
        for got, (cls, kwargs) in zip(shipped, _optimizers()):
            want = cls(**kwargs).optimize(spec, catalog, model())
            assert got.algorithm == want.algorithm
            assert got.plan.structural_key() == want.plan.structural_key()
            assert got.cost == want.cost
            assert got.plans_considered == want.plans_considered
            assert got.extras == want.extras
            if cls is VariableElimination:
                assert got.extras["elimination_order"]


class TestWorkCounts:
    """Objects are per subset and per call, not per candidate (each of
    these fails on the eager DPs)."""

    N = 8

    @pytest.fixture
    def counted(self, monkeypatch):
        """(context, leaves, made): ``made`` counts the estimates a DP
        derives — joins and GroupBy caps — and the ``TableStats`` built
        anywhere while it runs."""
        view = star_view(n_tables=self.N, domain_size=3)
        spec = QuerySpec(view.tables, (view.chain_variables[0],))
        context = PlanContext(spec, view.catalog)
        leaves = [context.leaf(t) for t in view.tables]
        made = {"join": 0, "cap": 0, "TableStats": 0}

        def counting(name, kind):
            original = getattr(joinplan_module, name)

            def wrapper(*args):
                out = original(*args)
                made[kind] += out is not None
                return out

            monkeypatch.setattr(joinplan_module, name, wrapper)

        counting("_joined", "join")
        counting("_extended", "join")
        counting("_grouped", "cap")
        validate = TableStats.__post_init__

        def counting_stats(stats):
            made["TableStats"] += 1
            validate(stats)

        monkeypatch.setattr(TableStats, "__post_init__", counting_stats)
        return context, leaves, made

    def test_linear_builds_one_join_and_one_cap_per_subset(self, counted):
        context, leaves, made = counted
        linear_dp(
            leaves, context,
            outside_needed=frozenset(context.spec.query_vars),
            use_groupbys=True,
        )
        n = self.N
        # One record per subset of two or more items ...
        assert made["join"] == 2**n - n - 1
        # ... at most one cap per subset (here: those that drop
        # something), though n * 2^(n-1) extensions looked one up ...
        assert 0 < made["cap"] <= 2**n
        assert context.plans_considered > n * 2 ** (n - 1)
        # ... and statistics only for the plan returned.
        assert made["TableStats"] == 1

    def test_bushy_builds_one_cap_per_subset(self, counted):
        context, leaves, made = counted
        bushy_dp(
            leaves, context,
            outside_needed=frozenset(context.spec.query_vars),
            use_groupbys=True,
        )
        n = self.N
        assert made["join"] == 2**n - n - 1
        assert 0 < made["cap"] <= 2**n - 2
        assert made["TableStats"] == 1

    @pytest.mark.parametrize("dp", [linear_dp, bushy_dp])
    def test_join_sizes_are_estimated_only_when_the_model_reads_them(
        self, dp, monkeypatch
    ):
        """``|L|·|R|`` reads no output size, so no candidate's is read or
        estimated; the IO model reads each candidate's, estimated once."""
        sizes = []
        estimate = cardinality_module.join_size
        monkeypatch.setattr(
            cardinality_module, "join_size",
            lambda left, right: sizes.append(1) or estimate(left, right),
        )
        reads = []

        class CountingJoinSize(cardinality_module.JoinSize):
            __slots__ = ()

            def aim(self, left, right):
                if left is not None:  # one per costed candidate
                    reads.append(0)
                return super().aim(left, right)

            @property
            def cardinality(self):
                reads[-1] += 1
                return super().cardinality

            @property
            def var_sizes(self):
                reads[-1] += 1
                return super().var_sizes

        monkeypatch.setattr(joinplan_module, "JoinSize", CountingJoinSize)
        view = star_view(n_tables=6, domain_size=3)
        spec = QuerySpec(view.tables, (view.chain_variables[0],))
        for model in MODELS:
            sizes.clear()
            reads.clear()
            context = PlanContext(spec, view.catalog, model())
            dp(
                [context.leaf(t) for t in view.tables], context,
                outside_needed=frozenset(spec.query_vars), use_groupbys=True,
            )
            assert len(reads) > 2**6
            if model is IOCostModel:
                assert len(sizes) == len(reads)
                assert all(reads)
            else:
                assert sizes == []
                assert not any(reads)


# ----------------------------------------------------------------------
# Every estimate a DP derives is join_stats / group_stats of its
# operands, bit for bit.
# ----------------------------------------------------------------------
def _as_stats(estimate):
    if estimate.item is not None:
        return estimate.item.stats
    return TableStats(
        "e", estimate.cardinality, estimate.var_sizes, estimate.distinct
    )


def _same_numbers(got, want: TableStats):
    assert repr(got.cardinality) == repr(want.cardinality)
    assert list(got.var_sizes.items()) == list(want.var_sizes.items())
    assert [(v, repr(d)) for v, d in got.distinct.items()] == [
        (v, repr(d)) for v, d in want.distinct.items()
    ]


@st.composite
def dp_items(draw):
    """``(catalog, spec, items)``: hand-made item statistics over a small
    view — empty relations (cardinality and distinct counts 0.0), counts
    up to 1e-9 above the domain size, and items 0 and 1 sharing two or
    more variables."""
    n_vars = draw(st.integers(2, 5))
    variables = [var(f"x{i}", draw(st.integers(1, 4))) for i in range(n_vars)]
    catalog = Catalog()
    catalog.register(complete_relation(variables, name="view"))
    spec = QuerySpec(("view",), (variables[0].name,))
    items = []
    for i in range(draw(st.integers(2, 5))):
        scope = set(draw(st.sets(st.integers(0, n_vars - 1), min_size=1)))
        if i < 2:
            scope |= {0, 1}
        empty = draw(st.booleans()) and draw(st.booleans())
        cardinality = 0.0 if empty else draw(
            st.floats(1.0, 200.0) | st.integers(1, 60).map(float)
        )
        var_sizes, distinct = {}, {}
        for j in sorted(scope, key=lambda j: draw(st.integers(0, 9))):
            size = variables[j].size
            var_sizes[variables[j].name] = size
            distinct[variables[j].name] = 0.0 if empty else draw(
                st.sampled_from([1.0, float(size), size + 1e-9, size + 5e-10])
                | st.floats(0.0, float(size))
            )
        if draw(st.booleans()):  # distinct listed in another order
            distinct = dict(reversed(distinct.items()))
        stats = TableStats(f"s{i}", cardinality, var_sizes, distinct)
        items.append(SubPlan(Scan(f"s{i}"), stats, draw(st.floats(0.0, 10.0))))
    return catalog, spec, items


class TestEstimates:
    @given(
        dp_items(),
        st.sampled_from([linear_dp, bushy_dp]),
        st.booleans(),
        st.sampled_from(MODELS),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_every_record_equals_the_reference_stats(
        self, case, dp, use_groupbys, model, data
    ):
        catalog, spec, items = case
        context = PlanContext(spec, catalog, model())
        names = list(context.var_bits)
        outside = frozenset(data.draw(st.sets(st.sampled_from(names))))
        derived = []

        def recording(name):
            original = getattr(joinplan_module, name)

            def wrapper(*args):
                out = original(*args)
                derived.append((name, args, out))
                return out

            return wrapper

        with pytest.MonkeyPatch.context() as patch:
            for name in ("_joined", "_extended", "_grouped"):
                patch.setattr(joinplan_module, name, recording(name))
            result = dp(
                items, context, outside_needed=outside,
                use_groupbys=use_groupbys,
            )
        assert derived
        for name, args, out in derived:
            if name == "_grouped":
                child, needed, _ = args
                group = [v for v in child.var_sizes if context.var_bits[v] & needed]
                if len(group) == len(child.var_sizes):
                    assert out is None
                    continue
                assert list(out.group) == group
                _same_numbers(out, group_stats(_as_stats(child), group))
            else:
                left, right, cost = args
                assert out.cost == cost
                _same_numbers(
                    out, join_stats(_as_stats(left), _as_stats(right))
                )
        # The returned plan's statistics are the full set's record's.
        assert derived[-1][0] != "_grouped"
        _same_numbers(result.stats, derived[-1][2])
        # A search keeps small results left, so it rarely extends a
        # record into a smaller one; extend every record by every item.
        leaves = [Estimate.of(item, context) for item in items]
        for _, _, record in derived:
            if record is None:
                continue
            for leaf in leaves:
                want = join_stats(_as_stats(record), leaf.item.stats)
                _same_numbers(joinplan_module._extended(record, leaf, 0.0), want)
                _same_numbers(joinplan_module._joined(record, leaf, 0.0), want)
