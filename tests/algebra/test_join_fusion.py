"""Late-materialized joins and the GroupBy that aggregates through them.

A join with a unique, dense build side returns a relation whose columns
are gathered on first access, and a GroupBy whose group variables live
in one of the join's inputs aggregates on that input's own rows.
Nothing may be able to tell: the fused GroupBy equals the materialized
one byte for byte on every builtin semiring, whatever touched the join
first.

``DEFER_MIN_ROWS`` is patched to 0 so the few-row relations Hypothesis
draws take the paths large ones take as shipped; patched to a huge
value it gives the join as it ran before late materialization existed
(left side probes, output built at once) — the reference of the
engine-level comparison.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.algebra import (
    dense,
    join,
    marginalize,
    product_join,
    quotient_join,
)
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE, GroupIndexCache
from repro.data import FunctionalRelation, var
from repro.datagen import supply_chain
from repro.errors import SemiringError
from repro.obs.trace import QueryTracer
from repro.semiring import (
    ALL_SEMIRINGS,
    BOOLEAN,
    LOG_PROB,
    MIN_PRODUCT,
    SUM_PRODUCT,
)
from repro.storage import CheckpointManager

NEVER = 10**12


@pytest.fixture(autouse=True, scope="module")
def _defer_at_every_size():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(join, "DEFER_MIN_ROWS", 0)
        yield


# ----------------------------------------------------------------------
# Generated joins
# ----------------------------------------------------------------------
def _measure(semiring, n, rng):
    """Measures with repeats, the additive identity and exact ties."""
    kind = semiring.dtype.kind
    if kind == "b":
        return rng.random(n) < 0.6
    if kind in "iu":
        return rng.integers(0, 4, n)
    values = rng.choice([0.1, 0.25, 1 / 3, 0.5, 1.0, 1.5, 3.0, 1e-9], n)
    if semiring is LOG_PROB:
        values = np.log(values)
    values[rng.random(n) < 0.1] = semiring.zero
    return values


def _rows(variables, codes, semiring, rng):
    """A relation holding the given flat row codes, in a shuffled order."""
    codes = rng.permutation(np.asarray(codes, dtype=np.int64))
    columns, divisor = {}, 1
    for v in variables:
        divisor *= v.size
    for v in variables:
        divisor //= v.size
        columns[v.name] = (codes // divisor) % v.size
    return FunctionalRelation(
        variables, columns, _measure(semiring, len(codes), rng)
    )


@st.composite
def join_cases(draw):
    """``(left, right, group_names, semiring)``.

    One side (``build``) draws keys from a chosen subset of the key
    space, once each unless it also has a variable of its own with more
    than one value (non-unique keys); the other (``probe``) repeats
    keys freely, inside that subset (full match), outside it (none) or
    anywhere.  Either may come out empty or as a single row, the key is
    one or two columns, and a 60-value key column makes the build keys
    sparse.
    """
    semiring = draw(st.sampled_from(ALL_SEMIRINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        keys = [var("k0", draw(st.integers(1, 6))),
                var("k1", draw(st.integers(1, 4)))]
    else:
        keys = [var("k0", draw(st.sampled_from([1, 3, 8, 60])))]
    n_keys = int(np.prod([k.size for k in keys]))
    # The right side probes only against a smaller left side with unique
    # keys that keeps a good share of its rows; a third of the draws are
    # steered there, the rest roam.
    steer = draw(st.integers(0, 2)) == 0
    p = var("p", draw(st.integers(2 if steer else 1, 4)))
    q = var("q", 1 if steer else draw(st.sampled_from([1, 1, 2, 3])))

    build_keys = rng.permutation(n_keys)[: draw(st.integers(0, n_keys))]
    build_codes = [
        key * q.size + own
        for key in build_keys
        for own in rng.permutation(q.size)[: rng.integers(1, q.size + 1)]
    ]
    match = draw(st.sampled_from(["full", "any"] if steer
                                 else ["full", "none", "any"]))
    pool = {
        "full": build_keys,
        "none": np.setdiff1d(np.arange(n_keys), build_keys),
        "any": np.arange(n_keys),
    }[match]
    candidates = [key * p.size + own for key in pool for own in range(p.size)]
    n_probe = draw(st.integers(
        min(len(build_codes) + 1, len(candidates)) if steer else 0,
        len(candidates),
    ))
    probe_codes = rng.permutation(candidates)[:n_probe]

    build = _rows(keys + [q], build_codes, semiring, rng)
    probe = _rows(keys + [p], probe_codes, semiring, rng)
    build_first = steer or draw(st.booleans())
    left, right = (build, probe) if build_first else (probe, build)
    names = [v.name for v in keys] + ["p", "q"]
    group_names = tuple(draw(st.permutations(names)))[
        : draw(st.integers(0, len(names)))
    ]
    return left, right, group_names, semiring


def _plain(relation):
    """The same rows in a relation built by the public constructor."""
    plain = relation.copy()
    assert type(plain) is FunctionalRelation
    return plain


def _assert_same_bytes(got, want):
    assert got.var_names == want.var_names
    assert got.ntuples == want.ntuples
    assert got.measure.dtype == want.measure.dtype
    assert got.measure.tobytes() == want.measure.tobytes()
    for name in want.var_names:
        assert got.columns[name].dtype == want.columns[name].dtype
        assert got.columns[name].tobytes() == want.columns[name].tobytes()


_SETTINGS = settings(
    max_examples=300, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestFusedEqualsMaterialized:
    @_SETTINGS
    @given(join_cases())
    def test_group_by_over_the_join(self, case):
        left, right, group_names, semiring = case
        joined = product_join(left, right, semiring)
        assert isinstance(joined, FunctionalRelation)
        deferred = isinstance(joined, join._DeferredJoin)
        event(f"deferred={deferred}")
        if deferred:
            probe, i_probe = joined.sources[0]
            event(f"probe_is_left={probe is left}")
            event(f"all_matched={i_probe is None}")
        fused = marginalize(
            joined, group_names, semiring, cache=GroupIndexCache()
        )
        materialized = marginalize(
            _plain(product_join(left, right, semiring)),
            group_names, semiring, cache=GroupIndexCache(),
        )
        _assert_same_bytes(fused, materialized)

    @_SETTINGS
    @given(join_cases())
    def test_the_join_itself_is_its_plain_copy(self, case):
        left, right, _, semiring = case
        with pytest.MonkeyPatch.context() as patch:
            # The sparse join, also where both draws are grid-complete.
            patch.setattr(dense, "dense_form", lambda relation: None)
            joined = product_join(left, right, semiring)
            patch.setattr(join, "DEFER_MIN_ROWS", NEVER)
            eager = product_join(left, right, semiring)
        # Where the dense join runs it is the same function.
        if (dense.dense_form(left) is not None
                and dense.dense_form(right) is not None):
            event("dense")
            assert product_join(left, right, semiring).equals(
                eager, semiring
            )
        assert type(eager) is FunctionalRelation
        assert joined.ntuples == eager.ntuples
        assert joined.var_names == eager.var_names
        # Same function; the same rows in the same order whenever the
        # left side probed, which it always does in the eager join.
        assert joined.equals(eager, semiring) or joined.ntuples == 0
        if (
            not isinstance(joined, join._DeferredJoin)
            or joined.sources[0][0] is left
        ):
            _assert_same_bytes(joined, eager)

    @_SETTINGS
    @given(join_cases(), st.sampled_from(["columns", "measure", "copy",
                                          "group_by_first", "checkpoint"]))
    def test_what_touched_the_join_first_changes_nothing(
        self, tmp_path_factory, case, touch
    ):
        left, right, group_names, semiring = case
        untouched = marginalize(
            product_join(left, right, semiring), group_names, semiring,
            cache=GroupIndexCache(),
        )
        joined = product_join(left, right, semiring)
        if touch == "columns":
            assert len(joined.columns) == joined.arity
        elif touch == "measure":
            assert len(joined.measure) == joined.ntuples
        elif touch == "copy":
            joined.copy()
        elif touch == "group_by_first":
            marginalize(joined, joined.var_names[:1], semiring)
        elif joined.arity and joined.ntuples:
            directory = tmp_path_factory.mktemp("ckpt")
            db = Database()
            db.register(joined, "joined")
            manager = CheckpointManager(str(directory))
            data = manager.load(manager.checkpoint(db))
            (entry,) = data.manifest["tables"]
            restored = data.relation(entry)
            _assert_same_bytes(restored, joined)
            joined = restored
        touched = marginalize(
            joined, group_names, semiring, cache=GroupIndexCache()
        )
        _assert_same_bytes(touched, untouched)


# ----------------------------------------------------------------------
# Fixed shapes: which path ran, and what it did not do
# ----------------------------------------------------------------------
@pytest.fixture
def gathers(monkeypatch):
    """Names the columns deferred joins gather, one entry per gather."""
    calls = []
    real = join._gather

    def spy(relation, name, rows):
        calls.append(name)
        return real(relation, name, rows)

    monkeypatch.setattr(join, "_gather", spy)
    return calls


def _fact_and_dimension(rng, match=1.0, n=200, keys=40, groups=7):
    """``fact(k, g)`` with repeated keys and ``dim(k)`` with unique ones
    covering a ``match`` share of the key space."""
    k, g = var("k", keys), var("g", groups)
    codes = rng.permutation(keys * groups)[:n]
    fact = FunctionalRelation(
        [k, g], {"k": codes // groups, "g": codes % groups},
        rng.random(n) + 0.5, name="fact",
    )
    present = np.sort(rng.permutation(keys)[: max(1, round(keys * match))])
    dim = FunctionalRelation(
        [k], {"k": present}, rng.random(len(present)) + 0.5, name="dim"
    )
    return fact, dim


class TestDeferredJoin:
    @pytest.mark.parametrize("dim_on_the_left", [True, False])
    @pytest.mark.parametrize("match", [1.0, 0.75])
    def test_the_large_side_probes_and_nothing_is_gathered(
        self, rng, gathers, dim_on_the_left, match
    ):
        fact, dim = _fact_and_dimension(rng, match)
        sides = (dim, fact) if dim_on_the_left else (fact, dim)
        joined = product_join(*sides, SUM_PRODUCT)
        assert isinstance(joined, join._DeferredJoin)
        probe, i_probe = joined.sources[0]
        assert probe is fact
        assert (i_probe is None) == (match == 1.0)
        assert joined.ntuples == int(np.isin(fact.columns["k"],
                                             dim.columns["k"]).sum())
        assert joined.arity == 2 and set(joined.var_names) == {"k", "g"}
        assert joined.fingerprint not in (fact.fingerprint, dim.fingerprint)
        assert "ntuples=" in repr(joined)
        out = marginalize(joined, ("g",), SUM_PRODUCT)
        assert gathers == []
        # ... and the GroupBy left the probe side's index in the cache,
        # not one over a join nobody built.
        assert DEFAULT_GROUP_INDEX_CACHE.contains(fact, ("g",))
        assert not DEFAULT_GROUP_INDEX_CACHE.contains(joined, ("g",))
        _assert_same_bytes(
            out, marginalize(_plain(joined), ("g",), SUM_PRODUCT)
        )
        assert sorted(gathers) == ["g", "k"]
        joined.columns
        assert sorted(gathers) == ["g", "k"]

    def test_group_variable_on_the_build_side_materializes(
        self, rng, gathers
    ):
        k, g, z = var("k", 40), var("g", 7), var("z", 3)
        fact, _ = _fact_and_dimension(rng)
        dim = FunctionalRelation(
            [k, z], {"k": np.arange(40), "z": np.arange(40) % 3},
            rng.random(40) + 0.5,
        )
        joined = product_join(fact, dim, MIN_PRODUCT)
        assert isinstance(joined, join._DeferredJoin)
        # z and g live in different inputs: their columns are gathered
        # and indexed like any relation's, and only theirs.
        out = marginalize(joined, ("z", "g"), MIN_PRODUCT)
        assert sorted(gathers) == ["g", "z"]
        _assert_same_bytes(
            out, marginalize(_plain(joined), ("z", "g"), MIN_PRODUCT)
        )

    def test_group_variable_of_one_build_side_aggregates_there(
        self, rng, gathers
    ):
        k, z = var("k", 40), var("z", 3)
        fact, _ = _fact_and_dimension(rng)
        dim = FunctionalRelation(
            [k, z], {"k": np.arange(40), "z": np.arange(40) % 3},
            rng.random(40) + 0.5,
        )
        joined = product_join(fact, dim, SUM_PRODUCT)
        # Every join row has one dim partner: the dim's own index says
        # which z group it falls in.
        out = marginalize(joined, ("z",), SUM_PRODUCT)
        assert gathers == []
        assert DEFAULT_GROUP_INDEX_CACHE.contains(dim, ("z",))
        _assert_same_bytes(
            out, marginalize(_plain(joined), ("z",), SUM_PRODUCT)
        )

    def test_few_matches_keep_the_run_expanding_join(self, rng, gathers):
        """A handful of matches in a large right side: walking every
        right row would cost more than expanding the matching runs."""
        fact, dim = _fact_and_dimension(rng, match=0.05)
        joined = product_join(dim, fact, SUM_PRODUCT)
        assert type(joined) is FunctionalRelation
        assert 0 < joined.ntuples * join.PROBE_KEEP_FACTOR < fact.ntuples
        # Left-major, as join_match_indices documents.
        i_left, i_right = join.join_match_indices(dim, fact, ("k",))
        assert np.array_equal(joined.columns["g"], fact.columns["g"][i_right])
        assert np.array_equal(joined.columns["k"], dim.columns["k"][i_left])

    def test_few_matches_on_the_left_probe_do_not_fuse(self, rng, gathers):
        fact, dim = _fact_and_dimension(rng, match=0.05)
        joined = product_join(fact, dim, SUM_PRODUCT)
        assert isinstance(joined, join._DeferredJoin)
        assert joined.sources[0][0] is fact
        # Indexing every fact row to group the few matches would cost
        # more than indexing the matches: the g column is gathered.
        out = marginalize(joined, ("g",), SUM_PRODUCT)
        assert gathers == ["g"]
        assert not DEFAULT_GROUP_INDEX_CACHE.contains(fact, ("g",))
        _assert_same_bytes(
            out, marginalize(_plain(joined), ("g",), SUM_PRODUCT)
        )

    def test_below_the_row_floor_the_join_is_built_at_once(
        self, rng, monkeypatch
    ):
        fact, dim = _fact_and_dimension(rng)
        monkeypatch.setattr(join, "DEFER_MIN_ROWS", fact.ntuples + 1)
        for sides in ((fact, dim), (dim, fact)):
            assert type(product_join(*sides, SUM_PRODUCT)) is FunctionalRelation
        monkeypatch.setattr(join, "DEFER_MIN_ROWS", fact.ntuples)
        for sides in ((fact, dim), (dim, fact)):
            assert isinstance(
                product_join(*sides, SUM_PRODUCT), join._DeferredJoin
            )

    def test_pass_through_columns_are_read_only(self, rng):
        fact, dim = _fact_and_dimension(rng)
        before = {n: c.copy() for n, c in fact.columns.items()}
        joined = product_join(dim, fact, SUM_PRODUCT)
        for name in fact.var_names:
            assert np.shares_memory(joined.columns[name], fact.columns[name])
            with pytest.raises(ValueError, match="read-only"):
                joined.columns[name][0] = 1
            assert fact.columns[name].flags.writeable
            assert np.array_equal(fact.columns[name], before[name])
        assert not np.shares_memory(joined.measure, fact.measure)

    def test_relation_methods_return_plain_relations(self, rng):
        fact, dim = _fact_and_dimension(rng, match=0.75)
        joined = product_join(dim, fact, SUM_PRODUCT)
        plain = _plain(joined)
        rows = np.arange(0, joined.ntuples, 3)
        for derived, want in (
            (joined.take(rows), plain.take(rows)),
            (joined.reorder(("g", "k")), plain.reorder(("g", "k"))),
            (joined.rename({"g": "h"}), plain.rename({"g": "h"})),
            (joined.with_measure(plain.measure * 2),
             plain.with_measure(plain.measure * 2)),
            (joined.with_name("j"), plain.with_name("j")),
            (joined.copy(), plain.copy()),
            (joined.drop_zero_rows(SUM_PRODUCT),
             plain.drop_zero_rows(SUM_PRODUCT)),
        ):
            assert type(derived) is FunctionalRelation
            assert type(derived.columns) is dict
            _assert_same_bytes(derived, want)
        assert joined.equals(plain, SUM_PRODUCT)
        assert plain.equals(joined, SUM_PRODUCT)
        assert joined.to_dict() == plain.to_dict()
        assert joined.head(3) == plain.head(3)
        again = product_join(joined, dim, SUM_PRODUCT)
        assert again.equals(product_join(plain, dim, SUM_PRODUCT), SUM_PRODUCT)

    def test_errors_surface_at_the_call(self, rng):
        fact, dim = _fact_and_dimension(rng)
        truths = fact.with_measure(fact.measure > 1.0)
        with pytest.raises(SemiringError):
            quotient_join(truths, truths, BOOLEAN)
        with pytest.raises(SemiringError):
            quotient_join(truths, dim.with_measure(dim.measure > 1.0), BOOLEAN)


# ----------------------------------------------------------------------
# Engine level: the simulated clock cannot tell
# ----------------------------------------------------------------------
_CHAIN = ("pid", "sid", "wid", "cid", "tid")


def _templates(relations):
    """The ``dss_exec`` op cycle of perfbench: five group-by variables x
    {sum, min} x {no selection, 2 x tid=k, 2 x cid=k}."""
    rng = np.random.default_rng(3)
    wheres = [""]
    for name, table in (("tid", "ctdeals"), ("cid", "warehouses")):
        present = np.unique(relations[table].columns[name])
        for code in rng.choice(present, size=2, replace=False):
            wheres.append(f" where {name}={int(code)}")
    return [
        f"select {v}, {agg}(inv) from invest{where} group by {v}"
        for v in _CHAIN for agg in ("sum", "min") for where in wheres
    ]


def _analyzed(sharded, tracer=False):
    """Every template's per-operator actuals and totals on a fresh
    engine with a cold kernel cache."""
    DEFAULT_GROUP_INDEX_CACHE.clear()
    chain = supply_chain(scale=0.01, seed=11)
    relations = {t: chain.catalog.relation(t) for t in chain.tables}
    db = Database(workers=2 if sharded else 1)
    for name in chain.tables:
        db.register(relations[name], name)
    db.create_view("invest", chain.tables)
    if sharded:
        db.catalog.partition_table("location", "wid", 4)
    out = []
    for sql in _templates(relations):
        report = db.explain_analyze(sql, strategy="ve+")
        total = report.profile.total
        out.append((
            sql,
            [(op.label, op.out_rows, op.tuples, op.elapsed)
             for op in report.profile.operators],
            (total.page_reads, total.page_writes, total.buffer_hits,
             total.tuples_processed, total.elapsed()),
            report.result,
        ))
        if tracer:
            traced = db.execute(sql, strategy="ve+", tracer=QueryTracer())
            _assert_same_bytes(traced.result, report.result)
    return out


@pytest.mark.parametrize("sharded", [False, True], ids=["serial", "sharded"])
def test_simulated_clock_matches_the_eager_join(sharded):
    """out_rows / tuples / elapsed per operator and the IOStats totals of
    the 50 templates, deferring everywhere vs. nowhere."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(join, "DEFER_MIN_ROWS", NEVER)
        eager = _analyzed(sharded)
    deferred = _analyzed(sharded, tracer=True)
    assert len(deferred) == len(eager) == 50
    for (sql, operators, totals, result), (_, want_ops, want_totals, want) in zip(
        deferred, eager
    ):
        assert operators == want_ops, sql
        assert totals == want_totals, sql
        assert result.var_names == want.var_names
        assert np.array_equal(result.columns[result.var_names[0]],
                              want.columns[want.var_names[0]])
        if " min(" in sql:
            assert result.measure.tobytes() == want.measure.tobytes()
        else:
            # A probing right side lists the join in another row order,
            # so a float sum may round differently.
            assert np.allclose(result.measure, want.measure, rtol=1e-12)
