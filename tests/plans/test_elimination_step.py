"""The VE elimination step, checked against an independent oracle.

A GroupBy over a product join that kept its inputs' rows aggregates
through the join (:func:`~repro.algebra.aggregate.marginalize`) instead
of gathering its columns.  Three things must hold:

* the answer is the MPF answer — the marginal of the full product join
  (:mod:`tests.oracle`, which shares no code with ``repro.algebra``) —
  through ``Database.execute``, serial and partitioned, on every
  builtin semiring;
* it is, bit for bit, the answer of the same plan with every GroupBy
  run over its join's materialized columns, with the same ``IOStats``
  down to the per-operator list;
* over a chain of joins only the key columns are ever gathered.

``DEFER_MIN_ROWS`` is patched to 0 so the few-row relations Hypothesis
draws take the late-materialized paths large ones take as shipped.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.algebra import dense, join
from repro.algebra.aggregate import marginalize
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.data import FunctionalRelation, complete_relation, var
from repro.plans import (
    ExecutionContext,
    GroupBy,
    ProductJoin,
    Scan,
    evaluate,
    evaluate_dag,
    lower,
    runtime,
)
from repro.query import MPFQuery, MPFView
from repro.semiring import ALL_SEMIRINGS, SUM_PRODUCT
from tests.oracle import assert_agrees, engine_answer, mpf_answer

# The view operation and SQL aggregate of each semiring the SQL front
# end names; log_prob has none and goes through run_query.
_SQL = {
    "sum_product": ("*", "sum"),
    "min_product": ("*", "min"),
    "max_product": ("*", "max"),
    "counting": ("*", "count"),
    "min_sum": ("+", "min"),
    "max_sum": ("+", "max"),
    "boolean": ("and", "or"),
}


@pytest.fixture(autouse=True, scope="module")
def _defer_at_every_size():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(join, "DEFER_MIN_ROWS", 0)
        yield


def _measure(semiring, n, rng):
    kind = semiring.dtype.kind
    if kind == "b":
        return rng.random(n) < 0.7
    if kind in "iu":
        return rng.integers(0, 4, n)
    values = rng.choice([0.1, 0.25, 0.5, 1.0, 2.0, 3.0], n)
    return np.log(values) if semiring.name == "log_prob" else values


@st.composite
def mpf_cases(draw):
    """``(relations, group_names, where, semiring)``: two to four
    relations over one to three of up to five small variables each —
    chains, stars, cycles and disconnected views all come up — with a
    random share of their rows, down to none."""
    semiring = draw(st.sampled_from(ALL_SEMIRINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vars = draw(st.integers(2, 5))
    variables = [var(f"v{i}", draw(st.integers(1, 4))) for i in range(n_vars)]
    relations = []
    for i in range(draw(st.integers(2, 4))):
        scope = sorted(draw(st.sets(
            st.integers(0, n_vars - 1), min_size=1, max_size=3
        )))
        scope_vars = [variables[j] for j in scope]
        grid = np.indices([v.size for v in scope_vars]).reshape(len(scope), -1)
        keep = rng.random(grid.shape[1]) < draw(st.sampled_from(
            [0.0, 0.4, 0.8, 1.0]
        ))
        grid = grid[:, keep]
        relations.append(FunctionalRelation(
            scope_vars,
            {v.name: grid[k] for k, v in enumerate(scope_vars)},
            _measure(semiring, grid.shape[1], rng),
            name=f"t{i}",
        ))
    used = sorted({n for r in relations for n in r.var_names})
    group_names = tuple(draw(st.permutations(used)))[
        : draw(st.integers(1, min(2, len(used))))
    ]
    where = {}
    if draw(st.booleans()):
        name = draw(st.sampled_from(used))
        size = next(v.size for r in relations for v in r.variables
                    if v.name == name)
        where[name] = draw(st.integers(0, size - 1))
    return relations, group_names, where, semiring


def _database(relations, semiring, partitioned):
    db = Database(workers=2 if partitioned else 1)
    for relation in relations:
        db.register(relation)
    op = _SQL.get(semiring.name, ("*", None))[0]
    db.create_view("v", tuple(r.name for r in relations), op)
    if partitioned:
        for relation in relations:
            db.catalog.partition_table(relation.name, relation.var_names[0], 2)
    return db


def _answer(db, relations, group_names, where, semiring, strategy):
    if semiring.name in _SQL:
        clause = " and ".join(f"{k}={v}" for k, v in where.items())
        sql = (
            f"select {', '.join(group_names)}, {_SQL[semiring.name][1]}(f)"
            f" from v{' where ' + clause if clause else ''}"
            f" group by {', '.join(group_names)}"
        )
        return db.execute(sql, strategy=strategy).result
    view = MPFView("v", tuple(r.name for r in relations), semiring)
    query = MPFQuery(view, group_names, selections=where)
    return db.run_query(query, strategy=strategy).result


_SETTINGS = settings(
    max_examples=120, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestAgainstTheOracle:
    @_SETTINGS
    @given(
        mpf_cases(),
        st.sampled_from(["ve+", "ve", "cs+"]),
        st.booleans(),
    )
    def test_execute_answers_the_marginal_of_the_join(
        self, case, strategy, partitioned
    ):
        relations, group_names, where, semiring = case
        event(f"semiring={semiring.name}")
        db = _database(relations, semiring, partitioned)
        result = _answer(db, relations, group_names, where, semiring, strategy)
        assert_agrees(
            engine_answer(result, group_names),
            mpf_answer(relations, group_names, semiring.name, where),
            semiring.name,
        )

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    @pytest.mark.parametrize("partitioned", [False, True],
                             ids=["serial", "partitioned"])
    def test_every_semiring_on_a_chain_eliminated_in_one_step(
        self, semiring, partitioned
    ):
        rng = np.random.default_rng(5)
        a, b, c, d = var("a", 4), var("b", 3), var("c", 4), var("d", 2)
        relations = []
        for i, scope in enumerate(((a, b), (b, c), (c, d))):
            grid = np.indices([v.size for v in scope]).reshape(2, -1)
            grid = grid[:, rng.random(grid.shape[1]) < 0.8]
            relations.append(FunctionalRelation(
                scope, {v.name: grid[k] for k, v in enumerate(scope)},
                _measure(semiring, grid.shape[1], rng), name=f"t{i}",
            ))
        db = _database(relations, semiring, partitioned)
        for group_names, where in ((("d",), {}), (("a",), {"c": 1})):
            result = _answer(
                db, relations, group_names, where, semiring, "ve+"
            )
            assert_agrees(
                engine_answer(result, group_names),
                mpf_answer(relations, group_names, semiring.name, where),
                semiring.name,
            )


def _result_bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return relation.var_names, keys.tobytes(), measure.tobytes()


def _stats(stats):
    return (
        stats.page_reads, stats.page_writes, stats.buffer_hits,
        stats.tuples_processed, stats.operators_run, stats.memo_hits,
        stats.per_operator,
    )


def _plain(relation):
    """``relation`` with its columns gathered: what a GroupBy over a
    materialized join sees."""
    return FunctionalRelation(
        relation.variables, dict(relation.columns), relation.measure,
        name=relation.name, check_fd=False,
    )


class TestEqualsTheMaterializedJoin:
    @_SETTINGS
    @given(mpf_cases(), st.sampled_from(["ve+", "cs+"]), st.booleans())
    def test_bit_for_bit_with_the_same_clock(self, case, strategy, sharded):
        relations, group_names, where, semiring = case
        db = _database(relations, semiring, sharded)
        view = MPFView("v", tuple(r.name for r in relations), semiring)
        spec = MPFQuery(view, group_names, selections=where).to_spec(
            db.catalog
        )
        plan = db.make_optimizer(strategy).optimize(
            spec, db.catalog, db.cost_model
        ).plan
        runs = []
        for materialize in (False, True):
            # A cached group index makes a GroupBy cheaper on the clock:
            # both runs start cold.
            DEFAULT_GROUP_INDEX_CACHE.clear()
            ctx = ExecutionContext(
                db.catalog, semiring, workers=2 if sharded else 1
            )
            with pytest.MonkeyPatch.context() as patch:
                if materialize:
                    patch.setattr(
                        runtime, "marginalize",
                        lambda rel, *a, **k: marginalize(_plain(rel), *a, **k),
                    )
                (result,) = evaluate_dag(lower(plan), ctx)
            runs.append((_result_bytes(result), _stats(ctx.stats)))
        assert runs[0] == runs[1]


# ----------------------------------------------------------------------
# A chain of foreign-key joins
# ----------------------------------------------------------------------
@pytest.fixture
def star_ctx(rng):
    """``fact(a, b)`` and dimensions ``s2(b, c)``, ``s3(c, d)`` with
    unique keys: every join probes the fact side's rows."""
    a, b, c, d = var("a", 5), var("b", 8), var("c", 6), var("d", 3)
    tables = {
        "s1": FunctionalRelation(
            [a, b], {"a": np.arange(40) % 5, "b": np.arange(40) // 5},
            rng.random(40) + 0.5, name="s1",
        ),
        "s2": FunctionalRelation(
            [b, c], {"b": np.arange(8), "c": np.arange(8) % 6},
            rng.random(8) + 0.5, name="s2",
        ),
        "s3": FunctionalRelation(
            [c, d], {"c": np.arange(6), "d": np.arange(6) % 3},
            rng.random(6) + 0.5, name="s3",
        ),
    }
    return ExecutionContext(tables, SUM_PRODUCT)


def _chain(*group_names):
    """GroupBy((s1 ⋈ s2) ⋈ s3)."""
    return GroupBy(
        ProductJoin(ProductJoin(Scan("s1"), Scan("s2")), Scan("s3")),
        group_names,
    )


class TestChain:
    @pytest.mark.parametrize("group_names", [("a",), ("d",), ("b",)])
    def test_only_join_keys_are_gathered(
        self, star_ctx, monkeypatch, group_names
    ):
        gathered = []
        real = join._gather

        def spy(relation, name, rows):
            gathered.append(name)
            return real(relation, name, rows)

        monkeypatch.setattr(join, "_gather", spy)
        # The dimensions are no grids, so every join runs sparse.
        assert dense.dense_form(star_ctx.env["s2"]) is None
        assert dense.dense_form(star_ctx.env["s3"]) is None
        fused = evaluate(_chain(*group_names), star_ctx)
        # The outer join reads its inner join's key c; the GroupBy reads
        # nothing of either join — a, b and d stay where they are.
        assert gathered == ["c"]
        monkeypatch.setattr(join, "DEFER_MIN_ROWS", 10**9)
        plain_ctx = ExecutionContext(dict(star_ctx.env), SUM_PRODUCT)
        materialized = evaluate(_chain(*group_names), plain_ctx)
        assert fused.equals(materialized, SUM_PRODUCT)
        assert _stats(star_ctx.stats) == _stats(plain_ctx.stats)

    @pytest.mark.parametrize("group_names", [("a",), ("d",), ("b",)])
    def test_a_grid_chain_gathers_nothing(self, rng, monkeypatch, group_names):
        """The chain's shape over grid-complete tables: both joins and
        the GroupBy run dense, no column of anything is gathered, and
        answer and clock are the sparse plan's."""
        a, b, c, d = var("a", 5), var("b", 8), var("c", 6), var("d", 3)
        tables = {
            name: complete_relation(scope, rng=rng, name=name)
            for name, scope in (("s1", [a, b]), ("s2", [b, c]),
                                ("s3", [c, d]))
        }
        gathered = []
        real = join._gather

        def spy(relation, name, rows):
            gathered.append(name)
            return real(relation, name, rows)

        monkeypatch.setattr(join, "_gather", spy)
        grid_ctx = ExecutionContext(dict(tables), SUM_PRODUCT)
        before = dense.dense_ops()
        folded = evaluate(_chain(*group_names), grid_ctx)
        assert gathered == []
        assert dense.dense_ops() == before + 3
        monkeypatch.setattr(dense, "dense_form", lambda relation: None)
        sparse_ctx = ExecutionContext(dict(tables), SUM_PRODUCT)
        sparse = evaluate(_chain(*group_names), sparse_ctx)
        assert _result_bytes(folded) == _result_bytes(sparse)
        assert _stats(grid_ctx.stats) == _stats(sparse_ctx.stats)
