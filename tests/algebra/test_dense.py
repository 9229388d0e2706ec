"""The dense small-domain kernels, differential against the sparse ones.

Grid-complete relations run as ndarrays (:mod:`repro.algebra.dense`).
Through ``Database.execute`` (``run_query`` for ``log_prob``, which has
no SQL aggregate), on generated complete, partly selected and empty
schemas and every builtin semiring, the dense run must

* give the sparse run's answer bit for bit on min, max, boolean and
  counting;
* agree with the independent oracle (:mod:`tests.oracle`) within 1e-12
  relative on sum-product and log;
* read, write and hit the same pages and run the same operators with
  the same row counts.

The sparse run is the same query with ``dense_form`` patched to refuse
every relation.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from repro import Database
from repro.algebra import dense, marginalize, product_join, restrict
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.data import FunctionalRelation, complete_relation, var
from repro.obs.metrics import MetricsRegistry
from repro.query import MPFQuery, MPFView
from repro.semiring import ALL_SEMIRINGS, SUM_PRODUCT
from tests.oracle import assert_agrees, engine_answer, mpf_answer

_SQL = {
    "sum_product": ("*", "sum"),
    "min_product": ("*", "min"),
    "max_product": ("*", "max"),
    "counting": ("*", "count"),
    "min_sum": ("+", "min"),
    "max_sum": ("+", "max"),
    "boolean": ("and", "or"),
}
_EXACT = {"min_sum", "max_sum", "min_product", "max_product", "boolean",
          "counting"}


def _measure(semiring, n, rng):
    kind = semiring.dtype.kind
    if kind == "b":
        return rng.random(n) < 0.7
    if kind in "iu":
        return rng.integers(0, 4, n)
    values = rng.choice([0.1, 0.25, 1 / 3, 0.5, 1.0, 2.0, 3.0], n)
    if semiring.name == "log_prob":
        values = np.log(values)
    values[rng.random(n) < 0.1] = semiring.zero
    return values


@st.composite
def dense_cases(draw):
    """``(relations, group_names, where, semiring, shape)``: two to four
    grid-complete relations over one to three of up to five small
    variables.  ``partly selected`` keeps a run of one variable's codes
    in each relation (still a grid), ``empty`` empties one relation;
    rows come in grid order or shuffled."""
    semiring = draw(st.sampled_from(ALL_SEMIRINGS))
    shape = draw(st.sampled_from(["complete", "partly selected", "empty"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vars = draw(st.integers(2, 5))
    variables = [var(f"v{i}", draw(st.integers(1, 4))) for i in range(n_vars)]
    n_relations = draw(st.integers(2, 4))
    emptied = draw(st.integers(0, n_relations - 1))
    relations = []
    for i in range(n_relations):
        scope = [variables[j] for j in sorted(draw(st.sets(
            st.integers(0, n_vars - 1), min_size=1, max_size=3
        )))]
        axes = [np.arange(v.size) for v in scope]
        if shape == "partly selected":
            k = draw(st.integers(0, len(scope) - 1))
            low = draw(st.integers(0, len(axes[k]) - 1))
            axes[k] = axes[k][low:draw(st.integers(low + 1, len(axes[k])))]
        if shape == "empty" and i == emptied:
            axes[0] = axes[0][:0]
        grid = np.stack(
            [g.reshape(-1) for g in np.meshgrid(*axes, indexing="ij")]
        ) if all(len(a) for a in axes) else np.zeros((len(scope), 0), int)
        if draw(st.booleans()):
            grid = grid[:, rng.permutation(grid.shape[1])]
        relations.append(FunctionalRelation(
            scope, {v.name: grid[k] for k, v in enumerate(scope)},
            _measure(semiring, grid.shape[1], rng), name=f"t{i}",
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
    return relations, group_names, where, semiring, shape


def _run(relations, group_names, where, semiring, strategy):
    """The answer, the run's counters and its ``IOStats``."""
    DEFAULT_GROUP_INDEX_CACHE.clear()
    registry = MetricsRegistry()
    db = Database(metrics=registry)
    for relation in relations:
        db.register(relation)
    names = tuple(r.name for r in relations)
    if semiring.name in _SQL:
        op, agg = _SQL[semiring.name]
        db.create_view("v", names, op)
        clause = " and ".join(f"{k}={v}" for k, v in where.items())
        report = db.execute(
            f"select {', '.join(group_names)}, {agg}(f) from v"
            f"{' where ' + clause if clause else ''}"
            f" group by {', '.join(group_names)}",
            strategy=strategy,
        )
    else:
        db.create_view("v", names)
        view = MPFView("v", names, semiring)
        report = db.run_query(
            MPFQuery(view, group_names, selections=where), strategy=strategy
        )
    assert report.error is None
    return report.result, registry.snapshot().to_dict(), report.exec_stats


def _counters(stats):
    """Pages, operators and each operator's row count.  The clock's
    tuples may differ: a dense node builds no group index, so a later
    GroupBy's cache peek can come out cold."""
    return (
        stats.page_reads, stats.page_writes, stats.buffer_hits,
        stats.operators_run, stats.memo_hits,
        list(stats.per_operator),
    )


def _bytes(relation):
    keys, measure = relation.sorted_snapshot()
    return relation.var_names, keys.tobytes(), measure.tobytes()


def _close_to_oracle(got, want, semiring):
    zero = semiring.dtype.type(semiring.zero)
    for key in got.keys() | want.keys():
        a, b = got.get(key, zero), want.get(key, zero)
        if np.isinf(b):
            assert a == b, (key, a, b)
        elif semiring.name == "log_prob":
            # 1e-12 relative in linear space.
            assert abs(a - b) <= 1e-12, (key, a, b)
        else:
            assert abs(a - b) <= 1e-12 * abs(b), (key, a, b)


_SETTINGS = settings(
    max_examples=100, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestDenseAgainstSparse:
    @_SETTINGS
    @given(dense_cases(), st.sampled_from(["ve+", "ve", "cs+"]))
    def test_execute_dense_equals_sparse(self, case, strategy):
        relations, group_names, where, semiring, shape = case
        event(f"semiring={semiring.name}")
        event(f"shape={shape}")
        result, counters, stats = _run(
            relations, group_names, where, semiring, strategy
        )
        fired = counters.get("kernel.dense_ops", {"value": 0})["value"]
        event(f"dense={fired > 0}")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dense, "dense_form", lambda relation: None)
            sparse, sparse_counters, sparse_stats = _run(
                relations, group_names, where, semiring, strategy
            )
        assert "kernel.dense_ops" not in sparse_counters
        assert _counters(stats) == _counters(sparse_stats)
        want = mpf_answer(relations, group_names, semiring.name, where)
        got = engine_answer(result, group_names)
        if semiring.name in _EXACT:
            assert _bytes(result) == _bytes(sparse)
            assert_agrees(got, want, semiring.name)
        else:
            _close_to_oracle(got, want, semiring)

    @pytest.mark.parametrize("semiring", ALL_SEMIRINGS, ids=lambda s: s.name)
    def test_a_complete_chain_runs_dense(self, semiring):
        rng = np.random.default_rng(7)
        a, b, c = var("a", 3), var("b", 4), var("c", 2)
        relations = []
        for i, scope in enumerate(((a, b), (b, c))):
            relation = complete_relation(scope, rng=rng, name=f"t{i}")
            relations.append(relation.with_measure(
                _measure(semiring, relation.ntuples, rng)
            ))
        result, counters, _ = _run(
            relations, ("a",), {"c": 1}, semiring, "ve+"
        )
        assert counters["kernel.dense_ops"]["value"] >= 3
        got = engine_answer(result, ("a",))
        want = mpf_answer(relations, ("a",), semiring.name, {"c": 1})
        if semiring.name in _EXACT:
            assert_agrees(got, want, semiring.name)
        else:
            _close_to_oracle(got, want, semiring)


# ----------------------------------------------------------------------
# The kernels and the form
# ----------------------------------------------------------------------
class TestForm:
    def test_grid_order_is_held_without_a_copy(self):
        a, b = var("a", 3), var("b", 2)
        relation = complete_relation([a, b])
        form = dense.dense_form(relation)
        assert form.array.shape == (3, 2)
        assert np.shares_memory(form.array, relation.measure)
        assert dense.dense_form(relation) is form

    def test_shuffled_rows_are_scattered_into_place(self):
        a, b = var("a", 3), var("b", 2)
        relation = complete_relation([a, b])
        shuffled = relation.take(np.array([5, 0, 3, 1, 4, 2]))
        form = dense.dense_form(shuffled)
        assert np.array_equal(
            form.array.reshape(-1), relation.measure
        )

    def test_a_selection_keeps_its_code(self):
        a, b = var("a", 5), var("b", 3)
        relation = restrict(complete_relation([a, b]), {"a": 3})
        assert isinstance(relation, dense.DenseRelation)
        form = dense.dense_form(relation)
        assert form.array.shape == (1, 3)
        assert form.lows == (3, 0)
        assert relation.ntuples == 3
        assert list(relation.columns["a"]) == [3, 3, 3]
        assert list(relation.columns["b"]) == [0, 1, 2]

    def test_joined_runs_overlap(self):
        a, b = var("a", 5), var("b", 2)
        low = restrict(complete_relation([a, b]), {"a": 1})
        both = product_join(
            complete_relation([b]), low, SUM_PRODUCT
        )
        assert dense.dense_form(both).lows == (0, 1)
        assert product_join(
            low, restrict(complete_relation([a]), {"a": 2}), SUM_PRODUCT
        ).ntuples == 0

    @pytest.mark.parametrize("rows", [
        [0, 1, 2, 3, 4],          # one cell short of the grid
        [0, 1, 2, 3, 4, 4],       # a repeated key
        [0, 1, 4, 5],             # a gap in a's codes
    ])
    def test_a_non_grid_is_refused_once(self, rows):
        a, b = var("a", 3), var("b", 2)
        relation = complete_relation([a, b]).take(np.array(rows))
        assert dense.dense_form(relation) is None
        assert relation._dense is None

    def test_over_the_bound_is_refused(self, monkeypatch):
        monkeypatch.setattr(dense, "DENSE_MAX_CELLS", 5)
        relation = complete_relation([var("a", 3), var("b", 2)])
        assert dense.dense_form(relation) is None

    def test_a_join_over_the_bound_runs_sparse(self, monkeypatch):
        a, b, c = var("a", 3), var("b", 2), var("c", 3)
        left = complete_relation([a, b])
        right = complete_relation([b, c])
        monkeypatch.setattr(dense, "DENSE_MAX_CELLS", 17)
        joined = product_join(left, right, SUM_PRODUCT)
        assert not isinstance(joined, dense.DenseRelation)
        assert joined.ntuples == 18

    def test_a_selection_of_an_absent_code_is_empty(self):
        relation = restrict(
            restrict(complete_relation([var("a", 3), var("b", 2)]),
                     {"a": 1}),
            {"a": 2},
        )
        assert relation.ntuples == 0
        folded = marginalize(relation, ("b",), SUM_PRODUCT)
        assert folded.ntuples == 0
        assert marginalize(relation, (), SUM_PRODUCT).measure.tolist() == [
            0.0
        ]

    def test_a_selection_cannot_write_into_its_input(self):
        relation = complete_relation([var("a", 3), var("b", 2)])
        selected = restrict(relation, {"a": 1})
        with pytest.raises(ValueError):
            selected.measure[0] = 7.0
        assert relation.measure[2] != 7.0
