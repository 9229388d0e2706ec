"""Kernel microbenchmark — counting vs sorting, in wall-clock time.

The algebra kernels take a linear-time path when composite keys are
dense (``span <= DENSE_SPAN_FACTOR * n``, see
:mod:`repro.data.encoding`) and a comparison sort otherwise.  This
bench times both paths on the same inputs — the group-index build,
``marginalize`` under ``sum`` and ``min``, and a foreign-key
``product_join`` — at n ∈ {1e3, 1e5, 1e6} rows and span/n from 0.01
to 100, and checks they return the same bytes.  The table it writes is
what fixes the threshold constant (``EXPERIMENTS.md`` holds a copy).

A second table, ``kernels_join_groupby``, times the elimination step
itself — ``GroupBy(dimension ⋈ fact)`` with the group variable on the
fact side — with the fact side *kept* (it probes the dimension's unique
keys row by row, its columns are never gathered, and the GroupBy runs
on its own group index) and *not kept* (runs expanded or columns
gathered, then an index over the join), at match fractions from 1.0 to
0.01, cold and warm, with the dimension on either side.  It fixes
``repro.algebra.join.PROBE_KEEP_FACTOR`` and shows what
``DEFER_MIN_ROWS`` leaves on the table.  A third, ``kernels_eliminate_
small``, times the same step on the few-row shapes of the planning-
bound workloads, fused and as a plain join-then-GroupBy.

A fourth, ``kernels_aggregate``, times grouped aggregation two ways
over 2e5 rows at 2 to 1e5 groups: a scatter by the row→group inverse
(what ``Semiring.aggregate`` does) and a segment ``reduceat`` over the
sorted order (the path it no longer has), on the semirings whose
``plus`` has a ``reduceat``.

Unlike the gated suites this one reads the machine's clock, so it has
no committed golden: every cell is a median of repeats, with a
cold group-index cache unless the column says warm.  The span/n = 100
rows at n = 1e6 force a table over 1e8 slots through the counting path
and need ~3 GB.
"""

from __future__ import annotations

import math
import time
from statistics import median

import numpy as np
import pytest

from _harness import reporter

from repro.algebra import join, marginalize, product_join
from repro.algebra.groupindex import (
    DEFAULT_GROUP_INDEX_CACHE,
    GroupIndex,
    GroupIndexCache,
)
from repro.data import FunctionalRelation, encoding, var
from repro.semiring import BOOLEAN, LOG_PROB, MIN_PRODUCT, SUM_PRODUCT

SIZES = (1_000, 100_000, 1_000_000)
RATIOS = (0.01, 0.1, 1, 4, 16, 100)
SEED = 12

_REPORT = reporter(
    "kernels",
    "Algebra kernels — counting (dense) vs sorting, median wall ms, "
    "cold group-index cache",
    ["n", "span_per_n", "span",
     "groupindex_dense_ms", "groupindex_sort_ms",
     "marg_sum_dense_ms", "marg_sum_sort_ms",
     "marg_min_dense_ms", "marg_min_sort_ms",
     "join_dense_ms", "join_sort_ms"],
)


def _fact_and_dimension(n: int, span: int, rng):
    """An n-row fact table whose key ``k`` spans exactly ``span`` codes
    and the dimension table (unique ``k``) it references."""
    if span <= n:
        present = np.arange(span, dtype=np.int64)
    else:
        # n distinct codes, one drawn from each stride of the span.
        stride = span // n
        present = np.arange(n, dtype=np.int64) * stride
        present += rng.integers(0, stride, n)
        present[0], present[-1] = 0, span - 1
    codes = rng.choice(present, size=n)
    codes[:2] = 0, span - 1
    k, row, attr = var("k", span), var("row", n), var("attr", 7)
    fact = FunctionalRelation(
        [k, row],
        {"k": codes, "row": np.arange(n, dtype=np.int64)},
        rng.random(n) + 0.5,
        check_fd=False,
    )
    dimension = FunctionalRelation(
        [k, attr],
        {"k": rng.permutation(present),
         "attr": rng.integers(0, 7, len(present))},
        rng.random(len(present)) + 0.5,
        check_fd=False,
    )
    return fact, dimension


def _timed(kernel, repeats: int, cold: bool = True):
    """(median milliseconds, last result) of ``kernel()`` run cold — or
    warm, the group-index cache left as the previous call found it (a
    base table's index is there after one query)."""
    if not cold:
        kernel()
    samples = []
    for _ in range(repeats):
        if cold:
            DEFAULT_GROUP_INDEX_CACHE.clear()
        started = time.perf_counter()
        result = kernel()
        samples.append((time.perf_counter() - started) * 1e3)
    return median(samples), result


def _materialized(relation):
    relation.columns
    return relation


_INDEX_ARRAYS = ("order", "starts", "first_idx", "inverse", "unique_keys")


def _same_bytes(a, b) -> bool:
    if isinstance(a, GroupIndex):
        return all(
            getattr(a, f).dtype == getattr(b, f).dtype
            and np.array_equal(getattr(a, f), getattr(b, f))
            for f in _INDEX_ARRAYS
        )
    return (
        a.measure.tobytes() == b.measure.tobytes()
        and all(np.array_equal(a.columns[c], b.columns[c]) for c in a.columns)
    )


@pytest.mark.parametrize("ratio", RATIOS)
@pytest.mark.parametrize("n", SIZES)
def test_dense_vs_sort(benchmark, monkeypatch, n, ratio):
    span = max(2, round(n * ratio))
    fact, dimension = _fact_and_dimension(
        n, span, np.random.default_rng(SEED)
    )
    keys = fact.key_codes(("k",))
    kernels = [
        lambda: GroupIndex(keys),
        lambda: marginalize(
            fact, ("k",), SUM_PRODUCT, cache=GroupIndexCache()
        ),
        lambda: marginalize(
            fact, ("k",), MIN_PRODUCT, cache=GroupIndexCache()
        ),
        # Columns touched inside the timed region: a large join gathers
        # them on first access.
        lambda: _materialized(product_join(fact, dimension, SUM_PRODUCT)),
    ]
    repeats = 9 if n < 1_000_000 else 3
    cells = []
    with monkeypatch.context() as patch:
        for kernel in kernels:
            pair = []
            # inf forces the counting path, 0 the sort, whatever the span.
            for factor in (math.inf, 0):
                patch.setattr(encoding, "DENSE_SPAN_FACTOR", factor)
                pair.append(_timed(kernel, repeats))
            (dense_ms, dense), (sort_ms, sort) = pair
            assert _same_bytes(dense, sort)
            cells += [dense_ms, sort_ms]
    DEFAULT_GROUP_INDEX_CACHE.clear()

    # pytest-benchmark's own timing: the build as shipped (threshold on).
    benchmark.pedantic(GroupIndex, args=(keys,), rounds=3)
    _REPORT.metrics.counter("bench.kernel_cases").inc()
    _REPORT.add(n, float(ratio), span, *cells)


# ----------------------------------------------------------------------
# GroupBy through a join: keep the probe side, or not
# ----------------------------------------------------------------------
JOIN_GROUPBY_SHAPES = (
    # (fact rows, dimension rows, match fractions)
    (1_000, 64, (1.0, 0.6)),
    (4_000, 256, (1.0, 0.6)),
    (16_000, 1_000, (1.0, 0.6)),
    (200_000, 1_000, (1.0, 0.6, 0.25, 0.1, 0.01)),
    (200_000, 12_000, (1.0, 0.6, 0.25, 0.1, 0.01)),
    (1_000_000, 1_000, (1.0, 0.6, 0.25, 0.1, 0.01)),
    (1_000_000, 12_000, (1.0, 0.6, 0.25, 0.1, 0.01)),
)

_JOIN_GROUPBY = reporter(
    "kernels_join_groupby",
    "GroupBy(dimension join fact) on a fact-side variable — fact side "
    "kept (probes, GroupBy fused) vs not, median wall ms",
    ["fact_rows", "dim_rows", "match", "agg",
     "dim_left_kept_cold_ms", "dim_left_kept_warm_ms",
     "dim_left_expanded_cold_ms", "dim_left_expanded_warm_ms",
     "dim_right_fused_cold_ms", "dim_right_fused_warm_ms",
     "dim_right_gathered_cold_ms", "dim_right_gathered_warm_ms"],
)


def _star(n: int, dim_rows: int, match: float, rng, groups: int = 1_000):
    """``fact(k, g)`` whose keys hit ``dim(k)`` (unique, half the key
    space) on a ``match`` share of its rows."""
    k, g = var("k", 2 * dim_rows), var("g", min(groups, max(4, n // 64)))
    present = np.sort(rng.choice(k.size, size=dim_rows, replace=False))
    absent = np.setdiff1d(np.arange(k.size), present)
    codes = np.where(
        rng.random(n) < match,
        rng.choice(present, size=n), rng.choice(absent, size=n),
    )
    fact = FunctionalRelation(
        [k, g], {"k": codes, "g": rng.integers(0, g.size, n)},
        rng.random(n) + 0.5, check_fd=False,
    )
    dim = FunctionalRelation([k], {"k": present}, rng.random(dim_rows) + 0.5)
    return fact, dim


@pytest.mark.parametrize("shape", JOIN_GROUPBY_SHAPES, ids=str)
def test_join_groupby(benchmark, monkeypatch, shape):
    n, dim_rows, fractions = shape
    rng = np.random.default_rng(SEED)
    repeats = 15 if n < 100_000 else 7 if n < 1_000_000 else 3
    monkeypatch.setattr(join, "DEFER_MIN_ROWS", 0)
    for match in fractions:
        fact, dim = _star(n, dim_rows, match, rng)
        for agg, semiring in (("sum", SUM_PRODUCT), ("min", MIN_PRODUCT)):
            cells, answers = [], []
            for left, right in ((dim, fact), (fact, dim)):
                def kernel():
                    return marginalize(
                        product_join(left, right, semiring), ("g",), semiring
                    )
                # inf keeps the fact side whatever the match count, 0 never.
                for factor in (math.inf, 0):
                    monkeypatch.setattr(join, "PROBE_KEEP_FACTOR", factor)
                    for cold in (True, False):
                        ms, answer = _timed(kernel, repeats, cold)
                        cells.append(ms)
                        answers.append(answer)
            # Fused or not is invisible; only the expanded join lists
            # its rows in another order, so its float sums may round
            # differently.
            kept, expanded, fused, gathered = answers[::2]
            assert _same_bytes(fused, gathered) and _same_bytes(kept, fused)
            assert np.allclose(kept.measure, expanded.measure, rtol=1e-9)
            _JOIN_GROUPBY.add(n, dim_rows, float(match), agg, *cells)
    DEFAULT_GROUP_INDEX_CACHE.clear()
    benchmark.pedantic(kernel, rounds=3)


# ----------------------------------------------------------------------
# The elimination step on few rows: fused or not
# ----------------------------------------------------------------------
SMALL_SHAPES = ((64, 8), (512, 64), (1_024, 100), (4_095, 256), (4_096, 256))

_ELIMINATE_SMALL = reporter(
    "kernels_eliminate_small",
    "GroupBy(dimension join fact) on few rows — aggregated through the "
    "join vs over its gathered columns, median wall ms, warm",
    ["fact_rows", "dim_rows", "agg", "eliminate_ms", "join_then_groupby_ms"],
)


def _gathered(relation):
    """A copy of ``relation`` with every column gathered: the join a
    GroupBy sees when it is materialized."""
    return FunctionalRelation(
        relation.variables, dict(relation.columns), relation.measure,
        check_fd=False,
    )


@pytest.mark.parametrize("shape", SMALL_SHAPES, ids=str)
def test_eliminate_small(benchmark, shape):
    """Below ``DEFER_MIN_ROWS`` (4 096 probe rows, as shipped) the join
    is built at once and the fused GroupBy is the plain one: the step
    must cost no more than join then GroupBy."""
    n, dim_rows = shape
    fact, dim = _star(n, dim_rows, 0.8, np.random.default_rng(SEED))
    for agg, semiring in (("sum", SUM_PRODUCT), ("min", MIN_PRODUCT)):
        cells, answers = [], []
        for gather in (lambda r: r, _gathered):
            def kernel():
                return marginalize(
                    gather(product_join(dim, fact, semiring)), ("g",),
                    semiring,
                )
            ms, answer = _timed(kernel, 51, cold=False)
            cells.append(ms)
            answers.append(answer)
        assert _same_bytes(*answers)
        _ELIMINATE_SMALL.add(n, dim_rows, agg, *cells)
    benchmark.pedantic(kernel, rounds=3)


# ----------------------------------------------------------------------
# Grouped aggregation: scatter or segments
# ----------------------------------------------------------------------
AGGREGATE_ROWS = 200_000
AGGREGATE_GROUPS = (2, 10, 100, 1_000, 20_000, 100_000)

_AGGREGATE = reporter(
    "kernels_aggregate",
    "Grouped aggregation over 2e5 rows — scatter by the inverse vs "
    "segment reduceat over the sorted order, median wall ms",
    ["semiring", "groups", "scatter_ms", "segment_ms"],
)


@pytest.mark.parametrize("groups", AGGREGATE_GROUPS)
def test_aggregate_scatter_vs_segment(benchmark, groups):
    rng = np.random.default_rng(SEED)
    index = GroupIndex(rng.integers(0, groups, AGGREGATE_ROWS))
    for semiring, ufunc in ((MIN_PRODUCT, np.minimum),
                            (LOG_PROB, np.logaddexp),
                            (BOOLEAN, np.logical_or)):
        values = (
            rng.random(AGGREGATE_ROWS) < 0.5 if semiring is BOOLEAN
            else np.log(rng.random(AGGREGATE_ROWS)) if semiring is LOG_PROB
            else rng.random(AGGREGATE_ROWS)
        )

        def scatter():
            return semiring.aggregate(values, index.inverse, index.n_groups)

        def segment():
            return ufunc.reduceat(values[index.order], index.starts)

        scatter_ms, by_scatter = _timed(scatter, 15, cold=False)
        segment_ms, by_segment = _timed(segment, 15, cold=False)
        assert by_scatter.tobytes() == by_segment.tobytes()
        _AGGREGATE.add(semiring.name, index.n_groups, scatter_ms, segment_ms)
    benchmark.pedantic(scatter, rounds=3)
