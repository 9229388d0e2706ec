"""Shard-major execution against the per-shard algorithm it replaced.

A sharded operator now calls its kernel once over shard-major inputs —
one relation whose rows are grouped by shard, plus offsets — and each
shard's task charges its own slice.  The algorithm it replaced ran the
operator body once per shard relation, stacked the shard results into
the merged relation, and merged partial aggregates by stacking them
and aggregating again.  That algorithm is kept below as a reference,
the way ``tests/oracle.py`` keeps the MPF definition: nothing in
``src/`` imports it.  It is plugged into the runtime in place of the
scheduled path, and the same batch runs both ways on every builtin
semiring, two to five shards, co-partitioned, other-key and unsharded
join sides, key-kept and partial GroupBys and empty shards, with
``DEFER_MIN_ROWS`` at 0 (swapped probe sides, deferred joins) and as
shipped.  The two must agree byte for byte on every answer, on every
``IOStats`` field, every ``shard.*`` counter and the modeled schedule,
and both must answer what the oracle says the view means.
"""

import math
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest
from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from repro import Database, engine
from repro.algebra import aggregate, dense, join
from repro.algebra.aggregate import marginalize
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.algebra.join import product_join
from repro.algebra.select import restrict
from repro.data import FunctionalRelation, var
from repro.obs.metrics import MetricsRegistry
from repro.plans import runtime
from repro.plans.nodes import FilterScan, GroupBy, ProductJoin, Scan, Select
from repro.plans.serialize import plan_to_dict
from repro.query import MPFQuery, MPFView
from repro.semiring import ALL_SEMIRINGS, SUM_PRODUCT
from repro.storage.partition import (
    PartitionSpec,
    shard_assignments,
    shard_major,
)
from tests.oracle import assert_agrees, engine_answer, mpf_answer


@contextmanager
def _sparse():
    """Run the kernels sparse, as the ``shards=`` kernels do.  The
    per-shard reference is defined by the sparse kernels: a slice that
    happens to be grid-complete would list its rows in C order and
    build no group index on the dense path."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dense, "dense_form", lambda relation: None)
        yield


# ----------------------------------------------------------------------
# The reference: per-shard relations, per-shard bodies, stacked results
# ----------------------------------------------------------------------


def _partition(relation, key, shards):
    """Row-disjoint shard relations, each in the input's row order."""
    assignment = shard_assignments(relation.columns[key], shards)
    return [
        relation.take(np.flatnonzero(assignment == shard))
        for shard in range(shards)
    ]


def _concat(parts):
    """Shard relations stacked back into one relation, in shard order."""
    first = parts[0]
    if len(parts) == 1:
        return first
    return FunctionalRelation(
        first.variables,
        {
            n: np.concatenate([p.columns[n] for p in parts])
            for n in first.var_names
        },
        np.concatenate([p.measure for p in parts]),
        name=first.name,
        measure_name=first.measure_name,
        check_fd=False,
    )


_CATALOG_PARTS = {}
"""Shard relations per catalog relation, for one database's lifetime."""


def _catalog_parts(ctx, table):
    """A partitioned table's shard relations, kept for as long as its
    catalog relation, as the catalog used to keep them."""
    relation = ctx.catalog.relation(table)
    spec = ctx.catalog.partition_spec(table)
    held = _CATALOG_PARTS.get(id(relation))
    if held is None or held[0] is not relation:
        held = (relation, _partition(relation, spec.key, spec.shards))
        _CATALOG_PARTS[id(relation)] = held
    return held[1]


_OWN_ROUTE = object()
"""A GroupBy that takes whatever route ``marginalize`` picks for it."""


def _scan(ctx, node, relation, heapfile):
    heapfile.scan(ctx.pool, ctx.stats, guard=ctx.guard)
    return relation


def _filter_scan(ctx, node, relation, heapfile):
    heapfile.scan(ctx.pool, ctx.stats, guard=ctx.guard)
    result = restrict(relation, node.predicate)
    ctx.stats.charge_cpu(result.ntuples)
    return result


def _select(ctx, node, child):
    ctx.stats.charge_cpu(child.ntuples)
    return restrict(child, node.predicate)


def _product_join(ctx, node, method, left, right):
    result = product_join(left, right, ctx.semiring)
    if method == "sort_merge":
        nl, nr = max(left.ntuples, 2), max(right.ntuples, 2)
        ctx.stats.charge_cpu(int(nl * math.log2(nl) + nr * math.log2(nr)))
    ctx.stats.charge_cpu(left.ntuples + right.ntuples + result.ntuples)
    ctx.maybe_spill(result.ntuples, result.arity)
    return result


def _group_by(ctx, node, method, child, route=_OWN_ROUTE):
    n = max(child.ntuples, 2)
    names = child.variables.subset(node.group_names).names
    cached = bool(names) and DEFAULT_GROUP_INDEX_CACHE.contains(child, names)
    if method == "sort" and not cached:
        ctx.stats.charge_cpu(int(n * math.log2(n)))
    else:
        ctx.stats.charge_cpu(n)
    if route is _OWN_ROUTE or not names:
        result = marginalize(child, node.group_names, ctx.semiring)
    else:
        source, rows = (child, None) if route is None else child.sources[route]
        result = aggregate._aggregate(
            source, rows, child.measure, child.variables.subset(names),
            ctx.semiring, None, None,
        )
    ctx.stats.charge_cpu(result.ntuples)
    ctx.maybe_spill(result.ntuples, result.arity)
    return result


def _shard_major_route(parts, group_names):
    """Which relation the shard-major GroupBy over these join shards
    aggregates through: the index of a deferred-join source, or
    ``None`` for the join itself.

    The shard-major kernel decides once, over all shards: the join
    defers only when every shard's slice join does, probing with the
    same side (so with the same sources in the same order), and a
    source is taken when it holds every group variable and enough of
    its rows matched, counted over all shards.  A per-shard GroupBy
    deciding shard by shard could aggregate through a source its own
    charge never peeks, and be charged a sort its kernel did not do.
    """
    if not group_names or not all(
        isinstance(part, join._DeferredJoin) for part in parts
    ):
        return None
    layouts = {
        tuple((source.name, source.var_names) for source, _ in part.sources)
        for part in parts
    }
    if len(layouts) > 1:
        return None
    for route, (source, _) in enumerate(parts[0].sources):
        if not all(n in source.variables for n in group_names):
            continue
        pairs = [part.sources[route] for part in parts]
        kept = sum(
            src.ntuples if rows is None else len(rows) for src, rows in pairs
        )
        if kept * join.PROBE_KEEP_FACTOR >= sum(s.ntuples for s, _ in pairs):
            return route
    return None


def _kernel_defers(parts, left_parts):
    """Whether the shard-major join returns a deferred join: exactly
    when every shard's slice join deferred, probing with the same side.
    A deferred join's sources start with those of its probe side."""
    sides = set()
    for part, left in zip(parts, left_parts):
        if not isinstance(part, join._DeferredJoin):
            return False
        if isinstance(left, join._DeferredJoin):
            left = left.sources[0][0]
        sides.add(part.sources[0][0] is left)
    return len(sides) == 1


_BODIES = {
    Scan: _scan,
    FilterScan: _filter_scan,
    Select: _select,
    ProductJoin: _product_join,
    GroupBy: _group_by,
}


def _run_whole(ctx, node, inputs):
    body = _BODIES.get(type(node))
    if body is None:
        return runtime._run_whole(ctx, node, inputs)
    if isinstance(node, (Scan, FilterScan)):
        relation = ctx.relation(node.table)
        return body(ctx, node, relation, ctx.heapfile_for(node.table, relation))
    if isinstance(node, (ProductJoin, GroupBy)):
        method = runtime._physical_method(ctx, node, inputs[0])
        return body(ctx, node, method, *inputs)
    return body(ctx, node, *inputs)


def _run_tasks(ctx, deps_list, thunks, label):
    results, elapsed = [], []
    for thunk in thunks:
        snapshot = ctx.stats.snapshot()
        results.append(thunk())
        elapsed.append(ctx.stats.since(snapshot).elapsed())
    task_ids = tuple(
        ctx.schedule.add_task(deps, spent, label)
        for deps, spent in zip(deps_list, elapsed)
    )
    return results, task_ids


def _single_task(ctx, node, inputs, deps):
    (result,), task_ids = _run_tasks(
        ctx, [deps], [partial(_run_whole, ctx, node, inputs)], node.label()
    )
    return result, None, task_ids


def _repartition(ctx, relation, key, shards, producer_tasks, side):
    parts = _partition(relation, key, shards)
    thunks = []
    for part in parts:
        def shuffle(part=part):
            temp = ctx.temp_file(part.ntuples, part.arity)
            temp.write_out(ctx.pool, ctx.stats, guard=ctx.guard)
            temp.scan(ctx.pool, ctx.stats, guard=ctx.guard)
            temp.drop(ctx.pool)
            return temp.n_pages

        thunks.append(shuffle)
    pages, task_ids = _run_tasks(
        ctx, [producer_tasks] * shards, thunks, f"shuffle[{side}]({key})"
    )
    ctx.count("shard.repartitions")
    ctx.count("shard.shuffle_pages", sum(pages))
    return parts, [(t,) for t in task_ids]


def _aligned_side(ctx, relation, sharded, node_tasks, key, shards, side):
    if (
        sharded is not None
        and sharded[0].key == key
        and sharded[0].shards == shards
    ):
        if len(node_tasks) == shards:
            deps = [(node_tasks[i],) for i in range(shards)]
        else:
            deps = [runtime._dedup(node_tasks)] * shards
        return sharded[1], deps
    return _repartition(
        ctx, relation, key, shards, runtime._dedup(node_tasks), side
    )


def _table(ctx, node, deps):
    spec = runtime._catalog_spec(ctx, node.table)
    writer = ctx._table_writers.get(node.table, ())
    deps = runtime._dedup((*deps, *writer))
    if spec is None:
        return _single_task(ctx, node, (), deps)
    parts = _catalog_parts(ctx, node.table)
    files = ctx.catalog.shard_heapfiles(node.table)
    with _sparse():
        results, task_ids = _run_tasks(
            ctx,
            [deps] * spec.shards,
            [
                partial(_BODIES[type(node)], ctx, node, *shard)
                for shard in zip(parts, files)
            ],
            node.label(),
        )
    ctx.count("shard.tasks", spec.shards)
    merged = (
        ctx.relation(node.table) if isinstance(node, Scan)
        else _concat(results)
    )
    return merged, (spec, results), task_ids


def _select_node(ctx, node, inputs, child_keys, deps):
    (child_key,) = child_keys
    sharded = ctx.shard_results.get(child_key)
    if sharded is None:
        return _single_task(ctx, node, inputs, deps)
    spec, parts = sharded
    with _sparse():
        results, task_ids = _run_tasks(
            ctx,
            runtime._align_deps(
                ctx._node_tasks.get(child_key, ()), spec.shards, deps
            ),
            [partial(_select, ctx, node, part) for part in parts],
            node.label(),
        )
    ctx.count("shard.tasks", spec.shards)
    return _concat(results), (spec, results), task_ids


def _join_node(ctx, node, inputs, child_keys, deps):
    left_key, right_key = child_keys
    left, right = inputs
    left_sharded = ctx.shard_results.get(left_key)
    right_sharded = ctx.shard_results.get(right_key)
    if left_sharded is None and right_sharded is None:
        return _single_task(ctx, node, inputs, deps)
    shared = sorted(set(left.var_names) & set(right.var_names))
    if not shared:
        return _single_task(ctx, node, inputs, deps)
    if left_sharded is not None and left_sharded[0].key in shared:
        align_key, shards = left_sharded[0].key, left_sharded[0].shards
    elif right_sharded is not None and right_sharded[0].key in shared:
        align_key, shards = right_sharded[0].key, right_sharded[0].shards
    else:
        align_key = shared[0]
        shards = (left_sharded or right_sharded)[0].shards
    method = runtime._physical_method(ctx, node, left)
    left_parts, left_deps = _aligned_side(
        ctx, left, left_sharded, ctx._node_tasks.get(left_key, ()),
        align_key, shards, "left",
    )
    right_parts, right_deps = _aligned_side(
        ctx, right, right_sharded, ctx._node_tasks.get(right_key, ()),
        align_key, shards, "right",
    )
    with _sparse():
        results, task_ids = _run_tasks(
            ctx,
            [
                runtime._dedup((*left_deps[i], *right_deps[i], *deps))
                for i in range(shards)
            ],
            [
                partial(_product_join, ctx, node, method, lp, rp)
                for lp, rp in zip(left_parts, right_parts)
            ],
            node.label(),
        )
    ctx.count("shard.tasks", shards)
    merged = _concat(results)
    if _kernel_defers(results, left_parts):
        # The kernel's deferred join is never held dense, so neither is
        # its stand-in: a whole node over it runs the sparse kernels.
        merged._dense = None
    return merged, (PartitionSpec(align_key, shards), results), task_ids


def _group_node(ctx, node, inputs, child_keys, deps):
    (child_key,) = child_keys
    sharded = ctx.shard_results.get(child_key)
    if sharded is None:
        return _single_task(ctx, node, inputs, deps)
    spec, parts = sharded
    method = runtime._physical_method(ctx, node, inputs[0])
    route = _shard_major_route(parts, node.group_names)
    with _sparse():
        results, task_ids = _run_tasks(
            ctx,
            runtime._align_deps(
                ctx._node_tasks.get(child_key, ()), spec.shards, deps
            ),
            [
                partial(_group_by, ctx, node, method, part, route)
                for part in parts
            ],
            node.label(),
        )
    ctx.count("shard.tasks", spec.shards)
    if spec.key in node.group_names:
        return _concat(results), (spec, results), task_ids

    def combine():
        stacked = _concat(results)
        ctx.stats.charge_cpu(stacked.ntuples)
        final = marginalize(stacked, node.group_names, ctx.semiring)
        ctx.stats.charge_cpu(final.ntuples)
        ctx.maybe_spill(final.ntuples, final.arity)
        return final

    (final,), combine_ids = _run_tasks(
        ctx, [task_ids], [combine], node.label() + "+combine"
    )
    ctx.count("shard.partial_aggregates")
    return final, None, combine_ids


def _reference_node(ctx, dag, node, key, inputs):
    """The scheduled path as it ran before shard-major results."""
    child_keys = dag.children[key]
    deps = runtime._dedup(
        t for k in child_keys for t in ctx._node_tasks.get(k, ())
    )
    if isinstance(node, (Scan, FilterScan)):
        return _table(ctx, node, deps)
    if isinstance(node, Select):
        return _select_node(ctx, node, inputs, child_keys, deps)
    if isinstance(node, ProductJoin):
        return _join_node(ctx, node, inputs, child_keys, deps)
    if isinstance(node, GroupBy):
        return _group_node(ctx, node, inputs, child_keys, deps)
    return runtime._execute_node_scheduled(ctx, dag, node, key, inputs)


# ----------------------------------------------------------------------
# Cases
# ----------------------------------------------------------------------


def _measure(semiring, n, rng):
    kind = semiring.dtype.kind
    if kind == "b":
        return rng.random(n) < 0.7
    if kind in "iu":
        return rng.integers(0, 4, n)
    values = rng.choice([0.1, 0.25, 0.5, 1.0, 2.0, 3.0], n)
    return np.log(values) if semiring.name == "log_prob" else values


@st.composite
def batches(draw):
    """``(relations, specs, queries, semiring)``: two to four relations
    over up to five small variables, some of them partitioned — on
    which of their variables and into how many shards drawn per table —
    and two to four queries of one view over all of them."""
    semiring = draw(st.sampled_from(ALL_SEMIRINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_vars = draw(st.integers(2, 5))
    variables = [var(f"v{i}", draw(st.integers(1, 6))) for i in range(n_vars)]
    relations = []
    for i in range(draw(st.integers(2, 4))):
        scope = sorted(draw(st.sets(
            st.integers(0, n_vars - 1), min_size=1, max_size=3
        )))
        scope_vars = [variables[j] for j in scope]
        grid = np.indices([v.size for v in scope_vars]).reshape(len(scope), -1)
        keep = rng.random(grid.shape[1]) < draw(st.sampled_from(
            [0.0, 0.5, 0.9, 1.0]
        ))
        grid = grid[:, rng.permutation(np.flatnonzero(keep))]
        relations.append(FunctionalRelation(
            scope_vars,
            {v.name: grid[k] for k, v in enumerate(scope_vars)},
            _measure(semiring, grid.shape[1], rng),
            name=f"t{i}",
        ))
    shards = draw(st.integers(2, 5))
    specs = {}
    for relation in relations:
        choice = draw(st.sampled_from(["same", "same", "other", "none"]))
        if choice == "none":
            continue
        count = shards if choice == "same" else draw(st.integers(2, 5))
        specs[relation.name] = (
            draw(st.sampled_from(relation.var_names)), count
        )
    if not specs:
        specs[relations[0].name] = (relations[0].var_names[0], shards)
    used = sorted({n for r in relations for n in r.var_names})
    queries = []
    for _ in range(draw(st.integers(2, 4))):
        group = tuple(draw(st.permutations(used)))[
            : draw(st.integers(1, min(3, len(used))))
        ]
        where = {}
        if draw(st.booleans()):
            name = draw(st.sampled_from(used))
            size = next(v.size for r in relations for v in r.variables
                        if v.name == name)
            where[name] = draw(st.integers(0, size - 1))
        queries.append((group, where))
    return relations, specs, queries, semiring


def _bytes(relation):
    """A relation's variables, and its columns and measure byte for
    byte in row order."""
    return (
        relation.var_names,
        [relation.columns[n].tobytes() for n in relation.var_names],
        relation.measure.tobytes(),
        relation.measure.dtype,
    )


def _database(relations, specs, registry=None):
    db = Database(metrics=registry, workers=2)
    for relation in relations:
        db.register(relation)
    for table, (key, count) in specs.items():
        db.catalog.partition_table(table, key, count)
    return db


def _batch(db, relations, queries, semiring, strategy):
    view = MPFView("v", tuple(r.name for r in relations), semiring)
    return db.run_batch(
        [MPFQuery(view, group, selections=where) for group, where in queries],
        strategy=strategy,
    )


def _run(relations, specs, queries, semiring, strategy):
    """Run the batch on a fresh database; everything to compare."""
    DEFAULT_GROUP_INDEX_CACHE.clear()
    _CATALOG_PARTS.clear()
    registry = MetricsRegistry()
    db = _database(relations, specs, registry)
    batch = _batch(db, relations, queries, semiring, strategy)
    answers = [
        None if r.result is None else _bytes(r.result) for r in batch.reports
    ]
    stats = [_stats(r.exec_stats) for r in batch.reports]
    counters = {
        key: entry for key, entry in registry.snapshot().to_dict().items()
        if key.startswith("shard.")
    }
    return batch, answers, stats + [_stats(batch.stats)], counters


def _stats(stats):
    return (
        stats.page_reads, stats.page_writes, stats.buffer_hits,
        stats.tuples_processed, stats.operators_run, stats.memo_hits,
        stats.retries, stats.retry_wait, tuple(stats.per_operator),
    )


_SETTINGS = settings(
    max_examples=60, deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _route_case():
    """Two queries whose GroupBy reads the same deferred join, one shard
    of which has too few matched rows for the shard-major kernel (over
    all shards) to aggregate through ``t0``, but enough for a shard on
    its own: the per-shard reference once charged the second GroupBy a
    sort (7 tuples) where the kernel gathers from the cached index (6)."""
    v0, v1, v2 = var("v0", 3), var("v1", 1), var("v2", 3)
    t0 = FunctionalRelation(
        [v0, v1, v2],
        {
            "v0": np.array([1, 0, 2, 0, 1, 1, 2, 0]),
            "v1": np.zeros(8, dtype=np.int64),
            "v2": np.array([2, 1, 1, 0, 1, 0, 0, 2]),
        },
        np.array([0.5, 1.0, 2.0, 0.5, 1.0, 2.0, 0.5, 1.0]),
        name="t0",
    )
    t1 = FunctionalRelation(
        [v0, v1], {"v0": np.array([1]), "v1": np.array([0])},
        np.array([1.0]), name="t1",
    )
    specs = {"t0": ("v0", 2), "t1": ("v0", 2)}
    queries = [(("v0", "v1"), {}), (("v1", "v0"), {})]
    return [t0, t1], specs, queries, SUM_PRODUCT


class TestAgainstThePerShardReference:
    @_SETTINGS
    @given(
        batches(),
        st.sampled_from(["ve+", "ve", "cs+"]),
        st.sampled_from([0, join.DEFER_MIN_ROWS]),
    )
    @example(case=_route_case(), strategy="ve+", defer_min_rows=0)
    def test_same_bytes_same_clock_same_schedule(
        self, case, strategy, defer_min_rows
    ):
        relations, specs, queries, semiring = case
        event(f"semiring={semiring.name}")
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(join, "DEFER_MIN_ROWS", defer_min_rows)
            batch, answers, stats, counters = _run(
                relations, specs, queries, semiring, strategy
            )
            patch.setattr(runtime, "_execute_node_scheduled", _reference_node)
            ref_batch, ref_answers, ref_stats, ref_counters = _run(
                relations, specs, queries, semiring, strategy
            )
        assert counters.get("shard.tasks")
        assert answers == ref_answers
        assert stats == ref_stats
        assert counters == ref_counters
        assert batch.schedule == ref_batch.schedule
        for (group, where), report in zip(queries, batch.reports):
            assert report.error is None
            assert_agrees(
                engine_answer(report.result, group),
                mpf_answer(relations, group, semiring.name, where),
                semiring.name,
            )


# ----------------------------------------------------------------------
# The kernels alone: one call over shard-major inputs == one per shard
# ----------------------------------------------------------------------


@st.composite
def co_partitioned(draw):
    """``(left, right, key, shards, semiring)``: two relations sharing
    the key variable ``k``, either side unique or repeated on it, with
    a random share of their rows in a random order — shapes on which a
    slice join may probe with either side."""
    semiring = draw(st.sampled_from(ALL_SEMIRINGS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = var("k", draw(st.integers(1, 24)))
    extra = [var("a", draw(st.integers(1, 4))), var("b", draw(st.integers(1, 4)))]
    sides = []
    for i in range(2):
        scope = [k] + extra[: draw(st.integers(0, 2))]
        if i and draw(st.booleans()):
            scope = scope[::-1]
        grid = np.indices([v.size for v in scope]).reshape(len(scope), -1)
        keep = rng.random(grid.shape[1]) < draw(
            st.sampled_from([0.3, 0.7, 1.0])
        )
        grid = grid[:, rng.permutation(np.flatnonzero(keep))]
        sides.append(FunctionalRelation(
            scope, {v.name: grid[j] for j, v in enumerate(scope)},
            _measure(semiring, grid.shape[1], rng), name=f"s{i}",
        ))
    return (*sides, "k", draw(st.integers(2, 5)), semiring)


def _offsets_of(parts):
    return np.cumsum([0] + [p.ntuples for p in parts]).tolist()


class TestKernelsOverShardMajorInputs:
    @settings(max_examples=150, deadline=None)
    @given(
        co_partitioned(),
        st.sampled_from([0, join.DEFER_MIN_ROWS]),
        st.sampled_from([(), ("k",), ("a",), ("k", "b"), ("a", "b")]),
    )
    def test_join_then_group_by_equals_one_call_per_shard(
        self, case, defer_min_rows, group
    ):
        left, right, key, shards, semiring = case
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(join, "DEFER_MIN_ROWS", defer_min_rows)
            lrows, loff = shard_major(left, key, shards)
            rrows, roff = shard_major(right, key, shards)
            joined, offsets = product_join(
                lrows, rrows, semiring, shards=(loff, roff)
            )
            with _sparse():
                parts = [
                    product_join(lp, rp, semiring)
                    for lp, rp in zip(
                        _partition(left, key, shards),
                        _partition(right, key, shards),
                    )
                ]
            assert offsets.tolist() == _offsets_of(parts)
            assert _bytes(joined) == _bytes(_concat(parts))
            event(f"join={type(joined).__name__}")

            group = tuple(n for n in group if n in joined.var_names)
            partials, group_offsets = marginalize(
                joined, group, semiring, shards=offsets
            )
            with _sparse():
                want = [
                    marginalize(part, group, semiring) for part in parts
                ]
            assert group_offsets.tolist() == _offsets_of(want)
            assert _bytes(partials) == _bytes(_concat(want))


class TestSeededEntries:
    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(batches(), st.sampled_from(["ve+", "ve", "cs+"]))
    def test_get_the_shard_form_execution_gave(self, case, strategy):
        # A checkpoint persists memo entries without their shard form;
        # seeding re-derives it from the plan, the catalog's partition
        # specs and the key column.
        relations, specs, queries, semiring = case
        contexts = []

        class Recording(runtime.ExecutionContext):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                contexts.append(self)

        db = _database(relations, specs)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(engine, "ExecutionContext", Recording)
            _batch(db, relations, queries, semiring, strategy)
        (ran,) = contexts
        seeded = runtime.ExecutionContext(db.catalog, semiring)
        for key, node in ran._memo_nodes.items():
            seeded.seed_memo(plan_to_dict(node), ran.memo[key])
        assert seeded.shard_results.keys() == ran.shard_results.keys()
        for key, sharded in ran.shard_results.items():
            again = seeded.shard_results[key]
            assert again.spec == sharded.spec
            assert again.relation is sharded.relation
            assert np.array_equal(again.offsets, sharded.offsets)
