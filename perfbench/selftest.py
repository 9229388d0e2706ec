"""``python3 -m perfbench --selftest``: the harness checks itself.

These live here, not under ``tests/``, because the change that defines
the benchmark may add files only under the benchmark's own directory.
"""

from __future__ import annotations

import numpy as np

from perfbench import reference as ref
from perfbench.compare import verdict
from perfbench.layers import TARGETS
from perfbench.spans import Shims, SpanRecorder, percentile, rollup, self_times


def _percentiles():
    values = [5.0, 1.0, 4.0, 2.0, 3.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 50) == 3.0
    assert percentile(values, 100) == 5.0
    assert percentile(values, 90) == 4.6  # rank 3.6: 4 + 0.6 * (5 - 4)
    assert percentile([7.0], 95) == 7.0


def _self_time():
    # op 0..10 | a 1..4 | b 3..8 on another thread (overlaps a) | c 2..3 in a
    spans = [
        ["client.op", 0.0, 10.0, None, 0],
        ["x.a", 1.0, 4.0, 0, 0],
        ["x.b", 3.0, 8.0, 0, 0],
        ["y.c", 2.0, 3.0, 1, 0],
    ]
    own = self_times(spans)
    assert own == [3.0, 2.0, 5.0, 1.0], own  # op: 10 - union(1..8) = 3
    rolled = rollup(spans)
    assert rolled["x.a"] == {"calls": 1, "total_s": 3.0, "self_s": 2.0}
    assert rolled["client.op"]["self_s"] == 3.0


def _reference_rejects_perturbation():
    rng = np.random.default_rng(0)
    sizes = {"sid": 4, "pid": 5, "wid": 3, "cid": 3, "tid": 2}

    def pairs(a, b, n):
        flat = rng.choice(sizes[a] * sizes[b], size=n, replace=False)
        return ({a: flat // sizes[b], b: flat % sizes[b]},
                rng.uniform(1.0, 2.0, size=n))

    tables = {
        "contracts": pairs("pid", "sid", 12),
        "location": pairs("pid", "wid", 10),
        "warehouses": pairs("wid", "cid", 5),
        "ctdeals": pairs("cid", "tid", 6),
        "transporters": ({"tid": np.arange(2)}, rng.uniform(1.0, 2.0, 2)),
    }
    # Brute force over every joint assignment, straight from the rows.
    order = list(ref.CHAIN)
    dense = []
    for name, (columns, measure) in tables.items():
        scope = [v for v in order if v in columns]
        tensor = np.zeros([sizes[v] for v in scope])
        tensor[tuple(columns[v] for v in scope)] = measure
        dense.append((tuple(scope), tensor))
    joint = ref.joint_enumeration(dense, order)
    for var in order:
        axes = tuple(i for i, v in enumerate(order) if v != var)
        want_sum = joint.sum(axis=axes)
        want_min = np.where(joint > 0, joint, np.inf).min(axis=axes)
        got_sum = ref.chain_answer(tables, sizes, var, "sum")
        got_min = ref.chain_answer(tables, sizes, var, "min")
        assert np.allclose(got_sum, want_sum, rtol=1e-12), var
        assert np.allclose(got_min, want_min, rtol=1e-12), var
        assert np.allclose(ref.dense_answer(dense, var), want_sum)
        where = ref.chain_answer(tables, sizes, var, "sum", {"cid": 1})
        sliced = np.take(joint, [1], axis=order.index("cid"))
        assert np.allclose(where, sliced.sum(axis=axes))
    good = ref.expected_fingerprint(got_sum)
    assert ref.same(ref.fingerprint(got_sum[got_sum != 0.0]), good)
    bad = got_sum[got_sum != 0.0].copy()
    bad[0] *= 1.0 + 1e-6
    assert not ref.same(ref.fingerprint(bad), good)
    assert not ref.same(ref.fingerprint(bad[1:]), good)


def _shims_restore():
    import importlib
    import sys

    for target in TARGETS:
        importlib.import_module(target.module)

    def bound():
        return {
            (name, attr): value
            for name, mod in sys.modules.items()
            if mod is not None and name.split(".")[0] == "repro"
            for attr, value in vars(mod).items()
            if callable(value)
        }

    from repro.optimizer.base import Optimizer
    from repro.plans import runtime

    before = bound()
    method = Optimizer.__dict__["optimize"]
    shims = Shims(SpanRecorder(), TARGETS)
    assert not shims.missing, shims.missing
    assert Optimizer.__dict__["optimize"] is not method
    assert runtime.product_join is not before[
        ("repro.plans.runtime", "product_join")
    ], "a from-import copy was not rebound"
    rebound = shims.rebound
    assert len(rebound) > len(TARGETS)
    shims.remove()
    assert bound() == before
    for owner, attr, original in rebound:
        assert vars(owner)[attr] is original, (owner, attr)
    ghost = Shims(SpanRecorder(), [
        type(TARGETS[0])("x.gone", "repro.plans.lower", "no_such_function")
    ])
    assert ghost.missing == ["x.gone"]
    ghost.remove()


def _verdicts():
    metric = {"better": "lower", "bound": 0.1}
    assert verdict(metric, [100.0], [105.0]) == "same"
    assert verdict(metric, [100.0], [120.0]) == "worse"
    assert verdict(metric, [100.0], [80.0]) == "better"
    assert verdict(metric, [90.0, 100.0, 125.0], [99.0, 101.0]) == "unresolved"
    assert verdict(metric, [90.0, 100.0, 125.0], [70.0, 80.0]) == "better"
    higher = {"better": "higher", "bound": 0.1}
    assert verdict(higher, [100.0], [80.0]) == "worse"


def selftest() -> int:
    checks = (_percentiles, _self_time, _reference_rejects_perturbation,
              _shims_restore, _verdicts)
    for check in checks:
        check()
        print(f"ok {check.__name__.lstrip('_')}")
    print(f"selftest: {len(checks)} checks passed")
    return 0
