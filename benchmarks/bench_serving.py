"""Extension — serving-runtime throughput under admission control.

``repro.serve`` fronts the engine with per-tenant admission control,
bounded queues, load shedding, deadline propagation, and a shared
prepared-plan cache (``docs/serving.md``).  This bench drives seeded
request mixes through the deterministic ``run_workload`` driver at two
load levels — saturating and light — and records the admission
outcome split, the simulated makespan, and the plan-cache hit count.

Everything runs on the virtual cost clock, so every recorded cell is
a pure function of the seeds: a diff against ``BENCH_serving.json``
is a real admission/planner/runtime change, not scheduler noise.
"""

from __future__ import annotations

import numpy as np
import pytest

from _harness import reporter

from repro.cli import _build_database
from repro.obs.slo import quantile
from repro.serve import ServeRequest, ServingRuntime, TenantSpec, VirtualClock

SCALE, SEED = 0.004, 7
GROUP_VARS = ("pid", "sid", "wid", "cid", "tid")

# (label, mean inter-arrival gap): "overload" packs arrivals tighter
# than the mean query cost so shedding must happen; "light" spaces
# them out so (almost) everything completes.
LOADS = (("overload", 2e4), ("light", 4e5))

_REPORT = reporter(
    "serving",
    "Serving runtime — admission outcomes and makespan by load level",
    ["load", "mix", "completed", "shed", "failed", "plan_hits",
     "duration", "mean_wait", "lat_p50", "lat_p99", "wait_p50",
     "wait_p99"],
)


def _tenants():
    return [
        TenantSpec("gold", priority=2, queue_depth=16, slo=6e5),
        TenantSpec("silver", priority=1, rate=8e-6, burst=4.0,
                   queue_depth=8),
        TenantSpec("bulk", priority=0, queue_depth=4),
    ]


def _workload(db, gap, mix):
    rng = np.random.default_rng(99)
    names = ["gold", "silver", "bulk"]
    requests, arrival = [], 0.0
    for _ in range(mix):
        arrival += float(rng.exponential(gap))
        var = GROUP_VARS[int(rng.integers(len(GROUP_VARS)))]
        sql = f"select {var}, sum(inv) from invest group by {var}"
        if rng.random() < 0.25:
            sql = (
                f"select {var}, sum(inv) from invest "
                f"where tid = 0 group by {var}"
            )
        tenant = names[int(rng.integers(len(names)))]
        requests.append(ServeRequest(
            tenant=tenant, query=db.bind(sql), arrival=arrival,
        ))
    return requests


def _soak(gap, mix):
    clock = VirtualClock()
    db = _build_database(SCALE, SEED, clock=clock)
    runtime = ServingRuntime(db, _tenants(), clock=clock)
    report = runtime.run_workload(_workload(db, gap, mix))
    return db, report


@pytest.mark.parametrize("load,gap", LOADS, ids=[lo for lo, _ in LOADS])
def test_serving_soak(benchmark, load, gap):
    mix = 200

    def run():
        return _soak(gap, mix)

    db, report = benchmark(run)
    assert len(report.outcomes) == mix
    if load == "overload":
        # The saturating mix must exercise the shedding paths.
        assert len(report.shed) > 20
    else:
        # A lightly loaded server admits nearly everything.
        assert len(report.completed) > mix * 0.9

    # The virtual clock makes the whole soak replayable: a second run
    # lands on the identical outcome split and makespan.
    db2, report2 = _soak(gap, mix)
    assert len(report2.completed) == len(report.completed)
    assert len(report2.shed) == len(report.shed)
    assert report2.duration == report.duration

    snap = db.metrics.snapshot().to_dict()
    hits = sum(
        v["value"] for k, v in snap.items()
        if k.startswith("serve.plan_cache.hits")
    )
    waits = [o.queue_wait for o in report.completed]
    mean_wait = sum(waits) / len(waits) if waits else 0.0
    # End-to-end latency (arrival -> completion) and queue-wait tail
    # quantiles over the completed population; nearest-rank, so every
    # cell is deterministic on the virtual clock.
    lats = [o.latency for o in report.completed if o.latency is not None]

    benchmark.extra_info.update(
        completed=len(report.completed), shed=len(report.shed)
    )
    _REPORT.metrics.counter("bench.serving_runs").inc()
    _REPORT.add(
        load, mix, len(report.completed), len(report.shed),
        len(report.failed), int(hits), report.duration,
        round(mean_wait, 1),
        round(quantile(lats, 0.50), 1), round(quantile(lats, 0.99), 1),
        round(quantile(waits, 0.50), 1), round(quantile(waits, 0.99), 1),
    )
