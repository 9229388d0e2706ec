"""Windows: the closed loop, the open loop and the metrics they yield.

An untraced run is set-up (repeated, median reported) then one window
for the end-to-end metrics.  A traced run splits its time into an
untraced window, a window under the timing shims of
:mod:`perfbench.layers`, and a comparison pass (or, for ``serve_open``,
an overload burst), and reports the per-layer metrics.
"""

from __future__ import annotations

import asyncio
import gc
import json
import os
import resource
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from perfbench import reference as ref
from perfbench import workloads
from perfbench.layers import TARGETS, layer_metrics
from perfbench.spans import (
    END, NAME, OP, PARENT, START, Shims, SpanRecorder, percentile,
)
from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.serve import AsyncServer

OUT = workloads.OUT

SETUP_REPEATS = 3
TRACE_SPLIT = {"untraced": 0.3, "traced": 0.45, "variant": 0.25}
TRACE_FILE_OPS = 50
"""Spans of this many ops go to ``trace-<workload>.json`` in full; the
roll-up in the same file covers every traced op."""
MAX_GENERATOR_LAG_MS = 20.0
QUICK_THINNING = 5
"""``--quick`` keeps every fifth op of a cycle."""
UNTRACED, TRACED, BOTH = 0, 1, 2
"""``--trace``: end-to-end metrics, per-layer metrics, or both."""


@dataclass
class Window:
    """What one measured window saw."""

    latencies: list[float] = field(default_factory=list)
    cycles: list[float] = field(default_factory=list)
    cycle_ops: int = 0
    failed: int = 0
    wall_s: float = 0.0
    cpu_s: float = 0.0
    tallies: dict = field(default_factory=dict)
    first_error: str | None = None
    serve: dict = field(default_factory=dict)

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def fail(self, message: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = message

    def add_tallies(self, tallies: dict) -> None:
        for name, amount in tallies.items():
            self.tallies[name] = self.tallies.get(name, 0.0) + amount


def _timed(window: Window, op, call, recorder=None) -> float:
    """Run and time ``call`` as the window's next op; its answers are
    checked after the clock (and the op's span) has stopped."""
    if recorder is not None:
        recorder.op = window.attempted
        span = recorder.begin("client.op")
    error = None
    started = time.perf_counter()
    try:
        answers, tallies = call()
    except Exception:  # the loop must survive a failing op and count it
        error = traceback.format_exc(limit=3)
    elapsed = time.perf_counter() - started
    if recorder is not None:
        recorder.end(span)
    window.latencies.append(elapsed)
    if error is not None:
        window.fail(f"{op.label}: {error}")
        return elapsed
    window.add_tallies(tallies)
    if len(answers) != len(op.want) or not all(
        answer is not None
        and ref.same(ref.fingerprint(answer.measure), want)
        for answer, want in zip(answers, op.want)
    ):
        window.fail(f"{op.label}: answer differs from reference")
    return elapsed


def closed_loop(state, seconds, recorder=None) -> Window:
    """One client replaying the op cycle whole until time is up."""
    window = Window(cycle_ops=len(state.ops))
    gc.collect()
    cpu = time.process_time()
    begun = time.perf_counter()
    while True:
        cycle = time.perf_counter()
        for op in state.ops:
            _timed(window, op, op.run, recorder)
            if state.after_op is not None:
                window.add_tallies(state.after_op())
        now = time.perf_counter()
        window.cycles.append(now - cycle)
        if now - begun >= seconds:
            break
    window.wall_s = now - begun
    window.cpu_s = time.process_time() - cpu
    return window


def variant_ratio(state, seconds) -> tuple[float, Window]:
    """Median cycle time of the ops' variant form over their plain form,
    alternating whole cycles so drift hits both sides alike."""
    ops = [op for op in state.ops if op.variant is not None]
    window = Window(cycle_ops=len(ops))
    sides: dict[str, list[float]] = {"plain": [], "variant": []}
    begun = time.perf_counter()
    while True:
        for side, cycles in sides.items():
            total = 0.0
            for op in ops:
                call = op.run if side == "plain" else op.variant
                total += _timed(window, op, call)
                if state.after_op is not None:
                    state.after_op()
            cycles.append(total)
        if time.perf_counter() - begun >= seconds:
            break
    ratio = statistics.median(sides["variant"]) / statistics.median(
        sides["plain"]
    )
    return ratio, window


# ----------------------------------------------------------------------
# Open loop (serve_open)
# ----------------------------------------------------------------------
class ServeSession:
    """One :class:`AsyncServer` over a set-up state, and its windows."""

    def __init__(self, state):
        self.state = state
        self.cfg = workloads.SERVE_OPEN
        # The traffic shape (arrival gaps, template and tenant order) is
        # frozen: with seeded Poisson clumping the 95th percentile moved
        # by a quarter between seeds on identical code.  The seed sets
        # the data, the query constants and the reloaded values.
        self.rng = np.random.default_rng(self.cfg["traffic_seed"])
        self.db = state.serve["db"]
        self.tenants = [t.name for t in state.serve["tenants"]]
        self.server = AsyncServer(
            self.db, state.serve["tenants"], strategy="ve+"
        )
        self.versions = [None] + state.serve["reloads"]
        self.version = 0
        self.version_of = {self.db.catalog.stats_epoch: 0}
        self.submitted = 0
        """Requests submitted so far: the server numbers them in order,
        so this is the sequence number the next one gets."""

    async def warm_up(self) -> None:
        """Every template once per tenant: the plan cache starts hot."""
        await self.server.start()
        for tenant in self.tenants:
            for op in self.state.ops:
                (query,), _ = op.run()
                await self.server.submit(tenant, query)
                self.submitted += 1

    def _reload(self) -> float:
        """Install the next ``ctdeals`` version; returns the call's time."""
        self.version = self.version % 2 + 1
        started = time.perf_counter()
        self.server.runtime.reload_table(
            self.versions[self.version], "ctdeals"
        )
        elapsed = time.perf_counter() - started
        self.version_of[self.db.catalog.stats_epoch] = self.version
        return elapsed

    def _dealt(self, kinds: int, n: int):
        rounds = [self.rng.permutation(kinds) for _ in range(n // kinds + 1)]
        return np.concatenate(rounds)[:n]

    async def window(self, rate, requests, reloads=True) -> Window:
        """Poisson arrivals at ``rate``; latency runs from the due time."""
        n = int(requests)
        # Exponential gaps stretched to end exactly at n / rate, and
        # templates and tenants dealt in shuffled whole rounds, so the
        # offered load and the mix are exact whatever the draw.
        gaps = self.rng.exponential(1.0, size=n)
        due = np.cumsum(gaps) * (n / rate / gaps.sum())
        picks = self._dealt(len(self.state.ops), n)
        tenants = self._dealt(len(self.tenants), n)
        reload_at = {n // 3, 2 * n // 3} if reloads else set()
        window = Window(cycle_ops=n)
        records: list = [None] * n
        lags, reload_times, reload_marks = [], [], []
        first_seq = self.submitted
        self.submitted += n

        async def one(i, due_at, tenant, op):
            (query,), _ = op.run()
            outcome = await self.server.submit(tenant, query)
            records[i] = (time.perf_counter() - due_at, outcome, op)

        gc.collect()
        cpu = time.process_time()
        begun = time.perf_counter()
        tasks = []
        for i in range(n):
            due_at = begun + due[i]
            delay = due_at - time.perf_counter()
            if delay > 0:
                await asyncio.sleep(delay)
            lags.append(time.perf_counter() - due_at)
            if i in reload_at:
                reload_times.append(self._reload())
                reload_marks.append(i)
            tasks.append(asyncio.ensure_future(one(
                i, due_at, self.tenants[tenants[i]],
                self.state.ops[picks[i]],
            )))
        await asyncio.gather(*tasks)
        window.wall_s = time.perf_counter() - begun
        window.cpu_s = time.process_time() - cpu

        limit = self.cfg["limit_ms"] / 1e3
        shed = in_time = 0
        for latency, outcome, op in records:
            window.latencies.append(latency)
            if outcome.shed:
                shed += 1
                window.fail(f"{op.label}: shed ({outcome.error})")
            elif not outcome.ok:
                window.fail(f"{op.label}: {outcome.error!r}")
            elif not ref.same(
                ref.fingerprint(outcome.result.measure),
                op.want[self.version_of[outcome.epoch]],
            ):
                window.fail(f"{op.label}: answer differs from reference")
            elif latency <= limit:
                in_time += 1
        post = self.cfg["post_reload_requests"]
        window.serve = {
            "first_seq": first_seq,
            "in_time": in_time,
            "shed": shed,
            "lag_p99_ms": float(percentile(lags, 99)) * 1e3,
            "reload_ms": [t * 1e3 for t in reload_times],
            "post_reload_ms": [
                records[j][0] * 1e3
                for mark in reload_marks
                for j in range(mark, min(mark + post, n))
            ],
            "queue_wait_ms": [
                r[1].queue_wait * 1e3 for r in records if not r[1].shed
            ],
            "plan_cached": [r[1].plan_cached for r in records if r[1].ok],
            "admitted_ms": [
                r[0] * 1e3 for r in records if not r[1].shed
            ],
        }
        return window

    async def close(self) -> None:
        await self.server.drain()


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
def _end_to_end(window: Window, setup_s: float, serve_open: bool) -> dict:
    ok = window.attempted - window.failed
    if serve_open:
        rate = window.serve["in_time"] / window.wall_s
    else:
        # Every cycle is the same work, so the median cycle is a steady
        # estimate of the rate; failed ops do not count as completed.
        rate = (ok / window.attempted) * window.cycle_ops / (
            statistics.median(window.cycles)
        )
    ms = [t * 1e3 for t in window.latencies]
    return {
        "setup_s": (setup_s, "s"),
        "ops_per_s": (rate, "1/s"),
        "op_p50_ms": (percentile(ms, 50), "ms"),
        "op_p95_ms": (percentile(ms, 95), "ms"),
        "cpu_ms_per_op": (window.cpu_s / window.attempted * 1e3, "ms"),
        "ok_frac": (ok / window.attempted, "ratio"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def _counts(state) -> dict:
    snapshot = state.registry.snapshot()

    def total(name):
        return sum(
            entry.get("value", 0)
            for key, entry in snapshot.values.items()
            if key == name or key.startswith(name + "{")
        )

    hits, misses, evictions = DEFAULT_GROUP_INDEX_CACHE.counters()
    return {
        "operators": total("query.operator_runs"),
        "tuples": total("query.tuples"),
        "pool_reads": total("bufferpool.reads"),
        "pool_hits": total("bufferpool.hits"),
        "pool_writes": total("bufferpool.writes"),
        "pool_resident": sum(len(pool) for pool in state.pools),
        "wal_bytes": total("wal.bytes"),
        "checkpoints": total("checkpoint.taken"),
        "gidx_hits": hits, "gidx_misses": misses,
        "gidx_evictions": evictions,
    }


def _write_trace(name, recorder, shims_missing, rolled, ops) -> None:
    os.makedirs(OUT, exist_ok=True)
    kept = [
        {"id": i, "name": s[NAME], "start": s[START], "end": s[END],
         "parent": s[PARENT], "op": s[OP]}
        for i, s in enumerate(recorder.spans)
        if s[OP] is not None and s[OP] < TRACE_FILE_OPS
    ]
    with open(os.path.join(OUT, f"trace-{name}.json"), "w") as fh:
        json.dump({
            "workload": name, "traced_ops": ops,
            "missing_targets": shims_missing,
            "rollup": rolled, "counts": dict(recorder.counts),
            "spans": kept,
        }, fh)


class Tracing:
    """Shims on for the ``with`` block; exact count deltas across it."""

    def __init__(self, state):
        self.state = state
        self.recorder = SpanRecorder()

    def __enter__(self):
        self.before = _counts(self.state)
        self.shims = Shims(self.recorder, TARGETS)
        return self

    def __exit__(self, *exc):
        self.shims.remove()
        after = _counts(self.state)
        self.counts = {k: after[k] - self.before[k] for k in after}


def _layers(name, tracing, traced, plain, extra) -> dict:
    metrics, rolled = layer_metrics(
        tracing.recorder, traced, plain, tracing.counts, extra
    )
    _write_trace(
        name, tracing.recorder, tracing.shims.missing, rolled,
        traced.attempted,
    )
    return metrics


def run_closed(name, seed, seconds, trace, quick=False) -> dict:
    setups, state, cold = [], None, {}
    for _ in range(1 if quick else SETUP_REPEATS):
        if state is not None:
            state.close()
        started = time.perf_counter()
        state = workloads.SETUPS[name](seed)
        setups.append(time.perf_counter() - started)
        # Only the first set-up of the process runs its first op cold.
        cold = cold or {
            "client.first_op_ms": state.setup_tallies["client.first_op_ms"]
        }
    if quick:
        state.ops = state.ops[::QUICK_THINNING]
    metrics, windows, missing = {}, [], []
    try:
        if trace != TRACED:
            window = closed_loop(state, seconds)
            metrics.update(
                _end_to_end(window, statistics.median(setups), False)
            )
            windows.append(window)
        if trace != UNTRACED:
            plain = closed_loop(state, seconds * TRACE_SPLIT["untraced"])
            with Tracing(state) as tracing:
                traced = closed_loop(
                    state, seconds * TRACE_SPLIT["traced"], tracing.recorder
                )
            ratio, compared = variant_ratio(
                state, seconds * TRACE_SPLIT["variant"]
            )
            metrics.update(_layers(name, tracing, traced, plain, {
                **state.setup_tallies, **cold, state.variant_metric: ratio,
            }))
            windows += [plain, traced, compared]
            missing = tracing.shims.missing
    finally:
        state.close()
    return _result(windows, metrics, missing)


async def _run_open(seed, seconds, trace, quick) -> dict:
    cfg = workloads.SERVE_OPEN
    rate = cfg["rate_qps"]
    setups, session, cold = [], None, {}
    for _ in range(1 if quick else SETUP_REPEATS):
        if session is not None:
            await session.close()
        started = time.perf_counter()
        session = ServeSession(workloads.setup_serve_open(seed))
        await session.warm_up()
        setups.append(time.perf_counter() - started)
        cold = cold or dict(session.state.setup_tallies)
    metrics, windows, missing, lags = {}, [], [], []
    try:
        if trace != TRACED:
            window = await session.window(rate, rate * seconds)
            metrics.update(
                _end_to_end(window, statistics.median(setups), True)
            )
            windows.append(window)
        if trace != UNTRACED:
            share = TRACE_SPLIT["untraced"]
            plain = await session.window(rate, rate * seconds * share)
            with Tracing(session.state) as tracing:
                traced = await session.window(
                    rate, rate * seconds * (1 - share)
                )
            # Overload: feeds serve.burst_* only, never the failure count.
            burst = await session.window(
                rate * cfg["burst_factor"], cfg["burst_requests"],
                reloads=False,
            )
            # The shims number serving ops by request sequence.
            for span in tracing.recorder.spans:
                if span[OP] is not None:
                    span[OP] -= traced.serve["first_seq"]
            metrics.update(_layers("serve_open", tracing, traced, plain, {
                **cold,
                "serve.burst_shed_frac":
                    burst.serve["shed"] / burst.attempted,
                "serve.burst_admitted_p50_ms":
                    percentile(burst.serve["admitted_ms"], 50),
            }))
            windows += [plain, traced]
            missing = tracing.shims.missing
    finally:
        await session.close()
    result = _result(windows, metrics, missing)
    # Judged on the window the end-to-end numbers came from, if any.
    lag = windows[0].serve["lag_p99_ms"]
    result["generator_lag_p99_ms"] = lag
    result["valid"] = lag <= MAX_GENERATOR_LAG_MS
    return result


def _result(windows, metrics: dict, missing) -> dict:
    """Failures of every window count, whatever it measured."""
    failed = sum(w.failed for w in windows)
    return {
        "correct": failed == 0,
        "attempted": sum(w.attempted for w in windows),
        "failed": failed,
        "metrics": {
            name: {"value": float(value), "unit": unit}
            for name, (value, unit) in metrics.items()
        },
        "first_error": next(
            (w.first_error for w in windows if w.first_error), None
        ),
        "missing_targets": list(missing),
        "valid": True,
    }


def run(name, seed, seconds, trace, quick=False) -> dict:
    """One run of one workload; the dict the entry point prints.

    ``trace`` is :data:`UNTRACED` (end-to-end metrics), :data:`TRACED`
    (per-layer metrics) or :data:`BOTH` from one set-up.
    """
    if name == "serve_open":
        return asyncio.run(_run_open(seed, seconds, trace, quick))
    return run_closed(name, seed, seconds, trace, quick)
