"""Deterministic task scheduling for the sharded runtime.

Two pieces, deliberately decoupled:

* :class:`CriticalPathClock` — the *modeled* side.  Every unit of
  runtime work (one operator, or one shard of one operator) is
  registered as a task with its dependency edges and its measured
  cost-clock elapsed.  The clock then answers "how long would this
  task graph take on ``workers`` simulated executors?" by event-driven
  list scheduling: ready tasks start in submission order, at most
  ``workers`` run at once, time advances to the earliest finish.  The
  result — the *makespan* — is the critical-path elapsed of the run:
  max over parallel shards, sum along dependency chains.  It is
  reported separately from :meth:`IOStats.elapsed` (which stays the
  plain serial sum), so calibration, Q-error attribution, and the
  perf gate keep their existing clock untouched.

* :class:`OrderedPool` — the *dispatch* side.  The tasks of one node
  (one per shard, or one for the whole node) run in list order on the
  calling thread.  Execution order — and therefore every counter,
  every LRU eviction, every WAL record — is the order of a plain loop
  because it *is* a plain loop, for any worker count.  This is the
  honest design for a *simulated* storage engine: the cost clock, not
  wall time, is the measured quantity, the engine's shared state (the
  stats clock, the buffer pool, the WAL) is not thread-safe, and
  determinism is a hard requirement (the differential suite asserts
  byte-identical results and counters across worker counts).
  Threads would buy nothing: to keep that order each task would have
  to wait for its predecessor, so no two could ever overlap.
  ``workers`` therefore means one thing, the executor count of the
  modeled clock above.

The simulation is deterministic by construction: ties in finish time
break by task id (submission order), and no wall-clock time is read.

A third piece, :class:`TaskRuntime`, wraps :class:`OrderedPool` with a
worker-fault model: a per-task :class:`TaskPolicy` (attempt deadline,
retry budget with capped exponential backoff, hedged duplicate launch
for stragglers) supervises every dispatch, drawing ``task`` faults
from an optional seeded :class:`~repro.storage.faults.Faults`.  The
idempotent-task contract (see :mod:`repro.plans.runtime`) makes this
safe: a task's side effects publish only when the pool accepts exactly
one winning attempt, so a replayed task never double-applies work —
injected faults may change the modeled schedule and the
``scheduler.task_*`` metrics, never results or structural counters.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from repro.errors import WorkerError
from repro.storage.faults import Backoff

__all__ = [
    "CriticalPathClock",
    "ScheduleReport",
    "OrderedPool",
    "TaskPolicy",
    "DEFAULT_TASK_POLICY",
    "TaskRuntime",
]


@dataclass(frozen=True)
class ScheduleReport:
    """Summary of one (possibly multi-query) modeled schedule."""

    workers: int
    tasks: int
    serial_elapsed: float
    """Sum of every task's elapsed — what one worker would take."""
    makespan: float
    """Critical-path elapsed on ``workers`` simulated executors."""

    @property
    def speedup(self) -> float:
        """Modeled serial/parallel ratio (1.0 for an empty schedule)."""
        if self.makespan <= 0:
            return 1.0
        return self.serial_elapsed / self.makespan

    def summary(self) -> str:
        return (
            f"{self.tasks} tasks on {self.workers} workers: "
            f"serial={self.serial_elapsed:.1f} makespan={self.makespan:.1f} "
            f"(x{self.speedup:.2f})"
        )


class CriticalPathClock:
    """Accumulates a task DAG and computes its list-scheduled makespan.

    One clock typically spans a whole batch (or workload program): the
    runtime registers tasks as it executes them, wiring dependency
    edges from plan-DAG children, shard alignment, repartition
    barriers, and table rebinding.  ``add_task`` returns the task id
    used as a dependency handle by later tasks.
    """

    def __init__(self, workers: int):
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._deps: list[tuple[int, ...]] = []
        self._elapsed: list[float] = []
        self._labels: list[str] = []

    def __len__(self) -> int:
        return len(self._elapsed)

    def add_task(
        self,
        deps: tuple[int, ...] | list[int],
        elapsed: float,
        label: str = "",
    ) -> int:
        """Register one unit of work; returns its task id."""
        task_id = len(self._elapsed)
        self._deps.append(tuple(d for d in deps if 0 <= d < task_id))
        self._elapsed.append(float(elapsed))
        self._labels.append(label)
        return task_id

    def serial_elapsed(self) -> float:
        return sum(self._elapsed)

    def makespan(self) -> float:
        """Event-driven list scheduling over ``workers`` executors.

        Tasks become ready when all dependencies have finished; ready
        tasks start in id order; at most ``workers`` run concurrently.
        Deterministic: finish-time ties break by task id.
        """
        n = len(self._elapsed)
        if n == 0:
            return 0.0
        indegree = [len(deps) for deps in self._deps]
        dependents: list[list[int]] = [[] for _ in range(n)]
        for task, deps in enumerate(self._deps):
            for dep in deps:
                dependents[dep].append(task)

        ready: list[int] = [t for t in range(n) if indegree[t] == 0]
        heapq.heapify(ready)
        running: list[tuple[float, int]] = []  # (finish time, task id)
        now = 0.0
        done = 0
        while done < n:
            while ready and len(running) < self.workers:
                task = heapq.heappop(ready)
                heapq.heappush(running, (now + self._elapsed[task], task))
            # No startable task: advance to the earliest finish.
            finish, task = heapq.heappop(running)
            now = finish
            done += 1
            for dependent in dependents[task]:
                indegree[dependent] -= 1
                if indegree[dependent] == 0:
                    heapq.heappush(ready, dependent)
        return now

    def report(self) -> ScheduleReport:
        return ScheduleReport(
            workers=self.workers,
            tasks=len(self._elapsed),
            serial_elapsed=self.serial_elapsed(),
            makespan=self.makespan(),
        )


class OrderedPool:
    """The ordered-dispatch seam: runs thunks in list order.

    ``run(thunks)`` returns their results in list order, and task *i*
    begins only after task *i−1* completed.  A raised exception
    (including ``BaseException`` — injected crashes are those)
    suppresses all later thunks and propagates to the caller.  Every
    scheduled task goes through here (under :class:`TaskRuntime`), so a
    dispatcher with real parallelism — worker processes over
    shared-memory shards — would replace this one method and must keep
    that contract.
    """

    def run(self, thunks):
        return [thunk() for thunk in thunks]


@dataclass(frozen=True)
class TaskPolicy(Backoff):
    """Fault-tolerance policy applied to every scheduled task attempt.

    All durations are simulated cost units (the
    :meth:`~repro.storage.iostats.IOStats.elapsed` clock), mirroring
    the storage layer's :class:`~repro.storage.faults.RetryPolicy`.

    ``timeout``
        Deadline per attempt; a hung attempt is killed and retried
        after this long.  ``None`` disables hang detection — a hung
        task is then unrecoverable unless hedging rescues it.
    ``max_attempts``
        Total dispatches of one task (first try + retries).
    ``base_delay`` / ``max_delay``
        The :class:`~repro.storage.faults.Backoff` before each retry.
        Charged to the modeled schedule, never to the structural cost
        clock.
    ``hedge_after``
        Straggler hedging: when an attempt is still running this long
        past its expected start, a duplicate launches on a fresh
        worker and the first finisher wins.  ``None`` disables it.
    ``allow_degrade``
        On an exhausted retry budget (or a tripped breaker), drain and
        re-run the remaining DAG serially instead of raising
        :class:`~repro.errors.WorkerError` — the batch still succeeds,
        recorded as ``scheduler.degraded`` (mirroring the guard's
        hash→sort degradation).
    ``breaker_threshold`` / ``breaker_min_tasks``
        Failure-rate circuit breaker: once at least ``breaker_min_tasks``
        tasks have run and the faulted fraction reaches the threshold,
        the pool degrades to serial wholesale.
    """

    timeout: float | None = None
    max_attempts: int = 3
    base_delay: float = 200.0
    max_delay: float = 5000.0
    hedge_after: float | None = None
    allow_degrade: bool = True
    breaker_threshold: float = 0.5
    breaker_min_tasks: int = 8

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        for name in ("timeout", "hedge_after"):
            value = getattr(self, name)
            if value is not None and not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be a finite number > 0 (or None), "
                    f"got {value}"
                )
        if not 0.0 < self.breaker_threshold <= 1.0:
            raise ValueError("breaker_threshold must lie in (0, 1]")


DEFAULT_TASK_POLICY = TaskPolicy()


class TaskRuntime:
    """Fault-tolerant task supervisor over an :class:`OrderedPool`.

    ``run(thunks, label)`` dispatches each thunk as one task attempt
    loop.  A thunk runs the task's *real* work exactly once — the
    winning attempt — and returns its measured cost-clock elapsed;
    ``run`` returns the per-task **modeled** elapsed (the winning
    attempt plus injected straggler inflation, timeout kills, lost
    re-runs, and retry backoff), which the caller registers on the
    :class:`CriticalPathClock`.

    Publish-on-commit: a faulted attempt is discarded *before* it
    touches shared engine state.  Because shard tasks are pure and
    replayable over catalog state (the idempotent-task contract of
    :mod:`repro.plans.runtime`), discarding a doomed attempt's buffered
    side effects is observationally identical to running it and
    throwing the buffer away — so the structural counters and results
    of a faulted run are byte-identical to a fault-free run, with the
    wasted work visible only in the modeled schedule and the
    ``scheduler.task_retries`` / ``scheduler.task_timeouts`` /
    ``scheduler.hedges`` metrics.

    Degradation: an exhausted retry budget (or the failure-rate
    breaker) flips the runtime into ``degraded`` mode — the failing
    task and the *remaining DAG* re-run serially in-process with
    injection bypassed (counted once per reason under
    ``scheduler.degraded``), so the batch still succeeds.  With
    ``allow_degrade=False`` the exhaustion raises
    :class:`~repro.errors.WorkerError` instead.
    """

    def __init__(self, pool, policy=None, faults=None, count=None,
                 event=None):
        self.pool = pool
        self.policy = policy if policy is not None else DEFAULT_TASK_POLICY
        self.faults = faults
        self.count = count if count is not None else (lambda *a, **k: None)
        # Trace-event hook (name, **attributes): the attempt loop runs
        # inside the OrderedPool's in-order dispatch, so events fire in
        # serial order at any worker count — safe to append to a span.
        self.event = event if event is not None else (lambda *a, **k: None)
        self.degraded = False
        self.degraded_reasons: list[str] = []
        self._seq = 0
        self._tasks_seen = 0
        self._faulted_tasks = 0

    # ------------------------------------------------------------------
    def run(self, thunks, label: str = ""):
        """Run ``thunks`` in order; returns per-task modeled elapses."""
        supervised = [self._supervise(thunk, label) for thunk in thunks]
        return self.pool.run(supervised)

    def degrade(self, reason: str) -> None:
        """Trip into serial re-execution mode (idempotent per reason)."""
        if not self.degraded:
            self.degraded = True
        if reason not in self.degraded_reasons:
            self.degraded_reasons.append(reason)
            self.count("scheduler.degraded", reason=reason)
            self.event("task_degraded", reason=reason)

    # ------------------------------------------------------------------
    def _supervise(self, thunk, label):
        # The attempt loop runs inside the OrderedPool's in-order
        # dispatch, so ordinal assignment and every draw happen in
        # serial order at any worker count.
        def attempt_loop():
            seq = self._seq
            self._seq += 1
            self._tasks_seen += 1
            policy = self.policy
            wait = 0.0     # modeled (non-structural) fault wait
            lost = 0       # completed attempts whose result was dropped
            faulted = False
            attempt = 0
            while True:
                kind = None
                if self.faults is not None and not self.degraded:
                    kind = self.faults.draw("task", seq, label, attempt)
                if kind is None:
                    elapsed = thunk()
                    return self._commit(faulted, elapsed, wait, lost)
                faulted = True
                self.count("faults.worker_injected", kind=kind)
                self.event("task_fault", kind=kind, task=seq, label=label)
                if kind == "slow":
                    # The straggler itself completes the work (or its
                    # hedge does — same pure result either way); only
                    # the modeled duration differs.
                    elapsed = thunk()
                    slowed = elapsed * self.faults.slow_factor
                    if (
                        policy.hedge_after is not None
                        and slowed > policy.hedge_after + elapsed
                    ):
                        self.count("scheduler.hedges")
                        self.event("task_hedge", task=seq, label=label)
                        slowed = policy.hedge_after + elapsed
                    return self._commit(True, elapsed, wait, lost, slowed)
                if kind == "hang":
                    if policy.hedge_after is not None:
                        # The hedge launches while the original hangs
                        # and wins unconditionally.
                        self.count("scheduler.hedges")
                        self.event("task_hedge", task=seq, label=label)
                        elapsed = thunk()
                        return self._commit(
                            True, elapsed, wait + policy.hedge_after, lost
                        )
                    if policy.timeout is None:
                        return self._exhaust(
                            thunk, label, seq, wait, lost,
                            "hang with no task timeout configured",
                        )
                    wait += policy.timeout
                    self.count("scheduler.task_timeouts")
                    self.event("task_timeout", task=seq, label=label)
                elif kind == "lost":
                    lost += 1
                # crash / poison / lost / timed-out hang: retry.
                attempt += 1
                if attempt >= policy.max_attempts:
                    return self._exhaust(
                        thunk, label, seq, wait, lost,
                        f"retry budget exhausted after {attempt} attempts",
                    )
                self.count("scheduler.task_retries")
                self.event(
                    "task_retry", task=seq, label=label, attempt=attempt
                )
                wait += policy.delay_for(attempt - 1)

        return attempt_loop

    def _commit(self, faulted, elapsed, wait, lost, modeled_run=None):
        """Accept the winning attempt; fold fault waits into the model.

        A lost attempt did the full work before its result vanished,
        so each one contributes the task's own elapsed to the modeled
        duration (the structural clock saw the work exactly once).
        """
        if faulted:
            self._faulted_tasks += 1
            self._check_breaker()
        run = elapsed if modeled_run is None else modeled_run
        return run + wait + lost * elapsed

    def _check_breaker(self):
        # The breaker is purely a degradation trigger: with degradation
        # disabled it stays inert and each task lives or dies on its
        # own retry budget.
        if self.degraded or not self.policy.allow_degrade:
            return
        policy = self.policy
        if (
            self._tasks_seen >= policy.breaker_min_tasks
            and self._faulted_tasks
            >= policy.breaker_threshold * self._tasks_seen
        ):
            self.degrade("breaker")

    def _exhaust(self, thunk, label, seq, wait, lost, reason):
        """Retry budget gone: degrade to serial or raise WorkerError."""
        if not self.policy.allow_degrade:
            raise WorkerError(
                f"task {seq} ({label or 'unlabelled'}) unrecoverable: "
                f"{reason}, and degradation is disabled"
            )
        self.degrade("retry_budget")
        # Serial re-execution in-process: injection is bypassed from
        # here on (self.degraded), so the re-run always succeeds
        # barring real (non-injected) errors, which propagate as usual.
        elapsed = thunk()
        return self._commit(True, elapsed, wait, lost)
