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
  benchmark goldens keep their existing clock untouched.

* :class:`OrderedPool` — the *dispatch* side.  The per-shard tasks of
  one sharded operator run in shard order on the calling thread.  Execution order — and therefore every counter,
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
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

__all__ = [
    "CriticalPathClock",
    "ScheduleReport",
    "OrderedPool",
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
    """The ordered-dispatch seam: one operator's tasks, in shard order.

    ``run`` charges each shard of one operator in turn and registers
    its cost-clock elapsed as one task on the clock.  Task *i* begins
    only after task *i−1* completed, so every counter, LRU eviction and
    WAL record is the order of a plain loop, for any worker count.  A
    raised exception (including ``BaseException`` — injected crashes
    are those) stops the loop before any task is registered: a failed
    operator leaves no schedule entries, as it leaves no memo entry.
    A dispatcher with real parallelism would replace this one method
    and must keep that contract.
    """

    def run(self, clock, stats, deps_list, label, charge, *columns):
        """Call ``charge(*row)`` for each shard's row of ``columns`` —
        one sequence per argument, one entry per shard — timing each
        call on ``stats``; returns the task ids, one per shard, each
        depending on its entry of ``deps_list``."""
        elapsed = []
        for row in zip(*columns):
            snapshot = stats.snapshot()
            charge(*row)
            elapsed.append(stats.elapsed_since(snapshot))
        return tuple(
            clock.add_task(deps, spent, label)
            for deps, spent in zip(deps_list, elapsed)
        )
