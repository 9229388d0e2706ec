"""Execution accounting for the simulated storage substrate.

The paper's experiments report evaluation times on a modified
PostgreSQL 8.1 server with disk-resident operands.  Our substitute is a
deterministic cost clock: every physical operator charges page IO
(through the buffer pool) and CPU work (tuples touched), and
``elapsed()`` combines them with fixed weights.  This keeps the
*shape* of every experiment — which plan wins, where crossovers fall —
machine-independent, while wall-clock numbers are still available from
pytest-benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["IOStats", "DEFAULT_IO_WEIGHT", "DEFAULT_CPU_WEIGHT"]

# A page IO is worth this many tuple-touches in the combined clock.
# The ratio loosely mirrors a 2006-era disk (ms-scale seeks) against
# in-memory tuple processing (µs-scale); only the ratio matters.
DEFAULT_IO_WEIGHT = 1000.0
DEFAULT_CPU_WEIGHT = 1.0


@dataclass
class IOStats:
    """Mutable counters shared by one query execution."""

    page_reads: int = 0
    page_writes: int = 0
    buffer_hits: int = 0
    tuples_processed: int = 0
    operators_run: int = 0
    memo_hits: int = 0
    retries: int = 0
    retry_wait: float = 0.0
    io_weight: float = DEFAULT_IO_WEIGHT
    cpu_weight: float = DEFAULT_CPU_WEIGHT
    per_operator: list = field(default_factory=list)

    def charge_read(self, pages: int = 1) -> None:
        self.page_reads += pages

    def charge_write(self, pages: int = 1) -> None:
        self.page_writes += pages

    def charge_hit(self, pages: int = 1) -> None:
        self.buffer_hits += pages

    def charge_memo_hit(self) -> None:
        """A shared subplan's result was reused from the runtime memo."""
        self.memo_hits += 1

    def charge_cpu(self, tuples: int) -> None:
        self.tuples_processed += int(tuples)

    def charge_retry(self, wait: float) -> None:
        """A transient page fault was retried after simulated backoff."""
        self.retries += 1
        self.retry_wait += float(wait)

    def record_operator(self, label: str, out_tuples: int) -> None:
        self.operators_run += 1
        self.per_operator.append((label, int(out_tuples)))

    @property
    def page_io(self) -> int:
        return self.page_reads + self.page_writes

    def elapsed(self) -> float:
        """Deterministic evaluation-time proxy (cost units)."""
        return (
            self.io_weight * self.page_io
            + self.cpu_weight * self.tuples_processed
            + self.retry_wait
        )

    def merged_with(self, other: "IOStats") -> "IOStats":
        """Combine counters from two executions (weights from self)."""
        return IOStats(
            page_reads=self.page_reads + other.page_reads,
            page_writes=self.page_writes + other.page_writes,
            buffer_hits=self.buffer_hits + other.buffer_hits,
            tuples_processed=self.tuples_processed + other.tuples_processed,
            operators_run=self.operators_run + other.operators_run,
            memo_hits=self.memo_hits + other.memo_hits,
            retries=self.retries + other.retries,
            retry_wait=self.retry_wait + other.retry_wait,
            io_weight=self.io_weight,
            cpu_weight=self.cpu_weight,
            per_operator=self.per_operator + other.per_operator,
        )

    def snapshot(self) -> tuple:
        """Counter snapshot for later :meth:`since` deltas."""
        return (
            self.page_reads,
            self.page_writes,
            self.buffer_hits,
            self.tuples_processed,
            self.operators_run,
            self.memo_hits,
            len(self.per_operator),
            self.retries,
            self.retry_wait,
        )

    def since(self, snapshot: tuple) -> "IOStats":
        """New stats holding the increments since ``snapshot``."""
        return IOStats(
            page_reads=self.page_reads - snapshot[0],
            page_writes=self.page_writes - snapshot[1],
            buffer_hits=self.buffer_hits - snapshot[2],
            tuples_processed=self.tuples_processed - snapshot[3],
            operators_run=self.operators_run - snapshot[4],
            memo_hits=self.memo_hits - snapshot[5],
            retries=self.retries - snapshot[7],
            retry_wait=self.retry_wait - snapshot[8],
            io_weight=self.io_weight,
            cpu_weight=self.cpu_weight,
            per_operator=self.per_operator[snapshot[6]:],
        )

    def elapsed_since(self, snapshot: tuple) -> float:
        """``self.since(snapshot).elapsed()``, without building the
        delta: the same expression over the same counter differences."""
        return (
            self.io_weight
            * (
                (self.page_reads - snapshot[0])
                + (self.page_writes - snapshot[1])
            )
            + self.cpu_weight * (self.tuples_processed - snapshot[3])
            + (self.retry_wait - snapshot[8])
        )

    def summary(self) -> str:
        text = (
            f"reads={self.page_reads} writes={self.page_writes} "
            f"hits={self.buffer_hits} tuples={self.tuples_processed} "
            f"ops={self.operators_run} elapsed={self.elapsed():.1f}"
        )
        if self.memo_hits:
            text += f" memo={self.memo_hits}"
        if self.retries:
            text += f" retries={self.retries}"
        return text
