"""Heap files: the on-"disk" representation of functional relations.

A :class:`HeapFile` records the page layout of one relation and knows
how to charge a sequential scan or a bulk write through the buffer
pool.  Base relations get heap files from the catalog; executors create
temporary heap files (with ids from :meth:`BufferPool.temp_file_id`)
for intermediates that exceed the in-memory workspace.
"""

from __future__ import annotations

from repro.data.relation import FunctionalRelation
from repro.storage.buffer import BufferPool
from repro.storage.faults import read_with_retry
from repro.storage.iostats import IOStats
from repro.storage.page import DEFAULT_PAGE_SIZE, PageGeometry, PageId

__all__ = ["HeapFile", "GUARD_CHECK_INTERVAL_PAGES"]

# A scan re-checks its QueryGuard every this many pages — the "row
# batch" granularity of cooperative cancellation and deadlines.
GUARD_CHECK_INTERVAL_PAGES = 64


class HeapFile:
    """Page-level accounting view of a stored relation."""

    def __init__(
        self,
        file_id: int,
        ntuples: int,
        arity: int,
        page_size: int = DEFAULT_PAGE_SIZE,
    ):
        self.file_id = file_id
        self.ntuples = ntuples
        self.geometry = PageGeometry(arity, page_size)
        self.n_pages = self.geometry.pages_for(ntuples)

    @classmethod
    def for_relation(
        cls,
        file_id: int,
        relation: FunctionalRelation,
        page_size: int = DEFAULT_PAGE_SIZE,
    ) -> "HeapFile":
        return cls(file_id, relation.ntuples, relation.arity, page_size)

    def _runs(self, stats: IOStats, guard):
        """``(start, n)`` page runs, checking ``guard`` before each.

        One run per :data:`GUARD_CHECK_INTERVAL_PAGES` pages under a
        guard, so deadline / cancellation fire mid-scan, not only
        between operators; the whole file otherwise.
        """
        step = self.n_pages if guard is None else GUARD_CHECK_INTERVAL_PAGES
        for start in range(0, self.n_pages, step):
            if guard is not None:
                guard.check(stats)
            yield start, min(step, self.n_pages - start)

    def scan(
        self, pool: BufferPool, stats: IOStats, guard=None
    ) -> None:
        """Charge a full sequential scan.

        Transient page faults (see :mod:`repro.storage.faults`) are
        retried with backoff; ``guard`` supplies the retry budget.
        Faults are drawn per page, so a pool whose faults arm
        ``page.read`` is read page by page; otherwise a run at a time.
        """
        faults = pool.faults
        per_page = faults is not None and faults.armed("page.read")
        for start, n in self._runs(stats, guard):
            if not per_page:
                pool.read_run(self.file_id, start, n, stats)
                continue
            for page_no in range(start, start + n):
                read_with_retry(
                    pool, PageId(self.file_id, page_no), stats, guard=guard
                )
        stats.charge_cpu(self.ntuples)

    def write_out(self, pool: BufferPool, stats: IOStats, guard=None) -> None:
        """Charge a bulk write of the whole file."""
        for start, n in self._runs(stats, guard):
            pool.write_run(self.file_id, start, n, stats)
        stats.charge_cpu(self.ntuples)

    def drop(self, pool: BufferPool) -> None:
        pool.invalidate_file(self.file_id)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"HeapFile(id={self.file_id}, tuples={self.ntuples}, "
            f"pages={self.n_pages})"
        )
