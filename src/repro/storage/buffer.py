"""An LRU buffer pool over simulated pages.

Mirrors the role of the PostgreSQL shared buffer cache in the paper's
testbed: repeated scans of a small relation hit the cache, scans of
relations larger than memory pay IO every time.  Only accounting flows
through here; page payloads are never materialized.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage.iostats import IOStats
from repro.storage.page import PageId

__all__ = ["BufferPool", "DEFAULT_POOL_PAGES"]

# Default pool: 64 MB of 8 KB pages, a plausible 2006 shared_buffers.
DEFAULT_POOL_PAGES = 8192


class BufferPool:
    """Fixed-capacity LRU cache of :class:`PageId` entries.

    ``injector`` optionally attaches a
    :class:`~repro.storage.faults.FaultInjector`: every *disk* read of
    a page (a buffer miss) first consults it and may raise a transient
    or permanent storage error.  Buffer hits never fault — a resident
    page needs no IO — which mirrors how a real pool masks flaky disks
    for hot data.
    """

    def __init__(
        self,
        capacity_pages: int = DEFAULT_POOL_PAGES,
        injector=None,
        metrics=None,
        wal=None,
    ):
        if capacity_pages <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.capacity_pages = capacity_pages
        self.injector = injector
        self.metrics = metrics
        """Optional :class:`~repro.obs.metrics.MetricsRegistry`; the
        pool publishes ``bufferpool.*`` and ``faults.*`` counters into
        it (the hit rate is ``hits / (hits + reads)``)."""
        self.wal = wal
        """Optional :class:`~repro.storage.wal.WriteAheadLog`; every
        page write is logged before it is considered durable."""
        self._pages: OrderedDict[PageId, None] = OrderedDict()
        # (registry, {name: Counter}): handles resolved on first use —
        # so no counter appears before its first increment — and
        # dropped together when ``metrics`` is rebound to another
        # registry.  One page access is then a dict get and an add, not
        # a registry lookup.
        self._handles: tuple = (None, {})

    def _count(self, name: str) -> None:
        metrics = self.metrics
        if metrics is None:
            return
        registry, handles = self._handles
        if registry is not metrics:
            handles = {}
            self._handles = (metrics, handles)
        handle = handles.get(name)
        if handle is None:
            handle = handles[name] = metrics.counter(name)
        handle.inc()

    def __len__(self) -> int:
        return len(self._pages)

    def __bool__(self) -> bool:
        # Without this, an *empty* pool is falsy through __len__ and
        # `pool or BufferPool()` silently discards a caller's pool.
        return True

    def __contains__(self, page: PageId) -> bool:
        return page in self._pages

    def read(self, page: PageId, stats: IOStats) -> None:
        """Access a page: buffer hit if resident, disk read otherwise."""
        if page in self._pages:
            self._pages.move_to_end(page)
            stats.charge_hit()
            self._count("bufferpool.hits")
            return
        if self.injector is not None:
            try:
                self.injector.before_read(page)
            except TransientStorageError:
                self._count("faults.transient")
                raise
            except PermanentStorageError:
                self._count("faults.permanent")
                raise
        stats.charge_read()
        self._count("bufferpool.reads")
        self._admit(page)

    def write(self, page: PageId, stats: IOStats) -> None:
        """Write a freshly produced page (spill / materialization)."""
        stats.charge_write()
        self._count("bufferpool.writes")
        if self.wal is not None:
            self.wal.log_page(page)
        self._admit(page)

    def resident_pages(self) -> list[PageId]:
        """Resident page ids in LRU → MRU order (for checkpoints)."""
        return list(self._pages)

    def warm(self, pages) -> None:
        """Re-admit pages without charging stats (checkpoint restore)."""
        for page in pages:
            self._admit(page)

    def invalidate_file(self, file_id: int) -> None:
        """Drop all pages of a file (e.g. a temp file being freed)."""
        stale = [p for p in self._pages if p.file_id == file_id]
        for p in stale:
            del self._pages[p]

    def clear(self) -> None:
        self._pages.clear()

    def _admit(self, page: PageId) -> None:
        self._pages[page] = None
        self._pages.move_to_end(page)
        while len(self._pages) > self.capacity_pages:
            self._pages.popitem(last=False)
