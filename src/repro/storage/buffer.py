"""An LRU buffer pool over simulated pages.

Mirrors the role of the PostgreSQL shared buffer cache in the paper's
testbed: repeated scans of a small relation hit the cache, scans of
relations larger than memory pay IO every time.  Only accounting flows
through here; page payloads are never materialized.

Sequential scans and bulk writes are accounted a *run* at a time
(:meth:`BufferPool.read_run`, :meth:`BufferPool.write_run`): the
hit/miss split, the evictions and the LRU order after the run are
computed in bulk — the misses between two resident pages are inserted
as one segment and the overflow popped from the front — and equal, page
for page, what reading or writing the run one page at a time leaves
behind.  Only the resident pages of a run are visited individually.
"""

from __future__ import annotations

from collections import OrderedDict
from itertools import islice

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

# A page's LRU key is ``file_id << _PAGE_BITS | page_no``: one int, so
# the pages of a run are a range of consecutive keys.  Arithmetic shift
# keeps negative (temporary) file ids distinct and decodable.
_PAGE_BITS = 32
_PAGE_MASK = (1 << _PAGE_BITS) - 1


class BufferPool:
    """Fixed-capacity LRU cache of pages.

    ``faults`` optionally attaches a :class:`~repro.storage.faults.Faults`
    registry: every *disk* read of a page (a buffer miss) first
    consults its ``page.read`` site and may raise a transient or
    permanent storage error.  Buffer hits never fault — a resident
    page needs no IO — which mirrors how a real pool masks flaky disks
    for hot data.  Faults are drawn per page, so while that site is
    armed callers read page by page (:meth:`read`) instead of by run.
    Scheduled tasks draw their ``task`` faults from the same registry
    through the execution context's pool.
    """

    def __init__(
        self,
        capacity_pages: int = DEFAULT_POOL_PAGES,
        faults=None,
        metrics=None,
        wal=None,
    ):
        if capacity_pages <= 0:
            raise StorageError("buffer pool capacity must be positive")
        self.capacity_pages = capacity_pages
        self.faults = faults
        self.metrics = metrics
        """Optional :class:`~repro.obs.metrics.MetricsRegistry`; the
        pool publishes ``bufferpool.*`` and ``faults.*`` counters into
        it (the hit rate is ``hits / (hits + reads)``)."""
        self.wal = wal
        """Optional :class:`~repro.storage.wal.WriteAheadLog`; every
        page write is logged before it is considered durable."""
        self.temp_files = 0
        """Temporary file ids handed out so far (:meth:`temp_file_id`),
        or re-admitted by :meth:`warm`."""
        self._lru: OrderedDict[int, None] = OrderedDict()
        # file id -> the keys of that file's pages in ``_lru``.
        self._resident: dict[int, set[int]] = {}
        # (registry, {name: Counter}): handles resolved on first use —
        # so no counter appears before its first increment — and
        # dropped together when ``metrics`` is rebound to another
        # registry.  One page access is then a dict get and an add, not
        # a registry lookup.
        self._handles: tuple = (None, {})

    def _count(self, name: str, amount: int = 1) -> None:
        metrics = self.metrics
        if metrics is None or not amount:
            return
        registry, handles = self._handles
        if registry is not metrics:
            handles = {}
            self._handles = (metrics, handles)
        handle = handles.get(name)
        if handle is None:
            handle = handles[name] = metrics.counter(name)
        handle.inc(amount)

    def __len__(self) -> int:
        return len(self._lru)

    def __bool__(self) -> bool:
        # Without this, an *empty* pool is falsy through __len__ and
        # `pool or BufferPool()` silently discards a caller's pool.
        return True

    def __contains__(self, page: PageId) -> bool:
        return (page.file_id << _PAGE_BITS | page.page_no) in self._lru

    def temp_file_id(self) -> int:
        """A fresh negative file id for a temporary (spill) file.

        The pool hands them out, not the execution context: every
        context sharing the pool draws from one sequence, so temporary
        pages of two contexts can never alias in the cache.
        """
        self.temp_files += 1
        return -self.temp_files

    # ------------------------------------------------------------------
    # Page at a time
    # ------------------------------------------------------------------
    def read(self, page: PageId, stats: IOStats) -> None:
        """Access a page: buffer hit if resident, disk read otherwise."""
        key = page.file_id << _PAGE_BITS | page.page_no
        if key in self._lru:
            self._lru.move_to_end(key)
            stats.charge_hit()
            self._count("bufferpool.hits")
            return
        if self.faults is not None:
            try:
                self.faults.before_read(page)
            except TransientStorageError:
                self._count("faults.transient")
                raise
            except PermanentStorageError:
                self._count("faults.permanent")
                raise
        stats.charge_read()
        self._count("bufferpool.reads")
        self._touch_run(page.file_id, page.page_no, 1)

    def write(self, page: PageId, stats: IOStats) -> None:
        """Write a freshly produced page (spill / materialization)."""
        stats.charge_write()
        self._count("bufferpool.writes")
        if self.wal is not None:
            self.wal.log_page(page)
        self._touch_run(page.file_id, page.page_no, 1)

    # ------------------------------------------------------------------
    # A run at a time
    # ------------------------------------------------------------------
    def read_run(
        self, file_id: int, start: int, n: int, stats: IOStats
    ) -> None:
        """Read pages ``start .. start + n - 1`` of a file in order.

        Exactly :meth:`read` once per page — hits, misses, evictions,
        LRU order, :class:`IOStats` and ``bufferpool.*`` totals — but
        with no fault draws: while ``page.read`` faults are armed, read
        per page.
        """
        hits = self._touch_run(file_id, start, n)
        stats.charge_hit(hits)
        stats.charge_read(n - hits)
        self._count("bufferpool.hits", hits)
        self._count("bufferpool.reads", n - hits)

    def write_run(
        self, file_id: int, start: int, n: int, stats: IOStats
    ) -> None:
        """Write pages ``start .. start + n - 1`` of a file in order.

        Exactly :meth:`write` once per page, including the WAL records
        (one ``write`` for the run).  A WAL whose faults arm a WAL
        crash point is written record by record, since a crash may land
        on any one.
        """
        wal = self.wal
        if wal is not None and wal.faults is not None and wal.faults.armed(
            "wal.append", "wal.flush"
        ):
            for page_no in range(start, start + n):
                self.write(PageId(file_id, page_no), stats)
            return
        stats.charge_write(n)
        self._count("bufferpool.writes", n)
        if self.wal is not None:
            self.wal.log_run(file_id, start, n)
        self._touch_run(file_id, start, n)

    def _touch_run(self, file_id: int, start: int, n: int) -> int:
        """Make pages ``start .. start + n - 1`` most recent, in order,
        admitting the absent ones; returns how many were resident.

        A page counts as resident if it still is when the run reaches
        it: the misses admitted before it may have pushed it out.
        """
        base = file_id << _PAGE_BITS
        run = range(base | start, base | (start + n))
        resident = self._resident.get(file_id)
        if not resident:
            candidates = ()
        elif len(resident) < n:
            candidates = sorted(filter(run.__contains__, resident))
        else:
            candidates = sorted(resident.intersection(run))
        if candidates and candidates[0] - run.start >= self.capacity_pages:
            # The misses before the first resident page push out every
            # page resident now: the run is all misses.
            candidates = ()
        hits = 0
        pos = run.start
        for key in candidates:
            if key not in self._lru:
                continue  # evicted earlier in this run: a miss
            if key > pos:
                self._admit(file_id, range(pos, key))
                pos = key
                if key not in self._lru:
                    continue
            self._lru.move_to_end(key)
            hits += 1
            pos = key + 1
        if pos < run.stop:
            self._admit(file_id, range(pos, run.stop))
        return hits

    def _admit(self, file_id: int, keys: range) -> None:
        """Append the absent pages ``keys`` as most recent, evicting
        from the LRU end down to capacity first — the state a page at a
        time leaves: the newest ``capacity_pages`` of old + new."""
        lru, resident = self._lru, self._resident
        excess = len(lru) + len(keys) - self.capacity_pages
        if excess >= len(lru):
            # Everything resident goes, and the oldest new pages too.
            keys = keys[excess - len(lru):]
            self._lru = OrderedDict.fromkeys(keys)
            self._resident = {file_id: set(keys)}
            return
        if excess > 0:
            evicted = list(islice(lru, excess))
            for _ in evicted:
                lru.popitem(last=False)
            for evicted_file in {key >> _PAGE_BITS for key in evicted}:
                resident[evicted_file].difference_update(evicted)
        for key in keys:
            lru[key] = None
        pages = resident.get(file_id)
        if pages is None:
            resident[file_id] = set(keys)
        else:
            pages.update(keys)

    # ------------------------------------------------------------------
    # Residency
    # ------------------------------------------------------------------
    def resident_pages(self) -> list[PageId]:
        """Resident page ids in LRU → MRU order (for checkpoints)."""
        return [
            PageId(key >> _PAGE_BITS, key & _PAGE_MASK) for key in self._lru
        ]

    def warm(self, pages) -> None:
        """Re-admit pages without charging stats (checkpoint restore).

        The temporary file ids handed out next lie past those of the
        re-admitted pages, so a new spill never finds an old one's.
        """
        for page in pages:
            self._touch_run(page.file_id, page.page_no, 1)
            self.temp_files = max(self.temp_files, -page.file_id)

    def invalidate_file(self, file_id: int) -> None:
        """Drop all pages of a file (e.g. a temp file being freed)."""
        for key in self._resident.pop(file_id, ()):
            del self._lru[key]

    def clear(self) -> None:
        self._lru.clear()
        self._resident.clear()
