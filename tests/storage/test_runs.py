"""Run-at-a-time storage accounting equals the page-at-a-time loop.

``BufferPool.read_run`` / ``write_run`` and ``WriteAheadLog.log_run``
compute a whole run in bulk.  The reference is the loop they replace —
``read`` / ``write`` once per page on a twin pool — plus an independent
LRU model written here.  Everything a caller can observe must agree
after every step: the resident pages in LRU order, every ``IOStats``
field, the ``bufferpool.*`` / ``wal.*`` counters and the WAL's bytes.
"""

import math
from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.metrics import MetricsRegistry
from repro.storage import (
    BufferPool,
    Faults,
    HeapFile,
    InjectedCrash,
    IOStats,
    PageId,
    WriteAheadLog,
)
from repro.storage.heapfile import GUARD_CHECK_INTERVAL_PAGES


class _ModelLRU:
    """A page-at-a-time LRU over ``(file_id, page_no)`` tuples."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.pages = OrderedDict()
        self.hits = self.misses = 0

    def touch(self, page, count_hit):
        if page in self.pages:
            self.pages.move_to_end(page)
            self.hits += count_hit
            return
        self.misses += count_hit
        self.pages[page] = None
        while len(self.pages) > self.capacity:
            self.pages.popitem(last=False)


_runs = st.lists(
    st.tuples(
        st.sampled_from(["read", "write"]),
        st.integers(-3, 3),          # file id; negative ids are temp files
        st.integers(0, 30),          # first page
        st.integers(0, 45),          # run length, often beyond the pool
    ),
    max_size=25,
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 24), runs=_runs, invalidate=st.integers(-3, 3))
def test_runs_equal_the_page_loop(tmp_path_factory, capacity, runs, invalidate):
    directory = tmp_path_factory.mktemp("wal")
    bulk_registry, loop_registry = MetricsRegistry(), MetricsRegistry()
    with WriteAheadLog(str(directory / "bulk.wal"),
                       metrics=bulk_registry) as bulk_wal, \
         WriteAheadLog(str(directory / "loop.wal"),
                       metrics=loop_registry) as loop_wal:
        bulk = BufferPool(capacity, metrics=bulk_registry, wal=bulk_wal)
        loop = BufferPool(capacity, metrics=loop_registry, wal=loop_wal)
        model = _ModelLRU(capacity)
        bulk_stats, loop_stats = IOStats(), IOStats()
        for step, (kind, file_id, start, n) in enumerate(runs):
            pages = [PageId(file_id, p) for p in range(start, start + n)]
            if kind == "read":
                bulk.read_run(file_id, start, n, bulk_stats)
                for page in pages:
                    loop.read(page, loop_stats)
            else:
                bulk.write_run(file_id, start, n, bulk_stats)
                for page in pages:
                    loop.write(page, loop_stats)
            for page in pages:
                model.touch((page.file_id, page.page_no), kind == "read")
            if step == len(runs) // 2:
                for pool in (bulk, loop):
                    pool.invalidate_file(invalidate)
                for page in [p for p in model.pages if p[0] == invalidate]:
                    del model.pages[page]
            resident = bulk.resident_pages()
            assert resident == loop.resident_pages()
            assert [(p.file_id, p.page_no) for p in resident] == list(
                model.pages
            )
            assert len(bulk) == len(loop) <= capacity
            assert all(page in bulk for page in resident)
            assert bulk_stats == loop_stats
            assert bulk_stats.buffer_hits == model.hits
            assert bulk_stats.page_reads == model.misses
        assert bulk_registry.snapshot().to_dict() == (
            loop_registry.snapshot().to_dict()
        )
        bulk_wal._fh.flush()
        loop_wal._fh.flush()
    assert (directory / "bulk.wal").read_bytes() == (
        (directory / "loop.wal").read_bytes()
    )


class _RecordingGuard:
    """Duck-typed QueryGuard: notes the pages charged at every check."""

    retry_policy = None

    def __init__(self):
        self.checks = []

    def check(self, stats):
        self.checks.append(
            stats.page_reads + stats.buffer_hits + stats.page_writes
        )

    def consume_retry(self):
        return True


@settings(max_examples=100, deadline=None)
@given(
    capacity=st.integers(1, 200),
    ntuples=st.integers(0, 60_000),
    warm=st.integers(0, 300),
)
def test_scans_check_the_guard_at_the_same_pages(capacity, ntuples, warm):
    """A run per guard interval: the checks fall on the pages the
    per-page loop (which armed page faults force) checked at."""
    # Armed on a file the scan never reads: per page, and no fault.
    elsewhere = Faults().target("page.read", "permanent", 99, times=math.inf)
    results = []
    for faults in (None, elsewhere):
        pool = BufferPool(capacity, faults=faults)
        heap = HeapFile(7, ntuples, arity=2)
        stats, guard = IOStats(), _RecordingGuard()
        pool.read_run(7, 0, warm, IOStats())
        heap.scan(pool, stats, guard=guard)
        heap.scan(pool, stats, guard=guard)
        results.append((guard.checks, stats, pool.resident_pages()))
    assert results[0] == results[1]
    checks = results[0][0]
    n_pages = HeapFile(7, ntuples, arity=2).n_pages
    per_scan = -(-n_pages // GUARD_CHECK_INTERVAL_PAGES)
    assert len(checks) == 2 * per_scan
    assert checks[1:per_scan] == [
        i * GUARD_CHECK_INTERVAL_PAGES for i in range(1, per_scan)
    ]


@settings(max_examples=50, deadline=None)
@given(capacity=st.integers(1, 100), ntuples=st.integers(0, 40_000))
def test_write_out_with_a_crash_injector_writes_record_by_record(
    tmp_path_factory, capacity, ntuples
):
    """A crash armed one record past the run takes the per-record path
    without firing; the log, the pool and the guard checks are the bulk
    path's."""
    directory = tmp_path_factory.mktemp("wal")
    heap = HeapFile(-4, ntuples, arity=3)
    past_the_run = Faults().target("wal.append", "crash", after=heap.n_pages)
    results = []
    for name, faults in (("bulk", None), ("records", past_the_run)):
        path = directory / f"{name}.wal"
        registry = MetricsRegistry()
        with WriteAheadLog(str(path), faults=faults, metrics=registry) as wal:
            pool = BufferPool(capacity, metrics=registry, wal=wal)
            stats, guard = IOStats(), _RecordingGuard()
            heap.write_out(pool, stats, guard=guard)
            wal._fh.flush()
            results.append((
                path.read_bytes(), stats, guard.checks,
                pool.resident_pages(), registry.snapshot().to_dict(),
            ))
            if faults is not None:
                # Every page written reached wal.append once.
                with pytest.raises(InjectedCrash):
                    wal.log_page(PageId(0, 0))
    assert results[0] == results[1]


def test_an_unarmed_site_keeps_the_bulk_paths(tmp_path, monkeypatch):
    """A registry that neither targets nor draws at ``page.read`` or a
    WAL crash point leaves scans on ``read_run`` and writes on
    ``log_run``."""
    def per_page(*args):
        raise AssertionError("took the per-page path")

    monkeypatch.setattr(BufferPool, "read", per_page)
    monkeypatch.setattr(WriteAheadLog, "log_page", per_page)
    faults = Faults(3).rate("checkpoint.pages", "crash", 0.5)
    faults.target("batch.query", "crash", after=5)
    with WriteAheadLog(str(tmp_path / "wal.log"), faults=faults) as wal:
        pool = BufferPool(8, faults=faults, wal=wal)
        heap = HeapFile(2, 20_000, arity=2)
        heap.write_out(pool, IOStats())
        heap.scan(pool, IOStats())
    assert not faults.counts


def test_invalidate_file_touches_only_that_file():
    pool = BufferPool(capacity_pages=100)
    stats = IOStats()
    for file_id in (1, -1, 2):
        pool.read_run(file_id, 0, 10, stats)
    pool.invalidate_file(-1)
    assert {p.file_id for p in pool.resident_pages()} == {1, 2}
    assert len(pool) == 20
    pool.invalidate_file(-1)  # nothing left: a no-op
    pool.read_run(-1, 0, 10, stats)
    assert stats.page_reads == 40 and stats.buffer_hits == 0
