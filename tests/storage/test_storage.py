"""Unit tests for the simulated storage substrate."""

import pytest

from repro.data import complete_relation, var
from repro.errors import StorageError
from repro.obs.metrics import MetricsRegistry
from repro.storage import (
    BufferPool,
    HeapFile,
    IOStats,
    PageGeometry,
    PageId,
)


class TestPageGeometry:
    def test_tuple_bytes(self):
        g = PageGeometry(arity=3)
        assert g.tuple_bytes == 32  # 3 vars + measure, 8 bytes each

    def test_tuples_per_page(self):
        g = PageGeometry(arity=1, page_size=8192)
        assert g.tuples_per_page == (8192 - 24) // 16

    def test_pages_for(self):
        g = PageGeometry(arity=1, page_size=8192)
        tpp = g.tuples_per_page
        assert g.pages_for(0) == 1
        assert g.pages_for(tpp) == 1
        assert g.pages_for(tpp + 1) == 2

    def test_tiny_page_rejected(self):
        with pytest.raises(StorageError):
            PageGeometry(arity=1, page_size=8)

    def test_negative_arity_rejected(self):
        with pytest.raises(StorageError):
            PageGeometry(arity=-1)


class TestBufferPool:
    def test_empty_pool_is_truthy(self):
        # `pool or BufferPool()` must honor a caller's (still empty)
        # pool instead of silently replacing it.
        pool = BufferPool(capacity_pages=4)
        assert len(pool) == 0
        assert bool(pool)

    def test_miss_then_hit(self):
        pool = BufferPool(capacity_pages=4)
        stats = IOStats()
        page = PageId(1, 0)
        pool.read(page, stats)
        pool.read(page, stats)
        assert stats.page_reads == 1
        assert stats.buffer_hits == 1

    def test_lru_eviction(self):
        pool = BufferPool(capacity_pages=2)
        stats = IOStats()
        p = [PageId(1, i) for i in range(3)]
        pool.read(p[0], stats)
        pool.read(p[1], stats)
        pool.read(p[2], stats)  # evicts p[0]
        pool.read(p[0], stats)  # miss again
        assert stats.page_reads == 4
        assert stats.buffer_hits == 0

    def test_lru_recency_update(self):
        pool = BufferPool(capacity_pages=2)
        stats = IOStats()
        a, b, c = PageId(1, 0), PageId(1, 1), PageId(1, 2)
        pool.read(a, stats)
        pool.read(b, stats)
        pool.read(a, stats)  # refresh a
        pool.read(c, stats)  # evicts b, not a
        assert a in pool
        assert b not in pool

    def test_write_admits_page(self):
        pool = BufferPool(capacity_pages=4)
        stats = IOStats()
        pool.write(PageId(2, 0), stats)
        assert stats.page_writes == 1
        assert PageId(2, 0) in pool

    def test_invalidate_file(self):
        pool = BufferPool(capacity_pages=8)
        stats = IOStats()
        pool.read(PageId(1, 0), stats)
        pool.read(PageId(2, 0), stats)
        pool.invalidate_file(1)
        assert PageId(1, 0) not in pool
        assert PageId(2, 0) in pool

    def test_zero_capacity_rejected(self):
        with pytest.raises(StorageError):
            BufferPool(0)

    def test_counters_appear_on_first_use_only(self):
        registry = MetricsRegistry()
        pool = BufferPool(capacity_pages=4, metrics=registry)
        stats = IOStats()
        assert registry.snapshot().to_dict() == {}
        pool.read(PageId(1, 0), stats)
        assert registry.snapshot().to_dict() == {
            "bufferpool.reads": {"kind": "counter", "value": 1},
        }
        pool.read(PageId(1, 0), stats)
        pool.read(PageId(1, 0), stats)
        pool.write(PageId(1, 1), stats)
        assert registry.snapshot().to_dict() == {
            "bufferpool.reads": {"kind": "counter", "value": 1},
            "bufferpool.hits": {"kind": "counter", "value": 2},
            "bufferpool.writes": {"kind": "counter", "value": 1},
        }

    def test_counter_handles_are_resolved_once(self, monkeypatch):
        registry = MetricsRegistry()
        lookups = []
        real = registry.counter
        monkeypatch.setattr(
            registry, "counter",
            lambda name: lookups.append(name) or real(name),
        )
        pool = BufferPool(capacity_pages=2, metrics=registry)
        stats = IOStats()
        for i in range(50):
            pool.read(PageId(1, i % 5), stats)
        assert lookups == ["bufferpool.reads"]

    def test_counter_handles_follow_a_reassigned_registry(self):
        first, second = MetricsRegistry(), MetricsRegistry()
        pool = BufferPool(capacity_pages=4, metrics=first)
        stats = IOStats()
        pool.read(PageId(1, 0), stats)
        pool.metrics = second
        pool.read(PageId(1, 1), stats)
        pool.read(PageId(1, 1), stats)
        pool.metrics = None
        pool.read(PageId(1, 2), stats)
        pool.metrics = first
        pool.read(PageId(1, 3), stats)
        assert first.counter("bufferpool.reads").value == 2
        assert first.keys() == ["bufferpool.reads"]
        assert second.counter("bufferpool.reads").value == 1
        assert second.counter("bufferpool.hits").value == 1

    def test_counter_handles_survive_a_registry_restore(self):
        registry = MetricsRegistry()
        pool = BufferPool(capacity_pages=4, metrics=registry)
        stats = IOStats()
        pool.read(PageId(1, 0), stats)
        registry.restore(
            {"bufferpool.reads": {"kind": "counter", "value": 10}}
        )
        pool.read(PageId(1, 1), stats)
        assert registry.counter("bufferpool.reads").value == 11


class TestHeapFile:
    def test_for_relation(self):
        rel = complete_relation([var("a", 100), var("b", 100)])
        hf = HeapFile.for_relation(1, rel)
        assert hf.ntuples == 10_000
        assert hf.n_pages == PageGeometry(2).pages_for(10_000)

    def test_scan_charges_all_pages(self):
        hf = HeapFile(1, ntuples=100_000, arity=2)
        pool = BufferPool(capacity_pages=hf.n_pages + 10)
        stats = IOStats()
        hf.scan(pool, stats)
        assert stats.page_reads == hf.n_pages
        # Second scan hits the cache.
        hf.scan(pool, stats)
        assert stats.page_reads == hf.n_pages
        assert stats.buffer_hits == hf.n_pages

    def test_scan_larger_than_pool_never_hits(self):
        hf = HeapFile(1, ntuples=100_000, arity=2)
        pool = BufferPool(capacity_pages=max(1, hf.n_pages // 2))
        stats = IOStats()
        hf.scan(pool, stats)
        hf.scan(pool, stats)
        assert stats.buffer_hits == 0
        assert stats.page_reads == 2 * hf.n_pages

    def test_write_out(self):
        hf = HeapFile(3, ntuples=1000, arity=1)
        pool = BufferPool()
        stats = IOStats()
        hf.write_out(pool, stats)
        assert stats.page_writes == hf.n_pages


class TestTempAllocator:
    """Temporary file ids come from the pool, one sequence per pool."""

    def test_unique_negative_ids(self):
        pool = BufferPool()
        a, b = pool.temp_file_id(), pool.temp_file_id()
        assert a != b
        assert a < 0 and b < 0

    def test_warmed_temp_pages_are_never_handed_out_again(self):
        # A recovered pool re-admits the checkpoint's resident pages,
        # temporary ones included: new spills must not land on them.
        pool = BufferPool()
        pool.warm([PageId(3, 0), PageId(-7, 2), PageId(-4, 0)])
        assert pool.temp_file_id() == -8

    def test_contexts_sharing_a_pool_never_share_a_temp_page(self):
        # Each context used to restart its own allocator at -1, so two
        # contexts over one pool spilled to the same pages and the
        # second one's spill found the first one's still resident.
        from repro.data import complete_relation, var
        from repro.plans.runtime import ExecutionContext
        from repro.semiring import SUM_PRODUCT

        relation = complete_relation([var("a", 50), var("b", 40)])
        pool = BufferPool(capacity_pages=64)
        spilled = []
        for _ in range(2):
            ctx = ExecutionContext({}, SUM_PRODUCT, pool=pool,
                                   workmem_pages=0)
            before = set(pool.resident_pages())
            ctx.maybe_spill(relation.ntuples, relation.arity)
            assert ctx.stats.page_writes > 0
            spilled.append(set(pool.resident_pages()) - before)
        assert all(page.file_id < 0 for page in spilled[0] | spilled[1])
        assert spilled[0] and spilled[1]
        assert not spilled[0] & spilled[1]


class TestIOStats:
    def test_elapsed_weighting(self):
        stats = IOStats(io_weight=100.0, cpu_weight=1.0)
        stats.charge_read(2)
        stats.charge_write(1)
        stats.charge_cpu(50)
        assert stats.elapsed() == 100.0 * 3 + 50

    def test_merged_with(self):
        a = IOStats()
        a.charge_read(1)
        a.record_operator("x", 5)
        b = IOStats()
        b.charge_cpu(10)
        merged = a.merged_with(b)
        assert merged.page_reads == 1
        assert merged.tuples_processed == 10
        assert merged.operators_run == 1

    def test_summary_format(self):
        stats = IOStats()
        stats.charge_read()
        assert "reads=1" in stats.summary()

    def test_memo_hits_in_summary_only_when_nonzero(self):
        stats = IOStats()
        assert "memo=" not in stats.summary()
        stats.charge_memo_hit()
        assert "memo=1" in stats.summary()

    def test_snapshot_since_delta(self):
        stats = IOStats()
        stats.charge_read(2)
        stats.record_operator("before", 3)
        snapshot = stats.snapshot()
        stats.charge_read(1)
        stats.charge_write(4)
        stats.charge_memo_hit()
        stats.record_operator("after", 7)
        delta = stats.since(snapshot)
        assert delta.page_reads == 1
        assert delta.page_writes == 4
        assert delta.memo_hits == 1
        assert delta.operators_run == 1
        assert delta.per_operator == [("after", 7)]
