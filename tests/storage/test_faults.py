"""Fault injection and retry: determinism, backoff, accounting."""

import math
import random

import pytest

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage import (
    DEFAULT_RETRY_POLICY,
    SITES,
    BufferPool,
    Faults,
    HeapFile,
    IOStats,
    PageId,
    RetryPolicy,
    read_with_retry,
)


class TestRetryPolicy:
    def test_exponential_backoff(self):
        policy = RetryPolicy(max_attempts=5, base_delay=100.0, max_delay=2000.0)
        assert policy.delay_for(0) == 100.0
        assert policy.delay_for(1) == 200.0
        assert policy.delay_for(2) == 400.0

    def test_backoff_is_capped(self):
        policy = RetryPolicy(base_delay=100.0, max_delay=350.0)
        assert policy.delay_for(5) == 350.0

    def test_default_policy_sane(self):
        assert DEFAULT_RETRY_POLICY.max_attempts >= 2
        assert DEFAULT_RETRY_POLICY.base_delay > 0


class TestFaultInjectorTargeted:
    def test_transient_page_heals_after_k_failures(self):
        faults = Faults()
        page = PageId(1, 0)
        faults.target("page.read", "transient", page, times=2)
        for _ in range(2):
            with pytest.raises(TransientStorageError):
                faults.before_read(page)
        faults.before_read(page)  # healed
        assert faults.counts[("page.read", "transient")] == 2

    def test_permanent_page_never_heals(self):
        faults = Faults()
        page = PageId(1, 3)
        faults.target("page.read", "permanent", page, times=math.inf)
        for _ in range(5):
            with pytest.raises(PermanentStorageError):
                faults.before_read(page)
        assert faults.counts[("page.read", "permanent")] == 5

    def test_fail_file_poisons_every_page(self):
        faults = Faults()
        faults.target("page.read", "permanent", 7, times=math.inf)
        for page_no in range(4):
            with pytest.raises(PermanentStorageError):
                faults.before_read(PageId(7, page_no))
        faults.before_read(PageId(8, 0))  # other files unaffected

    def test_heal_clears_everything(self):
        faults = Faults()
        faults.target("page.read", "transient", PageId(1, 0), times=5)
        faults.target("page.read", "permanent", 2, times=math.inf)
        faults.heal()
        faults.before_read(PageId(1, 0))
        faults.before_read(PageId(2, 0))
        assert not faults.armed("page.read")

    def test_bad_rates_rejected(self):
        with pytest.raises(StorageError):
            Faults().rate("page.read", "transient", 1.5)
        with pytest.raises(StorageError):
            Faults().rate("page.read", "transient", 0.1, times=0)


class TestFaultInjectorSeeded:
    def _fault_map(self, seed, rate, pages=200):
        faults = Faults(seed).rate("page.read", "transient", rate)
        hit = set()
        for page_no in range(pages):
            page = PageId(1, page_no)
            try:
                faults.before_read(page)
            except TransientStorageError:
                hit.add(page_no)
        return hit

    def test_same_seed_same_faults(self):
        assert self._fault_map(7, 0.2) == self._fault_map(7, 0.2)

    def test_different_seed_different_faults(self):
        assert self._fault_map(7, 0.2) != self._fault_map(8, 0.2)

    def test_rate_roughly_respected(self):
        hit = self._fault_map(3, 0.25, pages=400)
        assert 0.10 < len(hit) / 400 < 0.45

    def test_zero_rate_never_faults(self):
        assert self._fault_map(1, 0.0) == set()


class TestReadWithRetry:
    def test_transient_fault_retried_and_charged(self):
        faults = Faults()
        page = PageId(1, 0)
        faults.target("page.read", "transient", page, times=2)
        pool = BufferPool(capacity_pages=4, faults=faults)
        stats = IOStats()
        read_with_retry(pool, page, stats)
        assert stats.page_reads == 1
        assert stats.retries == 2
        # Backoff follows the policy: first retry waits base, second 2x.
        policy = DEFAULT_RETRY_POLICY
        assert stats.retry_wait == policy.delay_for(0) + policy.delay_for(1)
        assert stats.elapsed() > 1000.0  # retry wait is on the clock

    def test_permanent_fault_not_retried(self):
        faults = Faults()
        page = PageId(1, 0)
        faults.target("page.read", "permanent", page, times=math.inf)
        pool = BufferPool(capacity_pages=4, faults=faults)
        stats = IOStats()
        with pytest.raises(PermanentStorageError):
            read_with_retry(pool, page, stats)
        assert stats.retries == 0

    def test_exhausted_attempts_raise_transient(self):
        faults = Faults()
        page = PageId(1, 0)
        faults.target(
            "page.read", "transient", page,
            times=DEFAULT_RETRY_POLICY.max_attempts + 5,
        )
        pool = BufferPool(capacity_pages=4, faults=faults)
        stats = IOStats()
        with pytest.raises(TransientStorageError):
            read_with_retry(pool, page, stats)
        assert stats.retries == DEFAULT_RETRY_POLICY.max_attempts - 1

    def test_guard_retry_budget_caps_total_retries(self):
        from repro.plans.guard import QueryGuard

        faults = Faults()
        pool = BufferPool(capacity_pages=8, faults=faults)
        guard = QueryGuard(retry_budget=1)
        stats = IOStats()
        guard.restart(stats)
        page_a, page_b = PageId(1, 0), PageId(1, 1)
        faults.target("page.read", "transient", page_a)
        faults.target("page.read", "transient", page_b)
        read_with_retry(pool, page_a, stats, guard=guard)  # spends budget
        with pytest.raises(TransientStorageError):
            read_with_retry(pool, page_b, stats, guard=guard)

    def test_buffer_hits_never_fault(self):
        faults = Faults()
        page = PageId(1, 0)
        pool = BufferPool(capacity_pages=4, faults=faults)
        stats = IOStats()
        pool.read(page, stats)  # clean miss, page now cached
        faults.target("page.read", "permanent", page, times=math.inf)
        pool.read(page, stats)  # hit: no storage access, no fault
        assert stats.buffer_hits == 1


class TestHeapFileUnderFaults:
    def test_scan_retries_transient_pages(self):
        hf = HeapFile(1, ntuples=50_000, arity=2)
        faults = Faults()
        faults.target("page.read", "transient", PageId(1, 0))
        faults.target("page.read", "transient", PageId(1, hf.n_pages - 1))
        pool = BufferPool(capacity_pages=hf.n_pages + 4, faults=faults)
        stats = IOStats()
        hf.scan(pool, stats)
        assert stats.page_reads == hf.n_pages
        assert stats.retries == 2

    def test_scan_propagates_permanent_fault(self):
        hf = HeapFile(1, ntuples=50_000, arity=2)
        faults = Faults()
        faults.target("page.read", "permanent", PageId(1, 1), times=math.inf)
        pool = BufferPool(capacity_pages=hf.n_pages + 4, faults=faults)
        with pytest.raises(PermanentStorageError):
            hf.scan(pool, IOStats())


class TestIOStatsRetryAccounting:
    def test_merged_with_sums_retries(self):
        a, b = IOStats(), IOStats()
        a.charge_retry(100.0)
        b.charge_retry(200.0)
        b.charge_retry(50.0)
        merged = a.merged_with(b)
        assert merged.retries == 3
        assert merged.retry_wait == 350.0

    def test_since_subtracts_retries(self):
        stats = IOStats()
        stats.charge_retry(100.0)
        snap = stats.snapshot()
        stats.charge_retry(75.0)
        delta = stats.since(snap)
        assert delta.retries == 1
        assert delta.retry_wait == 75.0

    def test_summary_mentions_retries_only_when_nonzero(self):
        stats = IOStats()
        assert "retries=" not in stats.summary()
        stats.charge_retry(10.0)
        assert "retries=1" in stats.summary()


class TestWorkerFaultInjector:
    """The registry injects no worker (task) faults: there is no
    ``task`` site, no task fault kinds and no task-fault parameters."""

    def test_validates_configuration(self):
        assert "task" not in SITES
        with pytest.raises(StorageError, match="unknown fault site"):
            Faults().rate("task", ("crash",), 0.1)
        with pytest.raises(TypeError):
            Faults(slow_factor=4.0)
        with pytest.raises(TypeError):
            Faults(poison_tasks=1)

    def test_rejects_unknown_targeted_kind(self):
        faults = Faults()
        with pytest.raises(StorageError, match="unknown fault site"):
            faults.target("task", "crash", 0)
        # The task kinds are not kinds of any remaining site either.
        for kind in ("hang", "slow", "lost", "poison"):
            with pytest.raises(StorageError, match="fault kind"):
                faults.target("batch.query", kind, 0)
        with pytest.raises(StorageError, match="fault kind"):
            faults.target("page.read", "crash", PageId(1, 0))
        assert not faults.counts


class TestOneValidator:
    """Every fault parameter goes through one check: non-finite rates
    and factors, non-integer or negative counts are rejected."""

    @pytest.mark.parametrize("configure", [
        pytest.param(
            lambda f: f.rate("page.read", "transient", math.nan),
            id="nan-rate",
        ),
        pytest.param(
            lambda f: f.rate("page.read", "permanent", math.inf),
            id="inf-rate",
        ),
        pytest.param(
            lambda f: f.rate("batch.query", "crash", -0.1), id="negative-rate"
        ),
        pytest.param(
            lambda f: f.rate("page.read", "transient", 0.1, times=1.5),
            id="fractional-times",
        ),
        pytest.param(
            lambda f: f.rate("page.read", "transient", 0.1, times=math.nan),
            id="nan-times",
        ),
        pytest.param(
            lambda f: f.target("batch.query", "crash", after=1.5),
            id="fractional-after",
        ),
        pytest.param(
            lambda f: f.target("batch.query", "crash", after=-1),
            id="negative-after",
        ),
        pytest.param(
            lambda f: f.target("batch.query", "crash", after=math.inf),
            id="infinite-after",
        ),
        pytest.param(
            lambda f: f.target("batch.query", "crash", -1),
            id="negative-ordinal",
        ),
        pytest.param(
            lambda f: f.target("batch.query", "crash", 2.5),
            id="fractional-ordinal",
        ),
        pytest.param(
            lambda f: f.target("batch.query", "crash", 0, times=0),
            id="zero-times",
        ),
        pytest.param(
            lambda f: f.target("page.read", "transient", PageId(1, 0), times=2.0),
            id="float-times",
        ),
        pytest.param(lambda f: f.target("warp.core", "crash"), id="unknown-site"),
        pytest.param(
            lambda f: f.target("page.read", "crash", PageId(1, 0)),
            id="unknown-kind",
        ),
        pytest.param(lambda f: f.target("page.read", "transient"), id="keyless-page"),
    ])
    def test_rejected_with_storage_error(self, configure):
        with pytest.raises(StorageError):
            configure(Faults())

    def test_temporary_file_keys_are_accepted(self):
        faults = Faults().target("page.read", "permanent", -3, times=2)
        with pytest.raises(PermanentStorageError):
            faults.before_read(PageId(-3, 0))

    def test_infinite_times_never_heals(self):
        page = PageId(4, 2)
        faults = Faults().target("page.read", "transient", page, times=math.inf)
        assert all(
            faults.draw("page.read", page) == "transient" for _ in range(50)
        )


# ----------------------------------------------------------------------
# The parent's seeded draw rules, kept verbatim as the reference
# the registry must reproduce bit for bit.
# ----------------------------------------------------------------------
def _reference_page(seed, transient_rate, permanent_rate, page):
    if permanent_rate == 0.0 and transient_rate == 0.0:
        return None
    mixed = (seed * 1_000_003 + page.file_id) * 1_000_003 + page.page_no
    rng = random.Random(mixed)
    roll = rng.random()
    if roll < permanent_rate:
        return "permanent"
    if roll < permanent_rate + transient_rate:
        return "transient"
    return None


def _reference_crash(seed, points):
    """The seeded point; its first reach crashes."""
    return random.Random(seed).choice(list(points))


class TestSeededDrawsMatchTheParentRules:
    SEEDS = (0, 1, 7, 42, 1234, -3, 2**40 + 5)
    RATES = (0.0, 0.05, 0.3, 0.77, 1.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_pages(self, seed):
        pages = [PageId(f, p) for f in (-2, 1, 9, 300) for p in range(40)]
        for transient in self.RATES:
            for permanent in self.RATES:
                faults = Faults(seed)
                faults.rate("page.read", "permanent", permanent,
                            times=math.inf)
                faults.rate("page.read", "transient", transient)
                for page in pages:
                    expected = _reference_page(
                        seed, transient, permanent, page
                    )
                    got = faults.draw("page.read", page)
                    assert got == expected, (transient, permanent, page)

    @pytest.mark.parametrize("seed", range(40))
    def test_seeded_crash_point(self, seed):
        from repro.storage import CRASH_POINTS, InjectedCrash

        point = _reference_crash(seed, CRASH_POINTS)
        faults = Faults(seed).target_seeded(CRASH_POINTS, "crash")
        assert [s for s in SITES if faults.armed(s)] == [point]
        with pytest.raises(InjectedCrash):
            faults.reach(point)
