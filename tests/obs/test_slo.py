"""Tests for the per-tenant sliding-window SLO telemetry."""

import pytest

from repro.obs import MetricsRegistry, SlidingDigest, SLOMonitor, quantile


class TestQuantile:
    def test_nearest_rank_is_exact(self):
        values = [5.0, 1.0, 3.0, 2.0, 4.0]
        assert quantile(values, 0.50) == 3.0
        assert quantile(values, 0.95) == 5.0
        assert quantile(values, 0.99) == 5.0
        assert quantile(values, 1.00) == 5.0
        assert quantile(values, 0.20) == 1.0

    def test_empty_window_is_zero(self):
        assert quantile([], 0.99) == 0.0

    def test_single_sample(self):
        assert quantile([7.5], 0.50) == 7.5

    @pytest.mark.parametrize("q", [0.0, -0.1, 1.5])
    def test_fraction_out_of_range(self, q):
        with pytest.raises(ValueError, match="out of range"):
            quantile([1.0], q)

    def test_no_interpolation(self):
        # Nearest rank returns an observed value, never a midpoint.
        assert quantile([1.0, 2.0], 0.50) == 1.0
        assert quantile([1.0, 2.0], 0.75) == 2.0


class TestSlidingDigest:
    def test_window_evicts_oldest(self):
        digest = SlidingDigest(window=3)
        for v in (10.0, 20.0, 30.0, 40.0):
            digest.observe(v)
        assert len(digest) == 3
        assert digest.count == 4          # lifetime, not window
        assert digest.quantile(0.50) == 30.0
        assert digest.quantile(1.00) == 40.0

    def test_rejects_degenerate_window(self):
        with pytest.raises(ValueError, match="window"):
            SlidingDigest(window=0)


class _Spec:
    def __init__(self, name, slo=None, slo_objective=0.99):
        self.name = name
        self.slo = slo
        self.slo_objective = slo_objective


class TestSLOMonitor:
    def test_attainment_counts_only_within_slo_completions(self):
        mon = SLOMonitor([_Spec("gold", slo=100.0)])
        mon.record("gold", "ok", latency=50.0, queue_wait=1.0)
        mon.record("gold", "ok", latency=150.0, queue_wait=2.0)  # blown
        mon.record("gold", "shed")
        mon.record("gold", "error")
        (row,) = mon.rows()
        assert row["ok"] == 2 and row["shed"] == 1 and row["errors"] == 1
        assert row["attainment"] == 0.25

    def test_tenant_without_slo_counts_completions_as_good(self):
        mon = SLOMonitor([_Spec("bulk")])
        mon.record("bulk", "ok", latency=1e9)
        mon.record("bulk", "shed")
        (row,) = mon.rows()
        assert row["attainment"] == 0.5

    def test_empty_window_attains_fully(self):
        mon = SLOMonitor([_Spec("idle", slo=1.0)])
        (row,) = mon.rows()
        assert row["attainment"] == 1.0
        assert row["burn_rate"] == 0.0

    def test_burn_rate_is_budget_relative(self):
        # 50% attainment against a 90% objective burns 5x budget.
        mon = SLOMonitor([_Spec("gold", slo=100.0, slo_objective=0.9)])
        mon.record("gold", "ok", latency=50.0)
        mon.record("gold", "shed")
        (row,) = mon.rows()
        assert row["burn_rate"] == pytest.approx(5.0)

    def test_gauges_published_per_tenant(self):
        reg = MetricsRegistry()
        mon = SLOMonitor([_Spec("gold", slo=100.0)], metrics=reg)
        for latency in (10.0, 20.0, 30.0):
            mon.record("gold", "ok", latency=latency, queue_wait=latency)
        snap = reg.snapshot().to_dict()
        assert snap["serve.slo_latency_p50{tenant=gold}"]["value"] == 20.0
        assert snap["serve.slo_latency_p99{tenant=gold}"]["value"] == 30.0
        assert snap["serve.slo_queue_wait_p50{tenant=gold}"]["value"] == 20.0
        assert snap["serve.slo_queue_wait_p95{tenant=gold}"]["value"] == 30.0
        assert snap["serve.slo_attainment{tenant=gold}"]["value"] == 1.0
        assert snap["serve.slo_burn_rate{tenant=gold}"]["value"] == 0.0

    def test_unknown_tenant_registered_lazily(self):
        mon = SLOMonitor()
        mon.record("walkin", "ok", latency=5.0)
        (row,) = mon.rows()
        assert row["tenant"] == "walkin"
        assert row["slo"] is None

    def test_rows_sorted_and_render_covers_all_tenants(self):
        mon = SLOMonitor([_Spec("gold", slo=10.0), _Spec("bulk")])
        mon.record("gold", "ok", latency=5.0, queue_wait=1.0)
        mon.record("bulk", "shed")
        assert [r["tenant"] for r in mon.rows()] == ["bulk", "gold"]
        table = mon.render()
        assert "TENANT" in table
        assert "gold" in table and "bulk" in table
        assert "BURN" in table

    def test_sliding_window_forgets_old_failures(self):
        mon = SLOMonitor([_Spec("gold", slo=100.0)], window=2)
        mon.record("gold", "shed")
        mon.record("gold", "ok", latency=1.0)
        mon.record("gold", "ok", latency=2.0)
        (row,) = mon.rows()
        # The shed fell out of the 2-wide window.
        assert row["attainment"] == 1.0
