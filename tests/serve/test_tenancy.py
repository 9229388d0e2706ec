"""TenantSpec validation, guard templates, token buckets, spec parsing."""

from __future__ import annotations

import pytest

from repro.errors import QueryError
from repro.serve import TenantSpec, TokenBucket, parse_tenant_spec


class TestTenantSpec:
    def test_defaults(self):
        spec = TenantSpec("t")
        assert spec.priority == 0
        assert spec.rate is None
        assert spec.slots == 1
        assert spec.queue_depth == 8

    @pytest.mark.parametrize("kwargs", [
        {"name": ""},
        {"name": "t", "slots": 0},
        {"name": "t", "queue_depth": -1},
        {"name": "t", "rate": 0.0},
        {"name": "t", "rate": -1.0},
        {"name": "t", "rate": 1.0, "burst": 0.5},
        {"name": "t", "slo_objective": 0.0},
        {"name": "t", "slo_objective": 1.0},
        {"name": "t", "slo_objective": -0.5},
        {"name": "t", "slo": 0.0},
        {"name": "t", "slo": -1.0},
        {"name": "t", "slo": float("nan")},
        {"name": "t", "rate": float("nan")},
        {"name": "t", "rate": float("inf")},
        {"name": "t", "rate": 1.0, "burst": float("nan")},
        {"name": "t", "burst": float("inf")},
    ])
    def test_invalid_specs_rejected(self, kwargs):
        with pytest.raises(QueryError):
            TenantSpec(**kwargs)

    def test_slo_objective_defaults_and_bounds(self):
        assert TenantSpec("t").slo_objective == 0.99
        assert TenantSpec("t", slo_objective=0.5).slo_objective == 0.5

    def test_zero_queue_depth_is_legal(self):
        # queue=0 is the "shed everything" configuration the CLI's
        # forced-shed soak uses; it must construct.
        assert TenantSpec("t", queue_depth=0).queue_depth == 0

    def test_guard_virtual_mode_tightens_cost_budget(self):
        spec = TenantSpec("t", cost_budget=100.0)
        assert spec.make_guard(remaining=40.0).cost_budget == 40.0
        assert spec.make_guard(remaining=500.0).cost_budget == 100.0
        assert spec.make_guard().cost_budget == 100.0
        assert TenantSpec("t").make_guard(remaining=7.0).cost_budget == 7.0
        assert TenantSpec("t").make_guard().cost_budget is None

    def test_guard_virtual_mode_never_sets_wall_deadline(self):
        guard = TenantSpec("t", cost_budget=5.0).make_guard(remaining=1.0)
        assert guard.deadline_seconds is None

    def test_guard_wall_mode_maps_remaining_to_deadline(self):
        spec = TenantSpec("t", cost_budget=100.0)
        guard = spec.make_guard(remaining=0.25, wall=True)
        assert guard.deadline_seconds == 0.25
        assert guard.cost_budget == 100.0

    def test_guard_carries_memory_and_retry_budgets(self):
        spec = TenantSpec("t", memory_limit_pages=12, retry_budget=3)
        guard = spec.make_guard()
        assert guard.memory_limit_pages == 12
        assert guard.retry_budget == 3

    def test_guard_uses_injected_clock(self):
        ticks = iter([0.0, 100.0])
        guard = TenantSpec("t").make_guard(clock=lambda: next(ticks))
        assert guard._clock() == 0.0
        assert guard._clock() == 100.0


class TestTokenBucket:
    def test_unlimited_when_rate_is_none(self):
        bucket = TokenBucket(None, burst=1.0)
        assert all(bucket.try_take(0.0) for _ in range(100))

    def test_burst_then_dry(self):
        bucket = TokenBucket(rate=1.0, burst=3.0)
        assert [bucket.try_take(0.0) for _ in range(4)] == [
            True, True, True, False,
        ]

    def test_refill_is_proportional_to_elapsed(self):
        bucket = TokenBucket(rate=0.5, burst=1.0)
        assert bucket.try_take(0.0)
        assert not bucket.try_take(1.0)   # only 0.5 tokens back
        assert bucket.try_take(2.0)       # a full token at rate 0.5

    def test_refill_caps_at_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0)
        for _ in range(2):
            assert bucket.try_take(100.0)
        assert not bucket.try_take(100.0)

    def test_time_never_runs_backwards(self):
        bucket = TokenBucket(rate=1.0, burst=1.0)
        assert bucket.try_take(10.0)
        # An out-of-order timestamp neither refills nor corrupts state.
        assert not bucket.try_take(5.0)
        assert bucket.try_take(11.0)

    def test_decisions_are_a_pure_function_of_timestamps(self):
        times = [0.0, 0.1, 0.5, 1.0, 1.1, 3.0, 3.05, 9.0]
        runs = [
            [TokenBucket(rate=1.0, burst=2.0).try_take(t) for t in times]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]


class TestParseTenantSpec:
    def test_full_spec(self):
        spec = parse_tenant_spec(
            "gold,priority=2,rate=0.5,burst=4,slots=2,queue=16,"
            "slo=1e6,objective=0.95,cost=5e5,mem=64,retries=8"
        )
        assert spec == TenantSpec(
            "gold", priority=2, rate=0.5, burst=4.0, slots=2,
            queue_depth=16, slo=1e6, slo_objective=0.95,
            cost_budget=5e5, memory_limit_pages=64, retry_budget=8,
        )

    def test_name_only(self):
        assert parse_tenant_spec("bulk") == TenantSpec("bulk")

    @pytest.mark.parametrize("text", [
        "",                      # no name
        "priority=2",            # key=value where the name should be
        "t,priority",            # missing =value
        "t,banana=1",            # unknown key
        "t,priority=high",       # uncastable value
        "t,slots=0",             # semantically invalid spec
    ])
    def test_malformed_specs_raise_value_error(self, text):
        # ValueError (not QueryError): the CLI maps it to exit code 2.
        with pytest.raises(ValueError):
            parse_tenant_spec(text)
