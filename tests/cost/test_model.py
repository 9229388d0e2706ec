"""Unit tests for the cost models."""

import math

import pytest

from repro.catalog import TableStats
from repro.cost import IOCostModel, JoinSize, SimpleCostModel, join_stats


def _stats(name, card, arity=2):
    sizes = {f"v{i}": 10 for i in range(arity)}
    distinct = {k: float(min(card, 10)) for k in sizes}
    return TableStats(name, card, sizes, distinct)


class TestSimpleCostModel:
    def test_join_is_product(self):
        m = SimpleCostModel()
        assert m.join_cost(_stats("l", 100), _stats("r", 50), _stats("o", 10)) == 5000

    def test_group_is_nlogn(self):
        m = SimpleCostModel()
        got = m.group_cost(_stats("c", 1024), _stats("o", 10))
        assert got == 1024 * math.log2(1024)

    def test_group_floor_at_two(self):
        m = SimpleCostModel()
        assert m.group_cost(_stats("c", 1), _stats("o", 1)) == 2.0

    def test_scan_free(self):
        m = SimpleCostModel()
        assert m.scan_cost(_stats("t", 10**6)) == 0.0

    def test_select_linear(self):
        m = SimpleCostModel()
        assert m.select_cost(_stats("c", 123), _stats("o", 1)) == 123


class TestIOCostModel:
    def test_join_counts_pages(self):
        m = IOCostModel(cpu_per_tuple=0.0)
        left, right, out = _stats("l", 10_000), _stats("r", 10_000), _stats("o", 100)
        cost = m.join_cost(left, right, out)
        assert cost == m._pages(left) + m._pages(right) + m._pages(out)

    def test_scan_counts_pages(self):
        m = IOCostModel()
        assert m.scan_cost(_stats("t", 100_000)) > m.scan_cost(_stats("t", 100))

    def test_cpu_term_matters(self):
        cheap = IOCostModel(cpu_per_tuple=0.0)
        pricey = IOCostModel(cpu_per_tuple=1.0)
        s = _stats("t", 10_000)
        assert pricey.join_cost(s, s, s) > cheap.join_cost(s, s, s)

    def test_bigger_input_costs_more(self):
        m = IOCostModel()
        small = m.group_cost(_stats("c", 100), _stats("o", 10))
        big = m.group_cost(_stats("c", 1_000_000), _stats("o", 10))
        assert big > small


@pytest.mark.parametrize("method", ["hash", "sort_merge"])
@pytest.mark.parametrize("model", [SimpleCostModel(), IOCostModel()])
def test_join_cost_reads_only_the_output_size(model, method):
    """``out`` may be a ``JoinSize``: same cost as full stats."""
    left = TableStats(
        "l", 5000.0, {"a": 40, "b": 300, "c": 7}, {"a": 40.0, "b": 250.0, "c": 7.0}
    )
    right = TableStats("r", 900.0, {"b": 300, "d": 3}, {"b": 300.0, "d": 3.0})
    assert model.join_cost(
        left, right, JoinSize(left, right), method
    ) == model.join_cost(left, right, join_stats(left, right), method)
