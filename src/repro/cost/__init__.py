"""Cardinality estimation and cost models (Section 5.1)."""

from repro.cost.cardinality import (
    JoinSize,
    group_stats,
    join_size,
    join_stats,
    select_stats,
)
from repro.cost.model import CostModel, IOCostModel, SimpleCostModel

__all__ = [
    "JoinSize",
    "join_size",
    "join_stats",
    "group_stats",
    "select_stats",
    "CostModel",
    "SimpleCostModel",
    "IOCostModel",
]
