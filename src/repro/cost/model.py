"""Cost models for plan selection.

Two models are provided:

* :class:`SimpleCostModel` — the paper's analytical model from
  Section 5.1: "a simple cost model where joining R and S costs
  |R||S| and computing an aggregate on R costs |R| log |R|".  This is
  the model used by the plan-linearity admissibility test (Eq. 1) and
  by the optimizers by default, so plan choices match the paper's
  analysis.

* :class:`IOCostModel` — a page-IO model over the simulated storage
  layer: operators pay for reading their inputs, writing results that
  must be materialized, and a CPU term per tuple.  Closer to what a
  real System-R optimizer minimizes; useful for ablations.

Both models share one interface so optimizers are model-agnostic.
"""

from __future__ import annotations

import math

from repro.catalog.statistics import TableStats
from repro.cost.cardinality import JoinSize
from repro.storage.page import DEFAULT_PAGE_SIZE, PageGeometry

__all__ = ["CostModel", "SimpleCostModel", "IOCostModel"]


class CostModel:
    """Interface: per-operator cost from input/output statistics.

    ``method`` selects the physical algorithm where several exist
    (Section 5: "there are multiple algorithms to implement join
    (multiplication) and aggregation (summation)"): joins support
    "hash" and "sort_merge", aggregation "sort" and "hash".  Models may
    ignore the parameter (the paper's analytical model does).
    """

    name = "abstract"

    def scan_cost(self, table: TableStats) -> float:
        raise NotImplementedError

    def join_cost(
        self,
        left: TableStats,
        right: TableStats,
        out: TableStats | JoinSize,
        method: str = "hash",
    ) -> float:
        """Cost of ``left ⋈* right`` producing ``out``.

        ``out`` carries ``cardinality`` and ``var_sizes`` only — the
        join-order search costs candidates with a
        :class:`~repro.cost.cardinality.JoinSize`, which derives each on
        first read and is re-aimed at the next candidate after the call,
        and never builds full statistics for them — so implementations
        may read nothing else from it, and must not keep it.  The
        inputs are :class:`TableStats` or the search's per-subset
        estimates; read ``cardinality`` and ``var_sizes`` from them too.
        """
        raise NotImplementedError

    def group_cost(
        self, child: TableStats, out: TableStats, method: str = "sort"
    ) -> float:
        raise NotImplementedError

    def select_cost(self, child: TableStats, out: TableStats) -> float:
        raise NotImplementedError

    def index_scan_cost(
        self, table: TableStats, out: TableStats
    ) -> float:
        """Cost of an equality probe returning ``out`` rows."""
        raise NotImplementedError


class SimpleCostModel(CostModel):
    """The paper's Section 5.1 model: |R||S| joins, |R| log |R| aggregates."""

    name = "simple"

    def scan_cost(self, table: TableStats) -> float:
        return 0.0

    def join_cost(
        self,
        left: TableStats,
        right: TableStats,
        out: TableStats | JoinSize,
        method: str = "hash",
    ) -> float:
        return left.cardinality * right.cardinality

    def group_cost(
        self, child: TableStats, out: TableStats, method: str = "sort"
    ) -> float:
        n = max(child.cardinality, 2.0)
        return n * math.log2(n)

    def select_cost(self, child: TableStats, out: TableStats) -> float:
        return child.cardinality

    def index_scan_cost(
        self, table: TableStats, out: TableStats
    ) -> float:
        # The analytical model prices access by rows touched.
        return out.cardinality


class IOCostModel(CostModel):
    """Page-IO model over the simulated storage layer.

    Joins are costed as hash joins (read both inputs, write the
    output); aggregates as sort-based grouping (read, sort CPU, write).
    ``cpu_per_tuple`` converts tuple touches into page-IO-equivalent
    units so the two terms can be summed.
    """

    name = "io"

    def __init__(
        self,
        page_size: int = DEFAULT_PAGE_SIZE,
        cpu_per_tuple: float = 0.001,
    ):
        self.page_size = page_size
        self.cpu_per_tuple = cpu_per_tuple
        #: ``PageGeometry(arity, page_size).tuples_per_page`` by arity.
        self._per_page: dict[int, int] = {}
        PageGeometry(0, page_size)  # validates the page size

    def _pages(self, table: TableStats | JoinSize) -> float:
        """``PageGeometry.pages_for`` of the table's rows, one geometry
        per arity."""
        rows = math.ceil(table.cardinality)
        if rows <= 0:
            return 1.0
        arity = len(table.var_sizes)
        try:
            per_page = self._per_page[arity]
        except KeyError:
            per_page = PageGeometry(arity, self.page_size).tuples_per_page
            self._per_page[arity] = per_page
        return float(-(-rows // per_page))

    def scan_cost(self, table: TableStats) -> float:
        return self._pages(table)

    def join_cost(
        self,
        left: TableStats,
        right: TableStats,
        out: TableStats | JoinSize,
        method: str = "hash",
    ) -> float:
        io = self._pages(left) + self._pages(right) + self._pages(out)
        if method == "hash":
            cpu = (
                left.cardinality + right.cardinality + out.cardinality
            ) * self.cpu_per_tuple
        elif method == "sort_merge":
            nl = max(left.cardinality, 2.0)
            nr = max(right.cardinality, 2.0)
            cpu = (
                nl * math.log2(nl)
                + nr * math.log2(nr)
                + left.cardinality
                + right.cardinality
                + out.cardinality
            ) * self.cpu_per_tuple
        else:
            raise ValueError(f"unknown join method {method!r}")
        return io + cpu

    def group_cost(
        self, child: TableStats, out: TableStats, method: str = "sort"
    ) -> float:
        n = max(child.cardinality, 2.0)
        io = self._pages(child) + self._pages(out)
        if method == "sort":
            cpu = n * math.log2(n) * self.cpu_per_tuple
        elif method == "hash":
            cpu = (n + out.cardinality) * self.cpu_per_tuple
        else:
            raise ValueError(f"unknown group method {method!r}")
        return io + cpu

    def select_cost(self, child: TableStats, out: TableStats) -> float:
        return self._pages(child) + child.cardinality * self.cpu_per_tuple

    def index_scan_cost(
        self, table: TableStats, out: TableStats
    ) -> float:
        # Bucket page + the heap pages holding the matches + cpu.
        return (
            1.0
            + self._pages(out)
            + out.cardinality * self.cpu_per_tuple
        )
