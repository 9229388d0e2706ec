"""Per-relation statistics, the optimizer's view of the data.

The paper notes (Section 5.1) that both the domain size ``σ_X`` of a
variable and the size ``σ̂_X`` of the smallest base relation containing
it "are readily available in the catalog of RDBMS systems".  A
:class:`TableStats` carries exactly the catalog-visible facts:
cardinality, the variables with their domain sizes, and per-variable
distinct counts.  Derived statistics for intermediate results live in
:mod:`repro.cost.cardinality`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.data.relation import FunctionalRelation
from repro.errors import CatalogError

__all__ = ["TableStats"]


@dataclass(frozen=True)
class TableStats:
    """Catalog statistics for one (base or derived) functional relation.

    ``cardinality`` is a float so derived estimates never overflow;
    base-relation stats are exact integers.
    """

    name: str
    cardinality: float
    var_sizes: dict[str, int] = field(default_factory=dict)
    distinct: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        var_sizes, distinct = self.var_sizes, self.distinct
        if var_sizes.keys() != distinct.keys():
            missing = set(var_sizes) ^ set(distinct)
            raise CatalogError(
                f"stats for {self.name!r}: var_sizes/distinct disagree on "
                f"{sorted(missing)}"
            )
        for v, d in distinct.items():
            if d > var_sizes[v] + 1e-9:
                raise CatalogError(
                    f"stats for {self.name!r}: distinct({v})={d} exceeds "
                    f"domain size {var_sizes[v]}"
                )

    @classmethod
    def from_relation(cls, relation: FunctionalRelation) -> "TableStats":
        """Exact statistics computed from the data (ANALYZE equivalent)."""
        var_sizes = {v.name: v.size for v in relation.variables}
        distinct = {
            n: float(len(np.unique(relation.columns[n])))
            for n in relation.var_names
        }
        return cls(
            name=relation.name or "<anonymous>",
            cardinality=float(relation.ntuples),
            var_sizes=var_sizes,
            distinct=distinct,
        )

    @property
    def variables(self) -> tuple[str, ...]:
        return tuple(self.var_sizes)

    def domain_size(self, var_name: str) -> int:
        """``σ_X``: domain size of a variable."""
        try:
            return self.var_sizes[var_name]
        except KeyError:
            raise CatalogError(
                f"{self.name!r} has no variable {var_name!r}"
            ) from None

    def distinct_count(self, var_name: str) -> float:
        """Distinct values of the variable actually present."""
        try:
            return self.distinct[var_name]
        except KeyError:
            raise CatalogError(
                f"{self.name!r} has no variable {var_name!r}"
            ) from None

    def is_complete(self) -> bool:
        total = 1.0
        for size in self.var_sizes.values():
            total *= size
        return self.cardinality >= total

    def renamed(self, name: str) -> "TableStats":
        return TableStats(name, self.cardinality, self.var_sizes, self.distinct)

    def __repr__(self) -> str:
        return (
            f"TableStats({self.name!r}, card={self.cardinality:.0f}, "
            f"vars={list(self.var_sizes)})"
        )
