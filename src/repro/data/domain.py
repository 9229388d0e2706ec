"""Domains and variables.

MPF queries operate over discrete variables (the non-measure attributes
of functional relations).  A :class:`Domain` is a finite categorical
set; values are stored as integer codes ``0..size-1``, with optional
human-readable labels.  A :class:`Variable` binds a name to a domain —
e.g. in the supply-chain schema of Figure 1, ``pid`` ranges over a
domain of 100K part identifiers (Table 1).

Two relations join on variables of the same *name*; we require those
variables to reference equal domains so the join is well defined.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

from repro.errors import SchemaError

__all__ = ["Domain", "Variable", "VariableSet", "domain_product"]


@dataclass(frozen=True)
class Domain:
    """A finite categorical domain of ``size`` values coded ``0..size-1``."""

    name: str
    size: int
    labels: tuple | None = None

    def __post_init__(self):
        if self.size <= 0:
            raise SchemaError(f"domain {self.name!r} must have positive size")
        if self.labels is not None and len(self.labels) != self.size:
            raise SchemaError(
                f"domain {self.name!r}: {len(self.labels)} labels for "
                f"size {self.size}"
            )

    def codes(self) -> np.ndarray:
        """All codes of the domain, in order."""
        return np.arange(self.size, dtype=np.int64)

    def label_of(self, code: int):
        """Human-readable label for ``code`` (the code itself if unlabeled)."""
        if self.labels is None:
            return int(code)
        return self.labels[int(code)]

    def code_of(self, value) -> int:
        """Integer code for a label or an already-coded value."""
        if self.labels is not None:
            try:
                return self.labels.index(value)
            except ValueError:
                pass
        code = int(value)
        if not 0 <= code < self.size:
            raise SchemaError(
                f"value {value!r} out of range for domain {self.name!r} "
                f"(size {self.size})"
            )
        return code

    def __repr__(self) -> str:
        return f"Domain({self.name!r}, size={self.size})"


@dataclass(frozen=True)
class Variable:
    """A named variable over a :class:`Domain`."""

    name: str
    domain: Domain

    @property
    def size(self) -> int:
        """Domain size of the variable (``σ_X`` in the paper's Eq. 1)."""
        return self.domain.size

    def __repr__(self) -> str:
        return f"Variable({self.name!r}, |{self.domain.name}|={self.size})"


def var(name: str, size: int, labels: Iterable | None = None) -> Variable:
    """Shorthand constructor: a variable over a fresh same-named domain."""
    labels_tuple = tuple(labels) if labels is not None else None
    return Variable(name, Domain(name, size, labels_tuple))


@dataclass(frozen=True)
class VariableSet:
    """An ordered, name-unique collection of variables.

    ``Var(s)`` in the paper — the non-measure attributes of a functional
    relation.  Provides the set operations the algebra needs while
    keeping deterministic ordering for reproducible output.
    """

    variables: tuple[Variable, ...] = field(default_factory=tuple)
    # Derived once from ``variables``, neither compared nor hashed:
    # the names in order, and each name's position.
    names: tuple[str, ...] = field(init=False, compare=False, repr=False)
    positions: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        names = tuple(v.name for v in self.variables)
        positions = {name: i for i, name in enumerate(names)}
        if len(positions) != len(names):
            raise SchemaError(f"duplicate variable names in {list(names)}")
        object.__setattr__(self, "names", names)
        object.__setattr__(self, "positions", positions)

    @classmethod
    def of(cls, variables: Iterable[Variable]) -> "VariableSet":
        return cls(tuple(variables))

    def __iter__(self):
        return iter(self.variables)

    def __len__(self) -> int:
        return len(self.variables)

    def __contains__(self, item) -> bool:
        name = item.name if isinstance(item, Variable) else item
        try:
            return name in self.positions
        except TypeError:  # unhashable: names no variable
            return False

    def __getitem__(self, name: str) -> Variable:
        try:
            return self.variables[self.positions[name]]
        except (KeyError, TypeError):
            raise KeyError(name) from None

    def union(self, other: "VariableSet") -> "VariableSet":
        """Name-union preserving self's order, then other's new variables."""
        merged = list(self.variables)
        for v in other.variables:
            if v.name in self:
                _check_same_domain(self[v.name], v)
            else:
                merged.append(v)
        return VariableSet(tuple(merged))

    def intersect(self, other: "VariableSet") -> "VariableSet":
        """Shared variables, validating domain agreement."""
        shared = []
        for v in self.variables:
            if v.name in other:
                _check_same_domain(v, other[v.name])
                shared.append(v)
        return VariableSet(tuple(shared))

    def minus(self, names: Iterable[str]) -> "VariableSet":
        """Variables whose names are not in ``names``."""
        drop = {n.name if isinstance(n, Variable) else n for n in names}
        return VariableSet(tuple(v for v in self.variables if v.name not in drop))

    def subset(self, names: Iterable[str]) -> "VariableSet":
        """Variables with the given names, in this set's order."""
        keep = {n.name if isinstance(n, Variable) else n for n in names}
        missing = keep - set(self.names)
        if missing:
            raise SchemaError(f"unknown variables {sorted(missing)}")
        return VariableSet(tuple(v for v in self.variables if v.name in keep))

    def sizes(self) -> tuple[int, ...]:
        return tuple(v.size for v in self.variables)

    def __repr__(self) -> str:
        return f"VariableSet({list(self.names)})"


def _check_same_domain(a: Variable, b: Variable) -> None:
    if a.domain.name != b.domain.name or a.domain.size != b.domain.size:
        raise SchemaError(
            f"variable {a.name!r} bound to conflicting domains "
            f"{a.domain!r} vs {b.domain!r}"
        )


def domain_product(variables: Iterable[Variable]) -> int:
    """Size of the cross product of the variables' domains.

    This is the size of a *complete* functional relation over the
    variables, and what the degree / width heuristics (Section 5.5)
    compute.
    """
    total = 1
    for v in variables:
        total *= v.size
    return total


def mapping_to_codes(predicate: Mapping[str, object], variables: VariableSet) -> dict[str, int]:
    """Convert a ``{var: value}`` predicate to integer codes."""
    coded = {}
    for name, value in predicate.items():
        coded[name] = variables[name].domain.code_of(value)
    return coded
