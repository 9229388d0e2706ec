"""Functional relations (Definition 1 of the paper).

A functional relation (FR) is a relation with schema
``{A1, ..., Am, f}`` where the functional dependency
``A1 A2 ... Am -> f`` holds: the variables determine a single measure
value.  Any classical relation is an FR with an implicit measure equal
to the multiplicative identity of the semiring.

Storage is columnar: one int64 code array per variable plus one measure
array.  All physical operators (join, marginalize, select, semijoins)
are vectorized over these columns.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.data.domain import Variable, VariableSet, domain_product
from repro.data.encoding import dense_key_counts, encode_rows
from repro.errors import FunctionalDependencyError, SchemaError
from repro.semiring.base import Semiring

__all__ = ["FunctionalRelation"]

# Process-wide monotonic id source for relation fingerprints.  A
# fingerprint identifies one immutable relation *instance*: every
# construction path (including take/rename/with_measure/copy) mints a
# fresh one, so a rebuilt table can never be confused with the data it
# replaced — cache entries keyed on the old fingerprint simply age out.
_FINGERPRINTS = itertools.count(1)


class FunctionalRelation:
    """A disk-resident-style functional relation over coded variables.

    Parameters
    ----------
    variables:
        The non-measure attributes, ``Var(s)`` in the paper.
    columns:
        Mapping from variable name to an int64 code column; all columns
        must share one length.
    measure:
        The measure column ``s[f]``; same length as the variable
        columns.
    name:
        Optional relation name (used by the catalog and plan printer).
    measure_name:
        Name of the measure attribute (``f`` by default; the
        supply-chain schema uses e.g. ``price``, ``w_factor``).
    check_fd:
        Validate the defining FD on construction.  On by default;
        operators that construct provably-FD-preserving outputs skip
        the check.  It never skips the range check on the codes:
        relations read from outside (files, generators) pass
        ``check_fd=False`` too.  Outputs whose codes are in range by
        construction go through :meth:`_trusted` instead.
    """

    __slots__ = (
        "variables", "columns", "measure", "name", "measure_name",
        "_fingerprint", "_dense",
    )

    def __init__(
        self,
        variables: VariableSet | Sequence[Variable],
        columns: Mapping[str, np.ndarray],
        measure: np.ndarray,
        name: str | None = None,
        measure_name: str = "f",
        check_fd: bool = True,
    ):
        if not isinstance(variables, VariableSet):
            variables = VariableSet.of(variables)
        self._init(variables, np.asarray(measure), name, measure_name)

        n = len(self.measure)
        coerced: dict[str, np.ndarray] = {}
        for v in variables:
            if v.name not in columns:
                raise SchemaError(f"missing column for variable {v.name!r}")
            col = np.asarray(columns[v.name], dtype=np.int64)
            if len(col) != n:
                raise SchemaError(
                    f"column {v.name!r} has {len(col)} rows, measure has {n}"
                )
            if n and (col.min() < 0 or col.max() >= v.size):
                raise SchemaError(
                    f"column {v.name!r} contains codes outside domain "
                    f"size {v.size}"
                )
            coerced[v.name] = col
        extra = set(columns) - set(variables.names)
        if extra:
            raise SchemaError(f"columns {sorted(extra)} not in variable set")
        self.columns = coerced

        if check_fd:
            self._validate_fd()

    @classmethod
    def _trusted(
        cls,
        variables: VariableSet,
        columns: Mapping[str, np.ndarray],
        measure: np.ndarray,
        name: str | None = None,
        measure_name: str = "f",
    ) -> "FunctionalRelation":
        """A relation from int64 columns that are in range and FD-valid
        by construction — rows, groups or matches of relations that
        passed the public constructor — so nothing is checked."""
        relation = cls.__new__(cls)
        relation._init(variables, measure, name, measure_name)
        relation.columns = columns
        return relation

    def _init(self, variables, measure, name, measure_name) -> None:
        """Set the slots every relation has but ``columns``, which each
        constructor sets (or builds on first read) itself."""
        self.variables = variables
        self.measure = measure
        self.name = name
        self.measure_name = measure_name
        self._fingerprint = next(_FINGERPRINTS)
        # repro.algebra.dense's verdict on this instance: False until it
        # is asked, then the dense form or None.
        self._dense = False

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        variables: Sequence[Variable],
        rows: Iterable[tuple],
        name: str | None = None,
        measure_name: str = "f",
        dtype=np.float64,
    ) -> "FunctionalRelation":
        """Build from ``(v1, ..., vm, f)`` tuples (labels or codes)."""
        variables = VariableSet.of(variables)
        rows = list(rows)
        cols: dict[str, list[int]] = {v.name: [] for v in variables}
        measure = []
        for row in rows:
            if len(row) != len(variables) + 1:
                raise SchemaError(
                    f"row {row!r} has {len(row)} fields, expected "
                    f"{len(variables) + 1}"
                )
            for v, value in zip(variables, row[:-1]):
                cols[v.name].append(v.domain.code_of(value))
            measure.append(row[-1])
        columns = {k: np.asarray(vals, dtype=np.int64) for k, vals in cols.items()}
        return cls(
            variables,
            columns,
            np.asarray(measure, dtype=dtype),
            name=name,
            measure_name=measure_name,
        )

    @classmethod
    def constant(
        cls,
        value,
        name: str | None = None,
        dtype=np.float64,
    ) -> "FunctionalRelation":
        """A zero-variable FR holding a single measure value.

        This is what marginalizing out *all* variables produces — the
        total mass of the function.
        """
        return cls(
            VariableSet(),
            {},
            np.asarray([value], dtype=dtype),
            name=name,
            check_fd=False,
        )

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def fingerprint(self) -> int:
        """Process-unique id of this relation instance.

        Relations are treated as immutable once constructed; the
        fingerprint is the cache identity used by
        :mod:`repro.algebra.groupindex` — two relations with equal
        contents but separate construction histories never share one.
        """
        return self._fingerprint

    @property
    def ntuples(self) -> int:
        return len(self.measure)

    @property
    def arity(self) -> int:
        return len(self.variables)

    @property
    def var_names(self) -> tuple[str, ...]:
        return self.variables.names

    def domain_size(self) -> int:
        """Cross-product size of the variables' domains."""
        return domain_product(self.variables)

    def is_complete(self) -> bool:
        """Whether every combination of variable values is present.

        Probability functions are complete in principle (Section 2);
        the synthetic views of Section 7.3 are built complete.
        """
        return self.ntuples == self.domain_size()

    # ------------------------------------------------------------------
    # Keys and lookup
    # ------------------------------------------------------------------
    def key_codes(self, names: Sequence[str] | None = None) -> np.ndarray:
        """Composite int64 keys over the named columns (all by default)."""
        if names is None:
            names = self.var_names
        if not names:
            return np.zeros(self.ntuples, dtype=np.int64)
        cols = [self.columns[n] for n in names]
        sizes = tuple(self.variables[n].size for n in names)
        return encode_rows(cols, sizes)

    def value_at(self, assignment: Mapping[str, object]):
        """Measure value for one full variable assignment.

        Raises ``KeyError`` when the assignment has no row (incomplete
        relations); this is a point lookup, not a query.
        """
        mask = np.ones(self.ntuples, dtype=bool)
        for name, value in assignment.items():
            code = self.variables[name].domain.code_of(value)
            mask &= self.columns[name] == code
        idx = np.flatnonzero(mask)
        if len(idx) == 0:
            raise KeyError(f"no row for {dict(assignment)!r}")
        if len(idx) > 1:
            raise FunctionalDependencyError(
                f"{len(idx)} rows for {dict(assignment)!r}"
            )
        return self.measure[idx[0]]

    # ------------------------------------------------------------------
    # Validation / comparison
    # ------------------------------------------------------------------
    def _validate_fd(self) -> None:
        if self.ntuples == 0 or self.arity == 0:
            if self.arity == 0 and self.ntuples > 1:
                raise FunctionalDependencyError(
                    "zero-variable relation with multiple rows"
                )
            return
        keys = self.key_codes()
        dense = dense_key_counts(keys)
        if dense is not None:
            _, _, counts = dense
            unique = counts.max() <= 1
        else:
            unique = len(np.unique(keys)) == len(keys)
        if unique:
            return
        # Find an offending pair for the error message.
        order = np.argsort(keys, kind="stable")
        sorted_keys = keys[order]
        dup_pos = np.flatnonzero(sorted_keys[1:] == sorted_keys[:-1])[0]
        i, j = order[dup_pos], order[dup_pos + 1]
        row = {n: int(self.columns[n][i]) for n in self.var_names}
        raise FunctionalDependencyError(
            f"FD violated: rows {i} and {j} share variables {row} with "
            f"measures {self.measure[i]!r} and {self.measure[j]!r}"
        )

    def sorted_snapshot(self) -> tuple[np.ndarray, np.ndarray]:
        """(keys, measures) sorted by key — canonical form for equality."""
        keys = self.key_codes()
        order = np.argsort(keys, kind="stable")
        return keys[order], self.measure[order]

    def equals(
        self,
        other: "FunctionalRelation",
        semiring: Semiring | None = None,
        ignore_zero_rows: bool = False,
    ) -> bool:
        """Equality as functions, up to row order.

        With ``ignore_zero_rows``, rows carrying the semiring's additive
        identity are treated as absent (an incomplete relation encodes
        the same function as its zero-padded completion).
        """
        if set(self.var_names) != set(other.var_names):
            return False
        other_aligned = other.reorder(self.var_names)
        left, right = self, other_aligned
        if ignore_zero_rows:
            if semiring is None:
                raise SchemaError("ignore_zero_rows requires a semiring")
            left = left.drop_zero_rows(semiring)
            right = right.drop_zero_rows(semiring)
        if left.ntuples != right.ntuples:
            return False
        k1, m1 = left.sorted_snapshot()
        k2, m2 = right.sorted_snapshot()
        if not np.array_equal(k1, k2):
            return False
        if semiring is not None:
            return semiring.close(m1, m2)
        return bool(np.allclose(m1, m2))

    def drop_zero_rows(self, semiring: Semiring) -> "FunctionalRelation":
        """Remove rows whose measure is the additive identity."""
        zero = semiring.dtype.type(semiring.zero)
        mask = self.measure != zero
        return self.take(np.flatnonzero(mask))

    # ------------------------------------------------------------------
    # Row / column manipulation
    # ------------------------------------------------------------------
    def take(self, indices: np.ndarray) -> "FunctionalRelation":
        """Row subset by positional indices (FD-preserving)."""
        return FunctionalRelation._trusted(
            self.variables,
            {n: self.columns[n][indices] for n in self.var_names},
            self.measure[indices],
            name=self.name,
            measure_name=self.measure_name,
        )

    def reorder(self, names: Sequence[str]) -> "FunctionalRelation":
        """Reorder the variable list (no data movement)."""
        if set(names) != set(self.var_names):
            raise SchemaError(
                f"reorder needs a permutation of {self.var_names}, got {names}"
            )
        ordered = VariableSet.of([self.variables[n] for n in names])
        return FunctionalRelation(
            ordered,
            self.columns,
            self.measure,
            name=self.name,
            measure_name=self.measure_name,
            check_fd=False,
        )

    def rename(self, mapping: Mapping[str, str]) -> "FunctionalRelation":
        """Rename variables; domains are carried over unchanged."""
        new_vars = []
        new_cols = {}
        for v in self.variables:
            new_name = mapping.get(v.name, v.name)
            new_vars.append(Variable(new_name, v.domain))
            new_cols[new_name] = self.columns[v.name]
        return FunctionalRelation(
            VariableSet.of(new_vars),
            new_cols,
            self.measure,
            name=self.name,
            measure_name=self.measure_name,
            check_fd=False,
        )

    def with_name(self, name: str) -> "FunctionalRelation":
        return FunctionalRelation(
            self.variables,
            self.columns,
            self.measure,
            name=name,
            measure_name=self.measure_name,
            check_fd=False,
        )

    def with_measure(self, measure: np.ndarray) -> "FunctionalRelation":
        """Same rows, new measure column (FD trivially preserved)."""
        if len(measure) != self.ntuples:
            raise SchemaError("measure length mismatch")
        return FunctionalRelation(
            self.variables,
            self.columns,
            np.asarray(measure),
            name=self.name,
            measure_name=self.measure_name,
            check_fd=False,
        )

    def copy(self) -> "FunctionalRelation":
        return FunctionalRelation(
            self.variables,
            {n: self.columns[n].copy() for n in self.var_names},
            self.measure.copy(),
            name=self.name,
            measure_name=self.measure_name,
            check_fd=False,
        )

    # ------------------------------------------------------------------
    # Presentation
    # ------------------------------------------------------------------
    def iter_rows(self, labels: bool = False):
        """Yield ``(v1, ..., vm, f)`` tuples; labels decodes domains."""
        for i in range(self.ntuples):
            values = []
            for v in self.variables:
                code = int(self.columns[v.name][i])
                values.append(v.domain.label_of(code) if labels else code)
            values.append(self.measure[i])
            yield tuple(values)

    def to_dict(self) -> dict[tuple, object]:
        """Mapping from variable-code tuples to measure values."""
        return {row[:-1]: row[-1] for row in self.iter_rows()}

    def head(self, n: int = 10, labels: bool = True) -> str:
        """Formatted preview of the first ``n`` rows."""
        header = list(self.var_names) + [self.measure_name]
        lines = ["\t".join(header)]
        for i, row in enumerate(self.iter_rows(labels=labels)):
            if i >= n:
                lines.append(f"... ({self.ntuples - n} more rows)")
                break
            lines.append("\t".join(str(x) for x in row))
        return "\n".join(lines)

    def __repr__(self) -> str:
        label = self.name or "<anonymous>"
        return (
            f"FunctionalRelation({label}: vars={list(self.var_names)}, "
            f"ntuples={self.ntuples})"
        )
