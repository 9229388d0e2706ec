"""Commutative semiring abstraction underlying the MPF setting.

Section 2 of the paper defines MPF queries over measures drawn from an
arbitrary commutative semiring: a set closed under an additive and a
multiplicative operation, both associative and commutative, with the
additive operation distributing over the multiplicative one, and both
identity elements present.

The two operations appear in the relational algebra as:

* ``times`` — the measure combination used by the *product join*
  (Definition 2),
* ``plus`` — the aggregate ``AGG`` used by marginalization / GroupBy
  (Definition 3).

The *update semijoin* of Definition 6 additionally needs a division
operation (the inverse of ``times``); semirings that provide one set
``supports_division`` and implement :meth:`Semiring.divide`.

All operations are vectorized over numpy arrays so the physical
operators can process whole columns at once.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.errors import SemiringError

__all__ = ["Semiring"]


class Semiring:
    """A commutative semiring over numpy-representable values.

    Parameters
    ----------
    name:
        Human-readable identifier, e.g. ``"sum_product"``.
    plus:
        Vectorized binary additive operation (the marginalization
        aggregate).
    times:
        Vectorized binary multiplicative operation (the product-join
        combiner).
    zero:
        Additive identity (and multiplicative annihilator).
    one:
        Multiplicative identity.
    dtype:
        The numpy dtype measures are stored in.
    divide:
        Optional vectorized inverse of ``times``.  Required by the
        update semijoin (Definition 6) and Belief Propagation's
        backward pass.
    plus_at:
        Optional unbuffered scatter-reduce ``op.at(out, idx, vals)``
        used for fast grouped aggregation.  When omitted, grouped
        aggregation falls back to a sort-based segment reduction.
    idempotent_plus:
        Whether ``plus(a, a) == a`` (true for min/max semirings).
        Idempotent aggregation tolerates duplicated propagation, which
        matters for Belief Propagation on cyclic schemas.
    idempotent_times:
        Whether ``times(a, a) == a`` (true for the boolean semiring).
        When a semiring lacks division but has idempotent times,
        Belief Propagation's backward pass can reuse the product
        semijoin: re-absorbing a message is a no-op.
    """

    def __init__(
        self,
        name: str,
        plus: Callable[[np.ndarray, np.ndarray], np.ndarray],
        times: Callable[[np.ndarray, np.ndarray], np.ndarray],
        zero,
        one,
        dtype=np.float64,
        divide: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None,
        plus_at: Callable[[np.ndarray, np.ndarray, np.ndarray], None] | None = None,
        idempotent_plus: bool = False,
        idempotent_times: bool = False,
    ):
        self.name = name
        self._plus = plus
        self._times = times
        self.zero = zero
        self.one = one
        self.dtype = np.dtype(dtype)
        self._divide = divide
        self._plus_at = plus_at
        self.idempotent_plus = idempotent_plus
        self.idempotent_times = idempotent_times

    # ------------------------------------------------------------------
    # Scalar / vector operations
    # ------------------------------------------------------------------
    def plus(self, a, b):
        """Additive operation (marginalization aggregate)."""
        return self._plus(a, b)

    def times(self, a, b):
        """Multiplicative operation (product-join combiner)."""
        return self._times(a, b)

    @property
    def plus_ufunc(self) -> np.ufunc | None:
        """``plus`` when it is a binary NumPy ufunc (it has ``reduce``
        and ``accumulate``), else ``None``."""
        plus = self._plus
        return plus if isinstance(plus, np.ufunc) and plus.nin == 2 else None

    @property
    def supports_division(self) -> bool:
        """Whether :meth:`divide` is available (update semijoin needs it)."""
        return self._divide is not None

    def divide(self, a, b):
        """Inverse of ``times``; raises :class:`SemiringError` if undefined."""
        if self._divide is None:
            raise SemiringError(
                f"semiring {self.name!r} does not support division; the "
                "update semijoin (Definition 6) is unavailable on it"
            )
        return self._divide(a, b)

    # ------------------------------------------------------------------
    # Aggregation helpers
    # ------------------------------------------------------------------
    def zeros(self, n: int) -> np.ndarray:
        """A length-``n`` measure column of additive identities."""
        return np.full(n, self.zero, dtype=self.dtype)

    def ones(self, n: int) -> np.ndarray:
        """A length-``n`` measure column of multiplicative identities."""
        return np.full(n, self.one, dtype=self.dtype)

    def aggregate(
        self,
        values: np.ndarray,
        group_ids: np.ndarray,
        n_groups: int,
    ) -> np.ndarray:
        """Reduce ``values`` with ``plus`` within each group.

        ``group_ids`` assigns every value to a group in
        ``range(n_groups)``; the result has one reduced measure per
        group (groups with no members get the additive identity).  Each
        group's values are folded in the order they come, so the result
        equals a segment fold over any stable sort of ``group_ids``.
        """
        values = np.asarray(values, dtype=self.dtype)
        out = self.zeros(n_groups)
        if len(values) == 0:
            return out
        if self._plus_at is not None:
            self._plus_at(out, group_ids, values)
            return out
        # Sort-based segment reduction fallback for exotic semirings.
        order = np.argsort(group_ids, kind="stable")
        sorted_ids = group_ids[order]
        sorted_vals = values[order]
        boundaries = np.flatnonzero(np.diff(sorted_ids)) + 1
        starts = np.concatenate(([0], boundaries))
        ends = np.concatenate((boundaries, [len(sorted_ids)]))
        for start, end in zip(starts, ends):
            acc = sorted_vals[start]
            for k in range(start + 1, end):
                acc = self._plus(acc, sorted_vals[k])
            out[sorted_ids[start]] = acc
        return out

    def reduce(self, values: np.ndarray):
        """Reduce a whole measure column to a single value with ``plus``."""
        values = np.asarray(values, dtype=self.dtype)
        if len(values) == 0:
            return self.dtype.type(self.zero)
        return self.aggregate(values, np.zeros(len(values), dtype=np.int64), 1)[0]

    # ------------------------------------------------------------------
    # Comparison
    # ------------------------------------------------------------------
    def close(self, a, b, rtol: float = 1e-9, atol: float = 1e-12) -> bool:
        """Compare measure values with dtype-appropriate tolerance."""
        a = np.asarray(a, dtype=self.dtype)
        b = np.asarray(b, dtype=self.dtype)
        if a.shape != b.shape:
            return False
        if self.dtype.kind == "f":
            return bool(np.allclose(a, b, rtol=rtol, atol=atol, equal_nan=True))
        return bool(np.array_equal(a, b))

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Semiring({self.name!r})"
