"""Row-key encoding shared by join and marginalization.

Both the product join and GroupBy need to treat a subset of columns as
a single composite key.  When the mixed-radix product of domain sizes
fits in an ``int64`` we encode directly (fast path); otherwise we fall
back to a lexicographic rank computed via ``np.unique`` over stacked
columns, which is slower but exact for arbitrarily large key spaces.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "encode_rows",
    "encode_rows_pair",
    "dense_key_counts",
    "is_dense_span",
    "MIXED_RADIX_LIMIT",
    "DENSE_SPAN_FACTOR",
]

# Stay well below 2**63 so intermediate multiply-adds cannot overflow.
MIXED_RADIX_LIMIT = 2**62

# Keys count as dense when ``max - min + 1 <= DENSE_SPAN_FACTOR * n``:
# a table over the whole span is then O(n), and counting beats sorting.
# Fixed by the benchmarks/bench_kernels.py table (copy in
# EXPERIMENTS.md): at span/n = 4 counting wins at every size measured
# (1.3-2x), at 16 it ties or loses (1.6x at n = 1e6), at 100 it loses
# 5-10x.
DENSE_SPAN_FACTOR = 4


def is_dense_span(span: int, rows: int) -> bool:
    """Whether a table over ``span`` key codes is linear in ``rows``."""
    return span <= DENSE_SPAN_FACTOR * rows


def dense_key_counts(
    keys: np.ndarray,
) -> tuple[int, np.ndarray, np.ndarray] | None:
    """``(low, offsets, counts)`` of dense integer keys, else ``None``.

    ``offsets = keys - low`` indexes a table over the key span and
    ``counts[k]`` is the number of rows whose offset is ``k`` — the
    linear-time replacement for sorting coded keys, whose span is known
    and usually no larger than the row count.  ``None`` (empty,
    non-integer or sparse keys) sends the caller to its sort path.
    """
    n = len(keys)
    if n == 0 or keys.dtype.kind not in "iu":
        return None
    low = int(keys.min())
    span = int(keys.max()) - low + 1
    if not is_dense_span(span, n):
        return None
    offsets = (keys - low if low else keys).astype(np.intp, copy=False)
    return low, offsets, np.bincount(offsets, minlength=span)


def _fits_mixed_radix(sizes: tuple[int, ...]) -> bool:
    total = 1
    for s in sizes:
        total *= int(s)
        if total >= MIXED_RADIX_LIMIT:
            return False
    return True


def _mixed_radix(columns: list[np.ndarray], sizes: tuple[int, ...]) -> np.ndarray:
    if len(columns) == 1 and columns[0].dtype == np.int64:
        # A single-column key is the column: no pass over the rows.  The
        # view is read-only, so no caller can write into the relation
        # through its keys.
        keys = columns[0].view()
        keys.flags.writeable = False
        return keys
    n = len(columns[0]) if columns else 0
    keys = np.zeros(n, dtype=np.int64)
    for col, size in zip(columns, sizes):
        keys *= int(size)
        keys += col
    return keys


def encode_rows(columns: list[np.ndarray], sizes: tuple[int, ...]) -> np.ndarray:
    """Encode rows of the given columns into 1-D int64 keys.

    Keys preserve the lexicographic order of the columns.  With no
    columns, every row gets key 0 (a single group / full cross join).
    """
    if not columns:
        # Zero-column key: the caller supplies the row count separately,
        # so an empty list means "no key columns"; callers pass at least
        # the measure length via the first column otherwise.
        raise ValueError("encode_rows requires at least one column; "
                         "handle the empty-key case at the call site")
    if _fits_mixed_radix(sizes):
        return _mixed_radix(columns, sizes)
    stacked = np.column_stack(columns)
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    # NumPy 2.0 returned the inverse of an axis=0 unique with an extra
    # dimension (fixed in 2.1); flatten so every install agrees.
    return inverse.reshape(-1).astype(np.int64, copy=False)


def encode_rows_pair(
    left_columns: list[np.ndarray],
    right_columns: list[np.ndarray],
    sizes: tuple[int, ...],
) -> tuple[np.ndarray, np.ndarray]:
    """Encode two relations' key columns into one comparable key space.

    Used by the join: the i-th left column and i-th right column hold
    the same variable.  Returns ``(left_keys, right_keys)`` such that
    rows match iff their keys are equal.
    """
    if not left_columns:
        raise ValueError("encode_rows_pair requires at least one column")
    if _fits_mixed_radix(sizes):
        return _mixed_radix(left_columns, sizes), _mixed_radix(right_columns, sizes)
    n_left = len(left_columns[0])
    stacked = np.column_stack(
        [np.concatenate([lc, rc]) for lc, rc in zip(left_columns, right_columns)]
    )
    _, inverse = np.unique(stacked, axis=0, return_inverse=True)
    # Same NumPy 2.0 inverse-shape hardening as encode_rows.
    inverse = inverse.reshape(-1).astype(np.int64, copy=False)
    return inverse[:n_left], inverse[n_left:]
