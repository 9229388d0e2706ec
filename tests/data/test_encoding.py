"""Row-key encoding: mixed-radix fast path and np.unique fallback."""

import numpy as np
import pytest

from repro.algebra.groupindex import GroupIndex
from repro.data import FunctionalRelation, var
from repro.data.encoding import (
    MIXED_RADIX_LIMIT,
    _fits_mixed_radix,
    encode_rows,
    encode_rows_pair,
)

# A domain size pair whose product exceeds the int64 budget, forcing
# the np.unique fallback.
_BIG = int(np.sqrt(MIXED_RADIX_LIMIT)) + 2


def test_mixed_radix_preserves_lex_order():
    cols = [
        np.array([0, 0, 1, 1], dtype=np.int64),
        np.array([0, 1, 0, 1], dtype=np.int64),
    ]
    keys = encode_rows(cols, (2, 2))
    assert list(keys) == [0, 1, 2, 3]


def test_fallback_triggers_past_limit():
    assert _fits_mixed_radix((2, 3))
    assert not _fits_mixed_radix((_BIG, _BIG))


def test_fallback_inverse_is_one_dimensional():
    """np.unique(axis=0) inverse shape differs across NumPy versions
    (2-D in 2.0, 1-D before and after); the fallback must always hand
    back flat int64 keys."""
    cols = [
        np.array([5, 5, 7, 5], dtype=np.int64),
        np.array([1, 2, 1, 1], dtype=np.int64),
    ]
    keys = encode_rows(cols, (_BIG, _BIG))
    assert keys.ndim == 1
    assert keys.dtype == np.int64
    # Equal rows share a key; keys preserve lexicographic row order.
    assert keys[0] == keys[3]
    assert keys[0] < keys[1] < keys[2]


def test_fallback_pair_matches_mixed_radix_semantics():
    left = [
        np.array([0, 1, 2], dtype=np.int64),
        np.array([1, 0, 1], dtype=np.int64),
    ]
    right = [
        np.array([1, 0], dtype=np.int64),
        np.array([0, 1], dtype=np.int64),
    ]
    small_l, small_r = encode_rows_pair(left, right, (3, 2))
    big_l, big_r = encode_rows_pair(left, right, (_BIG, _BIG))
    for keys in (big_l, big_r):
        assert keys.ndim == 1
        assert keys.dtype == np.int64
    # Same match structure under either encoding.
    small = (small_l[:, None] == small_r[None, :])
    big = (big_l[:, None] == big_r[None, :])
    assert np.array_equal(small, big)
    assert len(big_l) == 3 and len(big_r) == 2


def test_single_column_key_is_a_read_only_view_of_the_column():
    """One key column needs no encoding pass: the keys *are* the column,
    and no caller can write into the relation through them."""
    col = np.array([3, 0, 2, 0, 1], dtype=np.int64)
    keys = encode_rows([col], (4,))
    assert np.shares_memory(keys, col)
    assert np.array_equal(keys, col)
    with pytest.raises(ValueError, match="read-only"):
        keys[0] = 1
    with pytest.raises(ValueError, match="read-only"):
        keys += 1
    assert col.flags.writeable and list(col) == [3, 0, 2, 0, 1]
    # The pair form hands each side its own column the same way.
    left, right = encode_rows_pair([col], [col[:2]], (4,))
    assert np.shares_memory(left, col) and not left.flags.writeable
    assert not right.flags.writeable

    rel = FunctionalRelation(
        [var("a", 4), var("b", 2)],
        {"a": col, "b": [0, 0, 1, 1, 0]}, np.ones(5),
    )
    keys = rel.key_codes(("a",))
    assert np.shares_memory(keys, rel.columns["a"])
    assert not keys.flags.writeable
    # Keys starting at 0 are their own table offsets; the index built
    # from them still owns every array it keeps.
    gidx = GroupIndex(keys)
    for field in ("order", "starts", "first_idx", "inverse", "unique_keys"):
        assert not np.shares_memory(getattr(gidx, field), rel.columns["a"])
        assert getattr(gidx, field).flags.writeable
    assert list(gidx.inverse) == [3, 0, 2, 0, 1]
    # Several columns, or one that is not int64 yet, still get fresh keys.
    assert encode_rows([col, col], (4, 4)).flags.writeable
    assert encode_rows([col.astype(np.int32)], (4,)).dtype == np.int64
