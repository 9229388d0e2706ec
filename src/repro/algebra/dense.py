"""Dense small-domain kernels: grid-complete relations as ndarrays.

"FAQ: Questions Asked Frequently" and "Juggling Functions Inside a
Database" evaluate an MPF query over small domains as a tensor
contraction.  A relation qualifies here when it is **grid-complete**:
at most :data:`DENSE_MAX_CELLS` rows, which are exactly the cross
product of each variable's present codes, and each variable's present
codes are a run of consecutive codes.  Its dense form is an ndarray
with one axis per variable, in relation order; axis ``i`` holds the
codes ``lows[i] .. lows[i] + shape[i] - 1``.  Complete CPTs, the
synthetic views' tables and any equality selection of them qualify,
and every kernel below keeps the property, so a chain of them never
leaves the dense form:

* ProductJoin is a broadcast ``times`` (shared axes cut to the codes
  both sides hold, a slice);
* GroupBy is a ``plus`` fold along the eliminated axes;
* Select is an index, keeping the selected axis at one code;
* the product and update semijoins are built from these three, so they
  are a fold plus a broadcast ``times``/``divide``.

Present codes with gaps (a 1-variable relation over a few scattered
keys is a "grid" too) stay sparse: lining such axes up takes a sort
per join, and the sparse join's direct-address probe is faster there.

The entry points of :mod:`repro.algebra` call in here first and run
their sparse kernels when the answer is ``None``: an input that is not
grid-complete, an output over the bound, a semiring whose ``plus`` is
no binary ufunc, or a sharded call.  There is no switch.

**Same rows, same row counts.**  A dense output lists its cells in C
order — ascending keys, the first variable slowest — which is the
order the sparse GroupBy emits its groups in and the order a
left-major join of two such inputs emits its rows in; its row count is
the product of its axis lengths, exactly what the sparse kernel
counts, so the runtime charges the same clock.  Its measure is a view
of the array, and its columns are built on the first read that needs
them (:class:`DenseRelation`).

**Same bytes.**  ``times`` and ``divide`` are elementwise, so a dense
join's products are the sparse join's.  The fold starts at the
semiring's zero and adds each group's terms in row order, as the
sparse scatter (``plus_at``) does over a relation listed in C order:
the results agree bit for bit there on every semiring, and on min,
max, boolean and counting whatever the input's order.  Only a float
sum over an input listed in another order (a base table stored
unsorted) may round differently in the last place.

The verdict — the form or ``None`` — is cached on the immutable
relation instance, so an ineligible relation is checked once.
"""

from __future__ import annotations

import math

import numpy as np

from repro.data.domain import VariableSet
from repro.data.relation import FunctionalRelation
from repro.semiring.base import Semiring

__all__ = ["DENSE_MAX_CELLS", "DenseForm", "DenseRelation", "dense_form",
           "dense_ops"]

# The largest relation held dense.  Fixed by the ``kernels_dense`` table
# of benchmarks/bench_kernels.py (copy in EXPERIMENTS.md, "Dense
# small-domain kernels"): the dense elimination step leads the sparse
# one from 16 to 2**20 cells, by 3-4x up to 2**12, most at 2**16 (4-5x)
# and less beyond (about 3x at 2**20).  Every relation up to the bound
# pays one eligibility pass, and above it the perfbench workloads hold
# one grid join per plan_heavy cycle, so the bound sits at the peak.
DENSE_MAX_CELLS = 1 << 16

# Dense kernel calls so far, process-wide; the runtime publishes the
# per-node delta as ``kernel.dense_ops``.
_ops = 0


def dense_ops() -> int:
    """How many dense kernels have run in this process."""
    return _ops


def _count() -> None:
    global _ops
    _ops += 1


class DenseForm:
    """A grid-complete relation's cells: ``array`` (C-contiguous, one
    axis per variable in relation order) and ``lows``, each axis's
    first code.  An empty relation has every axis empty."""

    __slots__ = ("array", "lows")

    def __init__(self, array: np.ndarray, lows: tuple[int, ...]):
        if array.size == 0 and array.ndim:
            array = array.reshape((0,) * array.ndim)
            lows = (0,) * array.ndim
        # Not ascontiguousarray: it turns a 0-d array into a 1-d one.
        self.array = array if array.flags.c_contiguous else array.copy()
        self.lows = lows


class DenseRelation(FunctionalRelation):
    """A relation built by a dense kernel: the measure is a view of the
    form's array, the columns are built from its axes on first read.

    Built from a form the kernels made, which is why it skips the
    public constructor's checks; every inherited method reads
    ``self.columns`` and returns a plain relation.
    """

    __slots__ = ("_columns",)

    def __init__(self, variables: VariableSet, form: DenseForm, name=None,
                 measure_name: str = "f"):
        self._init(variables, form.array.reshape(-1), name, measure_name)
        self._dense = form
        self._columns = None

    @property
    def columns(self) -> dict[str, np.ndarray]:
        if self._columns is None:
            self._columns = _grid_columns(self.variables.names, self._dense)
        return self._columns


def _grid_columns(names, form: DenseForm) -> dict[str, np.ndarray]:
    """The code columns of the form's cells, C order."""
    total = form.array.size
    columns = {}
    inner = total
    for name, low, length in zip(names, form.lows, form.array.shape):
        inner //= max(length, 1)
        codes = np.arange(low, low + length, dtype=np.int64)
        columns[name] = np.tile(np.repeat(codes, inner),
                                total // max(length * inner, 1))
    return columns


def dense_form(relation: FunctionalRelation) -> DenseForm | None:
    """``relation``'s dense form, or ``None`` when it is not
    grid-complete; decided once per instance."""
    form = relation._dense
    if form is False:
        form = relation._dense = _grid(relation)
    return form


def _grid(relation: FunctionalRelation) -> DenseForm | None:
    n = relation.ntuples
    if n > DENSE_MAX_CELLS:
        return None
    arity = relation.arity
    if not arity:
        return DenseForm(relation.measure.reshape(()), ()) if n == 1 else None
    if n == 0:
        return DenseForm(np.empty((0,) * arity, relation.measure.dtype), ())
    columns = [relation.columns[name] for name in relation.var_names]
    lows, shape, cells = [], [], 1
    for column in columns:
        low = int(column.min())
        length = int(column.max()) - low + 1
        cells *= length
        if cells > n:
            return None
        lows.append(low)
        shape.append(length)
    if cells != n:
        return None
    flat = np.zeros(n, dtype=np.int64)
    for column, low, length in zip(columns, lows, shape):
        flat *= length
        flat += column - low if low else column
    if (flat[1:] > flat[:-1]).all():
        # n ascending cells below n: every cell, in C order.
        array = relation.measure.reshape(shape)
    else:
        if np.bincount(flat, minlength=n).max() > 1:
            return None  # a repeated key leaves a cell empty
        array = np.empty(n, dtype=relation.measure.dtype)
        array[flat] = relation.measure
        array = array.reshape(shape)
    return DenseForm(array, tuple(lows))


# ----------------------------------------------------------------------
# Kernels: each returns None when the sparse kernel must run instead.
# ----------------------------------------------------------------------
def join(left, right, semiring: Semiring, combine, name):
    """``left ⋈ right`` with measures combined by ``combine``.  Only
    under a semiring whose GroupBy can run dense too, so that one
    semiring's plans are either dense or sparse throughout."""
    if semiring.plus_ufunc is None:
        return None
    lf = dense_form(left)
    if lf is None:
        return None
    rf = dense_form(right)
    if rf is None:
        return None
    out_vars = left.variables.union(right.variables)
    left_pos = left.variables.positions
    right_pos = right.variables.positions
    la, ra = lf.array, rf.array
    left_cut = [slice(None)] * la.ndim
    right_cut = [slice(None)] * ra.ndim
    lows, cells = [], 1
    for v in out_vars:
        i, j = left_pos.get(v.name), right_pos.get(v.name)
        if i is None:
            low, length = rf.lows[j], ra.shape[j]
        elif j is None:
            low, length = lf.lows[i], la.shape[i]
        else:
            # The codes both sides hold: where their runs overlap.
            low = max(lf.lows[i], rf.lows[j])
            high = min(lf.lows[i] + la.shape[i], rf.lows[j] + ra.shape[j])
            length = max(high - low, 0)
            left_cut[i] = slice(low - lf.lows[i], low - lf.lows[i] + length)
            right_cut[j] = slice(low - rf.lows[j], low - rf.lows[j] + length)
        lows.append(low)
        cells *= length
    if cells > DENSE_MAX_CELLS:
        return None
    la, ra = la[tuple(left_cut)], ra[tuple(right_cut)]
    # Left axes lead, in left order; the right array is turned to the
    # output's order, with a unit axis for every left-only variable.
    la = la.reshape(la.shape + (1,) * (len(out_vars) - left.arity))
    order = [right_pos[v.name] for v in out_vars if v.name in right_pos]
    if order != sorted(order):
        ra = ra.transpose(order).copy()
    lengths = iter(ra.shape)
    ra = ra.reshape(tuple(
        next(lengths) if v.name in right_pos else 1 for v in out_vars
    ))
    _count()
    form = DenseForm(np.asarray(combine(la, ra)), tuple(lows))
    return DenseRelation(out_vars, form, name)


def marginalize(relation, out_vars: VariableSet, semiring: Semiring, name):
    """GroupBy ``out_vars``: fold the other axes away with ``plus``."""
    plus = semiring.plus_ufunc
    if plus is None:
        return None
    form = dense_form(relation)
    if form is None:
        return None
    keep = [relation.variables.positions[n] for n in out_vars.names]
    drop = [i for i in range(relation.arity) if i not in keep]
    array = form.array
    kept_shape = tuple(array.shape[i] for i in keep)
    rows = array.transpose(drop + keep).reshape(
        math.prod(array.shape[i] for i in drop), math.prod(kept_shape)
    )
    _count()
    out = _fold(plus, semiring, rows).reshape(kept_shape)
    lows = tuple(form.lows[i] for i in keep)
    return DenseRelation(out_vars, DenseForm(out, lows), name)


def _fold(plus, semiring: Semiring, rows: np.ndarray) -> np.ndarray:
    """``zero ⊕ rows[0] ⊕ rows[1] ⊕ ...`` per column, left to right:
    each group's terms in the order a scatter over the C-ordered rows
    adds them."""
    zero = semiring.dtype.type(semiring.zero)
    if not len(rows):
        return np.full(rows.shape[1], zero, dtype=semiring.dtype)
    terms = rows.astype(semiring.dtype)  # a copy: rows may be the input
    plus(zero, terms[0], out=terms[0])
    if len(terms) == 1:
        return terms[0]
    return plus.accumulate(terms, axis=0)[-1]


def restrict(relation, codes: dict[str, int], name):
    """Select ``codes``: index each selected axis at its code."""
    form = dense_form(relation)
    if form is None:
        return None
    array, lows = form.array, list(form.lows)
    index = [slice(None)] * relation.arity
    for var_name, code in codes.items():
        axis = relation.variables.positions[var_name]
        at = code - lows[axis]
        if 0 <= at < array.shape[axis]:
            index[axis] = slice(at, at + 1)
            lows[axis] = code
        else:
            index[axis] = slice(0, 0)
    _count()
    # A slice of the input's cells: read-only, so no writer reaches the
    # input through the output.
    cells = array[tuple(index)]
    cells.flags.writeable = False
    return DenseRelation(
        relation.variables, DenseForm(cells, tuple(lows)), name,
        relation.measure_name,
    )
