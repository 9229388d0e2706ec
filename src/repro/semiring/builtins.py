"""The concrete semirings used throughout the paper.

* ``SUM_PRODUCT`` — probabilistic inference: product join multiplies
  local probabilities, marginalization sums them out (Section 4).
* ``MIN_SUM`` — tropical semiring: additive costs combined by ``+``,
  queries ask for minima ("What is the minimum investment on each
  part?", Section 3.1).
* ``MAX_SUM`` — mirror of ``MIN_SUM`` for maximization problems.
* ``MIN_PRODUCT`` / ``MAX_PRODUCT`` — multiplicative measures with
  min/max aggregation (``MAX_PRODUCT`` is the most-probable-explanation
  semiring on probabilities).
* ``SUM_SUM`` — both operations additive is *not* a semiring; what
  decision-support totals actually use is product-join ``*`` with
  aggregate ``SUM`` (``SUM_PRODUCT``) or ``+`` with ``MIN``/``MAX``.
  We therefore do not export a ``SUM_SUM``.
* ``BOOLEAN`` — ({0,1}, ∨, ∧): reachability / satisfiability style
  queries, explicitly called out as an allowable domain in Section 2.
* ``COUNTING`` — integer sum/product, used for deriving counts from
  data when estimating Bayesian network parameters (Section 4).

Division (needed by Definition 6's update semijoin and Belief
Propagation) follows the conventions of the junction-tree literature:
``0 / 0 = 0`` in sum-product, and ``∞ - ∞ = ∞`` in min-sum.
"""

from __future__ import annotations

import numpy as np

from repro.semiring.base import Semiring

__all__ = [
    "SUM_PRODUCT",
    "LOG_PROB",
    "MIN_SUM",
    "MAX_SUM",
    "MIN_PRODUCT",
    "MAX_PRODUCT",
    "BOOLEAN",
    "COUNTING",
    "ALL_SEMIRINGS",
    "by_name",
]


def _safe_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Real division with the junction-tree convention ``0 / 0 = 0``."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    out = np.zeros(np.broadcast(a, b).shape, dtype=np.float64)
    np.divide(a, b, out=out, where=(b != 0))
    return out


def _tropical_subtract(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Subtraction in (min, +), with ``inf - inf = inf`` (zero / zero = zero)."""
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    with np.errstate(invalid="ignore"):
        out = a - b
    both_inf = np.isinf(a) & np.isinf(b) & (np.sign(a) == np.sign(b))
    return np.where(both_inf, a, out)


SUM_PRODUCT = Semiring(
    name="sum_product",
    plus=np.add,
    times=np.multiply,
    zero=0.0,
    one=1.0,
    dtype=np.float64,
    divide=_safe_divide,
    plus_at=np.add.at,
)
"""(R≥0, +, ×): probability marginalization; ``SUM`` aggregate."""

MIN_SUM = Semiring(
    name="min_sum",
    plus=np.minimum,
    times=np.add,
    zero=np.inf,
    one=0.0,
    dtype=np.float64,
    divide=_tropical_subtract,
    plus_at=np.minimum.at,
    idempotent_plus=True,
)
"""(R∪{∞}, min, +): additive costs; ``MIN`` aggregate."""

MAX_SUM = Semiring(
    name="max_sum",
    plus=np.maximum,
    times=np.add,
    zero=-np.inf,
    one=0.0,
    dtype=np.float64,
    divide=_tropical_subtract,
    plus_at=np.maximum.at,
    idempotent_plus=True,
)
"""(R∪{-∞}, max, +): additive rewards; ``MAX`` aggregate."""

def _minprod_times(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Multiplication on [0, ∞] with the annihilator convention 0·∞ = ∞.

    The additive identity ∞ must absorb products for (min, ×) to be a
    semiring; IEEE's 0·∞ = NaN would break distributivity at
    (0, 0, ∞).
    """
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        out = np.asarray(a * b)
    # An infinite factor makes the product infinite or NaN, never
    # finite: only the few non-finite products need a second look.
    odd = ~np.isfinite(out)
    if odd.any():
        a, b = np.broadcast_arrays(a, b)
        out[odd] = np.where(
            np.isinf(a[odd]) | np.isinf(b[odd]), np.inf, out[odd]
        )
    return out


def _minprod_divide(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inverse of :func:`_minprod_times`: ∞/∞ = ∞ (zero/zero = zero)."""
    a, b = np.broadcast_arrays(
        np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    )
    with np.errstate(invalid="ignore", divide="ignore"):
        out = np.where(b != 0, a / b, np.where(a == 0, 0.0, np.inf))
    both_inf = np.isinf(a) & np.isinf(b)
    return np.where(both_inf, np.inf, out)


MIN_PRODUCT = Semiring(
    name="min_product",
    plus=np.minimum,
    times=_minprod_times,
    zero=np.inf,
    one=1.0,
    dtype=np.float64,
    divide=_minprod_divide,
    plus_at=np.minimum.at,
    idempotent_plus=True,
)
"""([0, ∞], min, ×): multiplicative overheads; ``MIN`` aggregate."""

MAX_PRODUCT = Semiring(
    name="max_product",
    plus=np.maximum,
    times=np.multiply,
    zero=0.0,
    one=1.0,
    dtype=np.float64,
    divide=_safe_divide,
    plus_at=np.maximum.at,
    idempotent_plus=True,
)
"""(R≥0, max, ×): most-probable-explanation queries; ``MAX`` aggregate."""

def _or_at(out: np.ndarray, indices: np.ndarray, values: np.ndarray) -> None:
    """``logical_or.at`` as ``maximum.at`` over the bytes: or is max on
    {0, 1}, and NumPy has a fast indexed loop for the latter only."""
    np.maximum.at(out.view(np.uint8), indices, values.view(np.uint8))


BOOLEAN = Semiring(
    name="boolean",
    plus=np.logical_or,
    times=np.logical_and,
    zero=False,
    one=True,
    dtype=np.bool_,
    divide=None,
    plus_at=_or_at,
    idempotent_plus=True,
    idempotent_times=True,
)
"""({0,1}, ∨, ∧): the boolean allowable domain of Section 2."""

LOG_PROB = Semiring(
    name="log_prob",
    plus=np.logaddexp,
    times=np.add,
    zero=-np.inf,
    one=0.0,
    dtype=np.float64,
    divide=_tropical_subtract,
    plus_at=np.logaddexp.at,
)
"""(R∪{-∞}, logaddexp, +): sum-product in log space.

Isomorphic to ``SUM_PRODUCT`` under ``exp`` but numerically stable for
long products of small probabilities (deep chains, many-variable
networks); the aggregate is the log-sum-exp."""

COUNTING = Semiring(
    name="counting",
    plus=np.add,
    times=np.multiply,
    zero=0,
    one=1,
    dtype=np.int64,
    divide=None,
    plus_at=np.add.at,
)
"""(N, +, ×): joint counts for parameter estimation (Section 4)."""

ALL_SEMIRINGS = (
    SUM_PRODUCT,
    LOG_PROB,
    MIN_SUM,
    MAX_SUM,
    MIN_PRODUCT,
    MAX_PRODUCT,
    BOOLEAN,
    COUNTING,
)

_BY_NAME = {s.name: s for s in ALL_SEMIRINGS}
# Aggregate-name aliases used by the SQL-ish parser: the aggregate in an
# MPF query selects the semiring's additive operation.
_BY_NAME.update(
    {
        "sum": SUM_PRODUCT,
        "min": MIN_SUM,
        "max": MAX_SUM,
        "or": BOOLEAN,
        "count": COUNTING,
    }
)


def by_name(name: str) -> Semiring:
    """Look up a builtin semiring by name or aggregate alias."""
    try:
        return _BY_NAME[name.lower()]
    except KeyError:
        raise KeyError(
            f"unknown semiring {name!r}; known: {sorted(_BY_NAME)}"
        ) from None
