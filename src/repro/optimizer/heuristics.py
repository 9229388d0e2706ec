"""Variable-ordering heuristics for VE (Section 5.5).

Three base heuristics, their normalized-product combinations, and a
random baseline.  All scores are *minimized*.

* ``degree`` — estimates the size of the post-elimination relation
  ``p`` of Algorithm 2's line 6: the cross product of the domains of
  the variables of ``p`` that still matter — those shared with
  relations outside ``rels(v)`` or in the query.  Greedily minimizes
  the join operands higher in the tree, i.e. the cost of *future*
  eliminations.  On the star view this famously backfires: the hub
  variable's post-elimination relation shrinks to the query variable
  alone (10 tuples), so degree eliminates the hub first — which joins
  every base table with no GDL optimization at all (Table 2).

* ``width`` — estimates the size of the *pre*-elimination relation
  ``joinplan(rels(v, S))``: the cross product over the whole joined
  scope including ``v``.  Estimates the cost of the *current*
  elimination.

* ``elim_cost`` — the paper's cost-based heuristic: ask the cost model
  what eliminating ``v`` would cost.  Implemented, as in Section 7.3,
  as an *overestimate*: a fixed linear join ordering over ``rels(v)``
  (no join-order search) followed by the aggregate.

* combinations (``degree+width``, ``degree+elim_cost``) — each
  component normalized by the largest value among the current
  candidates, then multiplied (footnote 1 of the paper).

* ``random`` — uniform choice; the Table 3 baseline.

Scoring operates on *live* variable scopes supplied by the caller: in
the VE+ extended space, a variable already processed but whose physical
elimination was delayed must not inflate its neighbors' scores, since
pending GroupBy caps will drop it.

Scopes are variable-id bitmasks (:meth:`PlanContext.mask`), and the
``degree``/``width`` domain products walk their bits in id order
(:meth:`PlanContext.domain_product`): integer domain sizes multiply
exactly in float below 2^53, so the walk order moves no bits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.cost.cardinality import group_stats, join_stats
from repro.errors import OptimizationError
from repro.optimizer.base import PlanContext, SubPlan

__all__ = [
    "BASE_HEURISTICS",
    "Candidate",
    "parse_heuristic",
    "score_candidates",
    "choose_variable",
]

BASE_HEURISTICS = ("degree", "width", "elim_cost", "random")


@dataclass(slots=True)
class Candidate:
    """One elimination candidate with its precomputed scopes.

    ``neighborhood`` is the bitmask of *live* variables over ``rels``
    (including the candidate itself); ``surviving`` holds those of its
    bits that future operators still need — query variables and
    variables live in some subplan outside ``rels`` (scorers read
    nothing of the post-elimination scope outside the neighbourhood);
    ``rels_live`` gives each rel's live variables, so cost estimates
    can pre-shrink delayed subplans the way pending GroupBy caps will.

    Because scorers read ``surviving`` only inside ``neighborhood``, VE
    can keep a candidate across elimination steps that do not touch it
    (:mod:`repro.optimizer.ve`): its raw score under each heuristic
    component is computed once, by :meth:`score`.
    """

    var: str
    rels: list[SubPlan]
    neighborhood: int
    surviving: int
    rels_live: list[int]
    _scores: dict[str, tuple[float, int]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def score(self, part: str, context: PlanContext) -> float:
        """Raw score under one base heuristic, computed on first use (a
        candidate belongs to one search, so to one ``context``).

        A reuse adds to ``plans_considered`` what the computation added
        (``elim_cost`` costs one plan), as if it had been scored again.
        """
        hit = self._scores.get(part)
        if hit is not None:
            if hit[1]:
                context.plans_considered += hit[1]
            return hit[0]
        before = context.plans_considered
        raw = _SCORERS[part](self, context)
        self._scores[part] = raw, context.plans_considered - before
        return raw


def _degree(candidate: Candidate, context: PlanContext) -> float:
    var_bit = context.var_bits[candidate.var]
    return context.domain_product(
        candidate.neighborhood & ~var_bit & candidate.surviving
    )


def _width(candidate: Candidate, context: PlanContext) -> float:
    return context.domain_product(candidate.neighborhood)


def _elim_cost(candidate: Candidate, context: PlanContext) -> float:
    """Fixed-order join chain + aggregate, costed by the active model.

    Operand statistics are pre-shrunk to each rel's live scope: in the
    extended space a delayed variable will be dropped by a pending
    GroupBy cap before this join happens, so estimating with the raw
    cardinality would systematically mis-rank candidates.
    """
    model = context.model
    bits = context.var_bits

    def effective(subplan: SubPlan, live: int):
        var_sizes = subplan.stats.var_sizes
        keep = [v for v in var_sizes if bits[v] & live]
        if len(keep) == len(var_sizes):
            return subplan.stats
        return group_stats(subplan.stats, keep)

    operands = [
        effective(r, live)
        for r, live in zip(candidate.rels, candidate.rels_live)
    ]
    stats = operands[0]
    cost = 0.0
    for other in operands[1:]:
        joined = join_stats(stats, other)
        cost += model.join_cost(stats, other, joined)
        stats = joined
    surviving = candidate.surviving & ~bits[candidate.var]
    keep = [v for v in stats.var_sizes if bits[v] & surviving]
    grouped = group_stats(stats, keep)
    cost += model.group_cost(stats, grouped)
    context.plans_considered += 1
    return cost


_SCORERS = {
    "degree": _degree,
    "width": _width,
    "elim_cost": _elim_cost,
}


def parse_heuristic(spec: str) -> tuple[str, ...]:
    """Split a spec like ``"degree+width"`` into validated components."""
    parts = tuple(p.strip() for p in spec.split("+"))
    for p in parts:
        if p not in BASE_HEURISTICS:
            raise OptimizationError(
                f"unknown heuristic component {p!r}; known: {BASE_HEURISTICS}"
            )
    if "random" in parts and len(parts) > 1:
        raise OptimizationError("'random' cannot be combined")
    return parts


def _combined(
    candidates: Sequence[Candidate],
    context: PlanContext,
    parts: tuple[str, ...],
) -> list[float]:
    """Combined (normalized-product) score per candidate, in order."""
    combined = [1.0] * len(candidates)
    for part in parts:
        raw = []
        for c in candidates:
            hit = c._scores.get(part)
            if hit is None:
                raw.append(c.score(part, context))
            else:  # Candidate.score's reuse, inlined: it runs per step
                if hit[1]:
                    context.plans_considered += hit[1]
                raw.append(hit[0])
        top = max(raw)
        if top <= 0 or math.isinf(top):
            top = 1.0
        combined = [x * (r / top) for x, r in zip(combined, raw)]
    return combined


def score_candidates(
    candidates: Sequence[Candidate],
    context: PlanContext,
    parts: tuple[str, ...],
) -> dict[str, float]:
    """Combined (normalized-product) score per candidate variable."""
    return dict(
        zip([c.var for c in candidates], _combined(candidates, context, parts))
    )


def choose_variable(
    candidates: Sequence[Candidate],
    context: PlanContext,
    parts: tuple[str, ...],
    rng: np.random.Generator | None = None,
) -> str:
    """Pick the next variable to eliminate (ties broken by name)."""
    if not candidates:
        raise OptimizationError("no elimination candidates")
    if parts == ("random",):
        rng = rng or np.random.default_rng()
        return str(rng.choice(sorted(c.var for c in candidates)))
    combined = _combined(candidates, context, parts)
    return min(zip(combined, [c.var for c in candidates]))[1]
