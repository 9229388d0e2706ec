"""Join-order search: the ``joinplan()`` primitive of Algorithms 1 & 2.

Two dynamic programs over bitmask-indexed relation subsets:

* :func:`linear_dp` — Selinger-style left-deep search.  With
  ``use_groupbys=False`` it is the plain best-join-order search the CS
  baseline and plain VE use.  With ``use_groupbys=True`` it is the
  CS+ transition of Algorithm 1: joining relation ``r_j`` to the best
  plan for ``S_j`` compares the plan with and without a GroupBy capping
  ``optPlan(S_j)``, grouping on the semantically-required variables,
  and keeps the cheaper (the greedy-conservative heuristic).

* :func:`bushy_dp` — the nonlinear CS+ search of Section 5.1: all
  subset splits, and for each split the **four** candidates — no
  GroupBy, GroupBy on the left operand, on the right operand, on both.

Both searches are two-phase, and each phase derives only what is read.
A cost model ranks a join on its inputs and the size of its output and
nothing else, so every candidate of a subset is *costed*
(:meth:`PlanContext.cost_join`) against a
:class:`~repro.cost.cardinality.JoinSize` that estimates the output only
if the model reads it — the paper's ``|L|·|R|`` model never does — and
only the subset's winner is *built* (:meth:`PlanContext.build_join`:
full statistics with per-variable distinct counts, the ``ProductJoin``
node, the ``SubPlan``) — ``2^n`` builds for ``n·2^(n-1)`` (linear) or
``3^n`` (bushy) costings.  The GroupBy cap of ``optPlan(S)`` likewise
depends on ``S`` alone — the needed variables are ``outside_needed``
plus those of the items outside ``S``, read from a per-mask table of
unions — so it is derived once per subset, however many extensions or
splits use ``S`` as an operand; each reuse still counts as a considered
plan, so ``plans_considered`` keeps meaning "candidates compared".

``outside_needed`` carries the correctness condition across search
scopes: when these DPs run over a subset of the view's relations (as
VE/VE+ do per elimination), variables referenced by relations *outside*
the subset, plus the query variables, must survive every interior
GroupBy.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.errors import OptimizationError
from repro.optimizer.base import PlanContext, SubPlan

__all__ = ["linear_dp", "bushy_dp"]


def _unions(items: Sequence[SubPlan]) -> list[frozenset[str]]:
    """``out[mask]``: the union of the variables of the items in ``mask``,
    each mask one union away from the mask without its lowest item."""
    out = [frozenset()] * (1 << len(items))
    for mask in range(1, len(out)):
        low = mask & -mask
        out[mask] = out[mask ^ low] | items[low.bit_length() - 1].variables
    return out


def _trivial_plan(items: Sequence[SubPlan]) -> SubPlan | None:
    """The answer when there is nothing to order: one item, or an error."""
    if not items:
        raise OptimizationError("joinplan over an empty relation set")
    return items[0] if len(items) == 1 else None


def _subsets_by_size(n: int) -> list[int]:
    """Masks of two or more of ``n`` items, in increasing popcount (so
    predecessors exist) and ascending within one popcount."""
    masks = [mask for mask in range(3, 1 << n) if mask & (mask - 1)]
    masks.sort(key=int.bit_count)
    return masks


def _cap_memo(
    items: Sequence[SubPlan],
    dp: dict[int, SubPlan],
    context: PlanContext,
    outside_needed: frozenset[str],
) -> Callable[[int], SubPlan | None]:
    """``cap(S)``: ``dp[S]`` under a GroupBy on what is still needed
    outside ``S``, or None when that drops nothing; derived on first use.

    A reuse adds to ``plans_considered`` what the derivation added, as
    if the cap had been costed again.  The variables of the complement
    come from one per-mask table, built on the first derivation.
    """
    full = (1 << len(items)) - 1
    memo: dict[int, tuple[SubPlan | None, int]] = {}
    unions: list[frozenset[str]] = []

    def cap(mask: int) -> SubPlan | None:
        hit = memo.get(mask)
        if hit is not None:
            context.plans_considered += hit[1]
            return hit[0]
        if not unions:
            unions.extend(_unions(items))
        before = context.plans_considered
        needed = outside_needed | unions[full ^ mask]
        capped = context.group_if_useful(dp[mask], needed)
        memo[mask] = capped, context.plans_considered - before
        return capped

    return cap


def linear_dp(
    items: Sequence[SubPlan],
    context: PlanContext,
    outside_needed: frozenset[str] = frozenset(),
    use_groupbys: bool = False,
) -> SubPlan:
    """Best left-deep plan joining all ``items``.

    ``use_groupbys`` enables the CS+ interior-GroupBy comparison; the
    returned plan is then guaranteed no more expensive than the best
    pure join order (both candidates are always costed).
    """
    items = list(items)
    trivial = _trivial_plan(items)
    if trivial is not None:
        return trivial

    n = len(items)
    dp: dict[int, SubPlan] = {1 << i: items[i] for i in range(n)}
    cap = _cap_memo(items, dp, context, outside_needed)
    cost_join = context.cost_join

    for mask in _subsets_by_size(n):
        best_cost: float | None = None
        for j in range(n):
            bit = 1 << j
            if not mask & bit:
                continue
            # S_j = mask without r_j; its cap keeps what the relations
            # not yet joined into S_j (r_j included) and the outside
            # scope still need.
            prev_mask = mask ^ bit
            left, right = dp[prev_mask], items[j]
            cost = cost_join(left, right)
            if use_groupbys:
                capped = cap(prev_mask)
                if capped is not None:
                    capped_cost = cost_join(capped, right)
                    if capped_cost < cost:
                        left, cost = capped, capped_cost
            if best_cost is None or cost < best_cost:
                best_left, best_right, best_cost = left, right, cost
        dp[mask] = context.build_join(best_left, best_right, best_cost)
    return dp[(1 << n) - 1]


def bushy_dp(
    items: Sequence[SubPlan],
    context: PlanContext,
    outside_needed: frozenset[str] = frozenset(),
    use_groupbys: bool = True,
) -> SubPlan:
    """Best bushy plan joining all ``items`` (nonlinear CS+).

    For every unordered split {L, R} of every subset, costs up to four
    candidates (GroupBy caps on neither / left / right / both operands)
    and keeps the cheapest — the Section 5.1 extension of the CS+
    greedy-conservative rule to nonlinear plans.
    """
    items = list(items)
    trivial = _trivial_plan(items)
    if trivial is not None:
        return trivial

    n = len(items)
    dp: dict[int, SubPlan] = {1 << i: items[i] for i in range(n)}
    cap = _cap_memo(items, dp, context, outside_needed)
    cost_join = context.cost_join

    for mask in _subsets_by_size(n):
        best_cost: float | None = None
        # Enumerate unordered splits: sub iterates proper nonempty
        # submasks; keep sub > complement to visit each split once.
        sub = (mask - 1) & mask
        while sub:
            other = mask ^ sub
            if sub > other:
                left, right = dp[sub], dp[other]
                pairs = [(left, right)]
                if use_groupbys:
                    capped_left, capped_right = cap(sub), cap(other)
                    if capped_left is not None:
                        pairs.append((capped_left, right))
                    if capped_right is not None:
                        pairs.append((left, capped_right))
                    if capped_left is not None and capped_right is not None:
                        pairs.append((capped_left, capped_right))
                for left, right in pairs:
                    cost = cost_join(left, right)
                    if best_cost is None or cost < best_cost:
                        best_left, best_right, best_cost = left, right, cost
            sub = (sub - 1) & mask
        dp[mask] = context.build_join(best_left, best_right, best_cost)
    return dp[(1 << n) - 1]
