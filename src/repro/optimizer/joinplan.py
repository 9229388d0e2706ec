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

Both searches pay per decision, not per object.  A subset's winner is
one slotted :class:`Estimate`: its cumulative cost, cardinality,
distinct counts (a dict in the variables' order), variable-id bitmask,
and a back-pointer to how it was made.  The cost model reads an
estimate as it reads a :class:`TableStats` — ``.cardinality``, and
``.var_sizes``, derived from the view's domain sizes on first read —
and each candidate's output as one
:class:`~repro.cost.cardinality.JoinSize`, re-aimed at every candidate
and estimated only if the model reads it (the paper's ``|L|·|R|``
model never does).  So a subset costs its ``n·2^(n-1)`` (linear) or
``3^n`` (bushy) candidates plus one estimate for its winner; plan nodes
and one validated :class:`TableStats` are built only for the subplan a
DP returns.

A winner's estimate is :func:`~repro.cost.cardinality.join_stats` of its
operands, bit for bit.  A left-deep winner extends its left operand by
one item: the selectivity divides over the shared variables in the left
operand's order, and the left operand's own distinct counts — already
capped by their domain sizes and its cardinality — are capped again only
if the new cardinality falls below the largest of them.  The GroupBy cap
of ``optPlan(S)`` depends on ``S`` alone — the needed variables are
``outside_needed`` plus those of the items outside ``S``, one OR in a
per-mask table of variable bitmasks — so it is derived once per subset,
however many extensions or splits use ``S`` as an operand; each use
still counts as a considered plan, so ``plans_considered`` keeps
meaning "candidates compared".

``outside_needed`` carries the correctness condition across search
scopes: when these DPs run over a subset of the view's relations (as
VE/VE+ do per elimination), variables referenced by relations *outside*
the subset, plus the query variables, must survive every interior
GroupBy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Sequence

from repro.catalog.statistics import TableStats
from repro.cost.cardinality import JoinSize
from repro.errors import OptimizationError
from repro.optimizer.base import PlanContext, SubPlan
from repro.plans.nodes import GroupBy, PlanNode, ProductJoin

__all__ = ["Estimate", "linear_dp", "bushy_dp"]


class Estimate:
    """One subplan as a DP holds it: what the cost model reads, and a
    back-pointer to build it from.

    ``distinct`` is what the :class:`TableStats` of the subplan would
    hold, in its variables' order; ``var_sizes`` is derived from it and
    the view's domain sizes (``sizes``) on first read — the paper's cost
    model never reads it.  ``mask`` is the variables' bitmask
    (:meth:`PlanContext.mask`); ``dmax`` bounds the distinct counts, which
    a derived estimate holds capped, and is None for an item.  Exactly
    one back-pointer is set: ``item`` (a DP input, whose statistics are
    read as they are), ``group`` (a GroupBy on those names over
    ``left``), or ``right`` (``left ⋈* right``).
    """

    __slots__ = (
        "cost", "cardinality", "distinct", "mask", "dmax", "sizes",
        "item", "left", "right", "group", "_var_sizes", "order",
    )

    def __init__(self, cost, cardinality, distinct, mask, dmax, sizes,
                 item, left, right, group, var_sizes=None):
        self.cost = cost
        self.cardinality = cardinality
        self.distinct = distinct
        self.mask = mask
        self.dmax = dmax
        self.sizes = sizes
        self.item = item
        self.left = left
        self.right = right
        self.group = group
        self._var_sizes = var_sizes
        #: The variables in order: an item's distinct counts may list
        #: them in another.
        self.order = distinct if var_sizes is None else var_sizes

    @classmethod
    def of(cls, item: SubPlan, context: PlanContext) -> "Estimate":
        stats = item.stats
        return cls(
            item.cost, stats.cardinality, stats.distinct,
            context.mask(stats.var_sizes), None, context.domain_sizes,
            item, None, None, None, stats.var_sizes,
        )

    @property
    def var_sizes(self) -> dict[str, int]:
        var_sizes = self._var_sizes
        if var_sizes is None:
            sizes = self.sizes
            var_sizes = self._var_sizes = {v: sizes[v] for v in self.distinct}
        return var_sizes

    def build(self) -> tuple[PlanNode, str]:
        """The plan tree this estimate stands for, and the name
        :func:`join_stats` / :func:`group_stats` would give its stats."""
        if self.item is not None:
            return self.item.plan, self.item.stats.name
        plan, name = self.left.build()
        if self.group is not None:
            return GroupBy(plan, self.group), f"g({name})"
        right_plan, right_name = self.right.build()
        return ProductJoin(plan, right_plan), f"({name}*{right_name})"

    def subplan(self) -> SubPlan:
        """The returned plan: nodes and one validated :class:`TableStats`."""
        plan, name = self.build()
        stats = TableStats(name, self.cardinality, self.var_sizes, self.distinct)
        return SubPlan(plan, stats, self.cost)


# The derivations below are join_stats / group_stats step for step, with
# ``min``/``max`` spelled as the comparisons they make (the first of equal
# arguments wins), so every estimate has the reference's bits.  A
# variable's domain size is the view's: every statistic takes it from
# the catalog, which allows one domain per variable name.


def _capped(distinct, sizes, cardinality):
    """Cap every count in place by its domain size and ``cardinality``,
    at least 1.0; the largest count."""
    dmax = 1.0
    for v, d in distinct.items():
        size = sizes[v]
        if size < d:
            d = float(size)
        if cardinality < d:
            d = cardinality
        if d > 1.0:
            if d > dmax:
                dmax = d
        else:
            d = 1.0
        distinct[v] = d
    return dmax


def _joined(left: Estimate, right: Estimate, cost: float) -> Estimate:
    """``left ⋈* right``: :func:`join_stats`'s numbers, without the
    :class:`TableStats`."""
    left_distinct, right_distinct = left.distinct, right.distinct
    selectivity = 1.0
    distinct: dict[str, float] = {}
    for v in left.order:
        d = left_distinct[v]
        r = right_distinct.get(v)
        if r is not None:
            most = r if r > d else d
            selectivity /= 1.0 if 1.0 > most else most
            if r < d:
                d = r
        distinct[v] = d
    for v in right.order:
        if v not in distinct:
            distinct[v] = right_distinct[v]
    cardinality = left.cardinality * right.cardinality * selectivity
    if not cardinality > 1.0:
        cardinality = 1.0
    sizes = left.sizes
    return Estimate(
        cost, cardinality, distinct, left.mask | right.mask,
        _capped(distinct, sizes, cardinality), sizes, None, left, right, None,
    )


def _extended(left: Estimate, item: Estimate, cost: float) -> Estimate:
    """``left ⋈* item`` for a derived left operand (its counts capped,
    ``left.dmax`` set): :func:`_joined`'s numbers, visiting only the
    item's variables unless the cardinality falls below ``left.dmax``."""
    left_distinct, item_distinct = left.distinct, item.distinct
    selectivity = 1.0
    shared = left.mask & item.mask
    if shared:
        # One shared variable divides once, in any order; more divide
        # in the left operand's.
        remaining = shared.bit_count()
        for v in left_distinct if remaining > 1 else item_distinct:
            if v in item_distinct and v in left_distinct:
                d, r = left_distinct[v], item_distinct[v]
                most = r if r > d else d
                selectivity /= 1.0 if 1.0 > most else most
                remaining -= 1
                if not remaining:
                    break
    cardinality = left.cardinality * item.cardinality * selectivity
    if not cardinality > 1.0:
        cardinality = 1.0
    dmax = left.dmax
    if cardinality < dmax:
        distinct = {}
        dmax = 1.0
        for v, d in left_distinct.items():
            if cardinality < d:
                d = cardinality
            if d > dmax:
                dmax = d
            distinct[v] = d
    else:
        distinct = left_distinct.copy()
    sizes = left.sizes
    for v in item.order:
        d = item_distinct[v]
        if v in left_distinct:
            ld = left_distinct[v]
            if not d < ld:
                d = ld
        size = sizes[v]
        if size < d:
            d = float(size)
        if cardinality < d:
            d = cardinality
        if d > 1.0:
            if d > dmax:
                dmax = d
        else:
            d = 1.0
        distinct[v] = d
    return Estimate(
        cost, cardinality, distinct, left.mask | item.mask, dmax, sizes,
        None, left, item, None,
    )


def _grouped(child: Estimate, needed: int, context: PlanContext) -> Estimate | None:
    """GroupBy on the variables of ``child`` in ``needed`` (a bitmask) —
    :func:`group_stats`'s numbers — or None when that drops nothing."""
    if not child.mask & ~needed:
        return None
    bits = context.var_bits
    child_distinct = child.distinct
    names = tuple([v for v in child.order if bits[v] & needed])
    groups = 1.0
    for v in names:
        groups *= child_distinct[v]
    cardinality = child.cardinality
    if groups < cardinality:
        cardinality = groups
    if not cardinality > 1.0:
        cardinality = 1.0
    distinct = {v: child_distinct[v] for v in names}
    sizes = child.sizes
    out = Estimate(
        0.0, cardinality, distinct, child.mask & needed,
        _capped(distinct, sizes, cardinality), sizes, None, child, None, names,
    )
    out.cost = child.cost + context.model.group_cost(child, out)
    return out


@lru_cache(maxsize=None)
def _extensions(n: int) -> tuple[tuple[int, tuple[tuple[int, int], ...]], ...]:
    """Masks of two or more of ``n`` items — in increasing popcount (so
    predecessors exist) and ascending within one — each with its
    ``(mask without item j, j)`` pairs in ascending ``j``; built once
    per ``n``."""
    masks = [mask for mask in range(3, 1 << n) if mask & (mask - 1)]
    masks.sort(key=int.bit_count)
    return tuple(
        (mask, tuple((mask ^ 1 << j, j) for j in range(n) if mask >> j & 1))
        for mask in masks
    )


def _setup(items, context, outside_needed, use_groupbys):
    """One DP call's state: the items' estimates; ``dp[S]``, the best
    plan joining exactly the items of ``S`` (items filled in); ``caps[S]``,
    ``dp[S]`` under a GroupBy on what is still needed outside ``S`` (or
    None when that drops nothing); and ``unions[S]``, the outside scope
    plus the variables of the items in ``S`` — ``unions[full ^ S]`` is
    what ``caps[S]`` keeps — or None without GroupBys."""
    if not items:
        raise OptimizationError("joinplan over an empty relation set")
    leaves = [Estimate.of(item, context) for item in items]
    full = (1 << len(leaves)) - 1
    dp: list[Estimate | None] = [None] * (full + 1)
    caps: list[Estimate | None] = [None] * (full + 1)
    unions = None
    if use_groupbys:
        # One OR per mask, from the mask without its lowest item.
        unions = [context.mask(outside_needed)] * (full + 1)
        for mask in range(1, full + 1):
            low = mask & -mask
            unions[mask] = unions[mask ^ low] | leaves[low.bit_length() - 1].mask
    for i, leaf in enumerate(leaves):
        dp[1 << i] = leaf
        if unions is not None:
            caps[1 << i] = _grouped(leaf, unions[full ^ 1 << i], context)
    return leaves, dp, caps, unions


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
    if len(items) == 1:
        return items[0]
    leaves, dp, caps, unions = _setup(
        items, context, outside_needed, use_groupbys
    )
    full = len(dp) - 1
    join_cost = context.model.join_cost
    # One output view for every candidate, re-aimed at each.
    out = JoinSize(None, None)
    considered = 0

    for mask, extensions in _extensions(len(leaves)):
        best_cost: float | None = None
        for prev_mask, j in extensions:
            # S_j = mask without r_j; its cap keeps what the relations
            # not yet joined into S_j (r_j included) and the outside
            # scope still need.
            left, right = dp[prev_mask], leaves[j]
            cost = left.cost + right.cost + join_cost(
                left, right, out.aim(left, right)
            )
            capped = caps[prev_mask]
            if capped is not None:
                # The cap and the capped join: two more candidates.
                considered += 2
                capped_cost = capped.cost + right.cost + join_cost(
                    capped, right, out.aim(capped, right)
                )
                if capped_cost < cost:
                    left, cost = capped, capped_cost
            if best_cost is None or cost < best_cost:
                best_left, best_right, best_cost = left, right, cost
        considered += len(extensions)
        if best_left.dmax is None:
            best = dp[mask] = _joined(best_left, best_right, best_cost)
        else:
            best = dp[mask] = _extended(best_left, best_right, best_cost)
        if unions is not None and mask != full:
            caps[mask] = _grouped(best, unions[full ^ mask], context)
    context.plans_considered += considered
    return dp[full].subplan()


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
    if len(items) == 1:
        return items[0]
    _, dp, caps, unions = _setup(items, context, outside_needed, use_groupbys)
    full = len(dp) - 1
    join_cost = context.model.join_cost
    # One output view for every candidate, re-aimed at each.
    out = JoinSize(None, None)
    considered = 0

    for mask, _ in _extensions(len(items)):
        best_cost: float | None = None
        # Each unordered split once, as (sub, other) with sub > other:
        # sub holds the mask's top bit.  Proper submasks of the rest,
        # descending, give the splits in descending order of sub.
        top = 1 << (mask.bit_length() - 1)
        rest = mask ^ top
        low = (rest - 1) & rest
        while True:
            sub, other = top | low, rest ^ low
            left, right = dp[sub], dp[other]
            cost = left.cost + right.cost + join_cost(
                left, right, out.aim(left, right)
            )
            considered += 1
            if best_cost is None or cost < best_cost:
                best_left, best_right, best_cost = left, right, cost
            capped_left, capped_right = caps[sub], caps[other]
            # Each cap is one candidate, and so is each join it enters.
            if capped_left is not None:
                considered += 2
                cost = capped_left.cost + right.cost + join_cost(
                    capped_left, right, out.aim(capped_left, right)
                )
                if cost < best_cost:
                    best_left, best_right, best_cost = capped_left, right, cost
            if capped_right is not None:
                considered += 2
                cost = left.cost + capped_right.cost + join_cost(
                    left, capped_right, out.aim(left, capped_right)
                )
                if cost < best_cost:
                    best_left, best_right, best_cost = left, capped_right, cost
                if capped_left is not None:
                    considered += 1
                    cost = capped_left.cost + capped_right.cost + join_cost(
                        capped_left, capped_right,
                        out.aim(capped_left, capped_right),
                    )
                    if cost < best_cost:
                        best_left, best_right, best_cost = (
                            capped_left, capped_right, cost
                        )
            if not low:
                break
            low = (low - 1) & rest
        best = dp[mask] = _joined(best_left, best_right, best_cost)
        if unions is not None and mask != full:
            caps[mask] = _grouped(best, unions[full ^ mask], context)
    context.plans_considered += considered
    return dp[full].subplan()
