"""Variable Elimination as a relational optimizer (Algorithm 2, §5.4).

Plain VE eliminates one non-query variable at a time: product-join all
relations containing it (``rels(v, S)``), then GroupBy the result down
to the variables future operators still need — the query variables and
those shared with the remaining relations (grouping on anything more
would just carry dead columns; grouping on anything less would be
incorrect by the Chaudhuri–Shim condition).  The elimination order
comes from a heuristic (:mod:`repro.optimizer.heuristics`); VE plans
are naturally nonlinear because each elimination produces a subtree
that later joins other subtrees.

The **extended space** (VE+, Section 5.4) adds two cost-based ideas
borrowed from CS+:

1. ``joinplan`` over ``rels(v)`` uses the greedy-conservative interior
   GroupBy rule of Algorithm 1, with the needed-variable set computed
   *globally* (query variables plus variables of every relation outside
   ``rels(v)``) — interior GroupBys may therefore eliminate other
   locally-finished variables early;
2. elimination is *delayed*: no GroupBy is forced after the last join.
   The variable disappears when some later GroupBy cap (considered
   before every subsequent join, or the root GroupBy) finds dropping
   it worthwhile.

Heuristic scores in extended mode are computed over *live* scopes —
processed-but-delayed variables are ignored, since pending caps will
drop them — so delaying never degrades the elimination order.
Together these give ``GDLPlan(VE) ⊂ GDLPlan(VE+) ⊂ GDLPlan(CS+)``
(Theorem 3).

Proposition 1 (FD-based pruning) is exposed via
:func:`fd_prunable_variables`: when base relations declare keys, a
variable outside every key can be dropped by mere projection; VE
eliminates such variables first since their elimination carries no
aggregation cost risk.

The search keeps its elimination state across steps and pays per
change.  Candidates are built once; eliminating ``v`` replaces
``rels(v)`` by one subplan whose live variables lie in ``v``'s
neighbourhood, so only the candidates of those variables are rebuilt
(and dropped when no longer live anywhere).  Every other candidate is
exact as it stands: its ``rels`` are the same subplan objects, in the
same order, with the same live scopes, and the one field the step does
change — ``surviving``, which traded ``rels(v)``'s live variables for
the new subplan's — agrees with a rebuilt one inside the candidate's
neighbourhood, the only place scorers read it (a variable there that
``rels(v)`` held is still needed outside them, so the new subplan keeps
it).  Such a candidate therefore keeps its raw heuristic scores
(:meth:`~repro.optimizer.heuristics.Candidate.score`); the combined
score is still normalised over the current pool at every step.

The state is numeric (:class:`_Held`).  Subplans sit in slots, each
with the bitmask of its variables and of its live ones (variable ids
from :meth:`PlanContext.mask`), and two indexes map a variable to the
bitmask of the slots holding it, live and at all.  A candidate is built
from the slots its variable is live in — its ``rels`` — and the
variables of its neighbourhood, so a rebuild costs the candidate's
degree, not a scan of every held subplan; a step's needed set walks the
variables of ``rels(v)`` the same way.  VE+ starts its plain search from
the extended search's leaves and first candidates, which are the same.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.optimizer.base import Optimizer, PlanContext, SubPlan
from repro.optimizer.heuristics import Candidate, choose_variable, parse_heuristic
from repro.optimizer.joinplan import linear_dp

__all__ = ["VariableElimination", "fd_prunable_variables"]


def fd_prunable_variables(
    table_vars: Mapping[str, Sequence[str]],
    table_keys: Mapping[str, Sequence[str]],
) -> frozenset[str]:
    """Variables whose elimination is a projection (Proposition 1).

    A variable ``Y`` qualifies when, for every base relation, the FD
    ``X_i -> f`` holds with ``Y ∉ X_i`` — i.e. ``Y`` appears in no
    relation's declared key.  Relations without a declared key default
    to the maximal FD (all variables are determining), which disables
    pruning for their variables.
    """
    determining: set[str] = set()
    for table, variables in table_vars.items():
        key = table_keys.get(table)
        determining |= set(key if key is not None else variables)
    all_vars = set().union(*map(set, table_vars.values())) if table_vars else set()
    return frozenset(all_vars - determining)


class VariableElimination(Optimizer):
    """Algorithm 2 with pluggable ordering heuristics and the VE+ space.

    Parameters
    ----------
    heuristic:
        ``"degree"``, ``"width"``, ``"elim_cost"``, ``"random"``, or a
        ``+``-combination such as ``"degree+width"`` (Section 5.5).
    extended:
        Enable the VE+ extended plan space (Section 5.4).
    seed:
        Seed for the ``random`` heuristic.
    table_keys:
        Optional ``{table: key variables}`` declarations enabling the
        Proposition 1 projection-based pruning.
    """

    def __init__(
        self,
        heuristic: str = "degree",
        extended: bool = False,
        seed: int | None = None,
        table_keys: Mapping[str, Sequence[str]] | None = None,
    ):
        self.heuristic = heuristic
        self.parts = parse_heuristic(heuristic)
        self.extended = extended
        self.seed = seed
        self.table_keys = dict(table_keys or {})

    @property
    def algorithm(self) -> str:
        suffix = "+ext" if self.extended else ""
        return f"ve({self.heuristic}){suffix}"

    def _search(self, context: PlanContext) -> SubPlan:
        before = context.plans_considered
        start = self._start(context)
        leaves_considered = context.plans_considered - before
        best, order = self._search_mode(context, self.extended, start)
        if self.extended:
            # Theorem 3's practical guarantee — VE+ returns a plan no
            # worse than plain VE with the same heuristic — is enforced
            # directly: both searches are cheap, so cost the
            # delayed-elimination plan *and* the plain plan and keep the
            # cheaper.  The plain search starts from the same leaves and
            # candidates, counted as if built again.
            context.plans_considered += leaves_considered
            plain, plain_order = self._search_mode(context, False, start)
            if plain.cost < best.cost:
                best, order = plain, plain_order
        context.extras["elimination_order"] = tuple(order)
        return best

    @staticmethod
    def _start(context: PlanContext) -> tuple[_Held, dict[str, Candidate]]:
        """The leaves in slots, and the candidate of every variable but
        the query's."""
        state = _Held(context, [context.leaf(t) for t in context.spec.tables])
        query_vars = frozenset(context.spec.query_vars)
        candidates = {
            v: state.candidate(v)
            for v in sorted(context.names(state.live_anywhere()))
            if v not in query_vars
        }
        return state, candidates

    def _search_mode(
        self,
        context: PlanContext,
        extended: bool,
        start: tuple[_Held, dict[str, Candidate]] | None = None,
    ) -> tuple[SubPlan, list[str]]:
        """One elimination search from ``start`` (:meth:`_start`, left
        as it is); the plan and its elimination order."""
        spec = context.spec
        rng = np.random.default_rng(self.seed) if self.parts == ("random",) else None
        order: list[str] = []
        state, candidates = start or self._start(context)
        state, candidates = state.copy(), dict(candidates)
        query_vars = frozenset(spec.query_vars)
        # Without declared keys every variable is determining.
        prunable = self.table_keys and fd_prunable_variables(
            {t: tuple(context.table_variables(t)) for t in spec.tables},
            self.table_keys,
        )

        while candidates:
            # Proposition 1: projection-prunable variables are free —
            # eliminate them first regardless of the heuristic.
            free = prunable and [
                c for c in candidates.values() if c.var in prunable
            ]
            pool = free or list(candidates.values())
            v = choose_variable(pool, context, self.parts, rng)
            order.append(v)
            chosen = candidates.pop(v)
            rels = state.holders(v)
            needed = frozenset(context.names(state.needed_outside(rels)))

            if extended:
                p = linear_dp(
                    chosen.rels, context,
                    outside_needed=needed, use_groupbys=True,
                )
            else:
                joined = linear_dp(chosen.rels, context, use_groupbys=False)
                keep = [
                    x for x in joined.stats.var_sizes
                    if x != v and x in needed
                ]
                p = context.group(joined, keep)

            state.replace(rels, p, v)
            # Only the candidates of v's neighbourhood can have changed:
            # rebuild them, and drop those the GroupBy finished (live
            # nowhere any more).
            for u in context.names(chosen.neighborhood):
                if u in candidates:
                    rebuilt = state.candidate(u)
                    if rebuilt is None:
                        del candidates[u]
                    else:
                        candidates[u] = rebuilt

        subplans = state.subplans()
        if len(subplans) > 1:
            final = linear_dp(
                subplans,
                context,
                outside_needed=query_vars,
                use_groupbys=extended,
            )
        else:
            final = subplans[0]
        return context.finalize(final), order


class _Held:
    """The subplans an elimination search holds, in slots.

    A slot keeps one subplan, the bitmask of all its variables and that
    of its *live* ones (delayed variables excluded); two indexes map a
    variable's bit to the bitmask of the slots holding it — live, and at
    all.  New subplans take fresh slots, so ascending slot order is the
    order the subplans joined the pool, which every search reads its
    ``rels`` in.  Building a candidate or the needed set of a step then
    walks that step's variables, never the whole pool.
    """

    def __init__(self, context: PlanContext, subplans: list[SubPlan]):
        self.context = context
        self.var_bits = context.var_bits
        self.query = context.mask(context.spec.query_vars)
        self.processed = 0
        self.slots: list[SubPlan | None] = []
        self.live: list[int] = []
        self.scope: list[int] = []
        self.live_in = dict.fromkeys(context.var_bits.values(), 0)
        self.held_in = dict(self.live_in)
        for s in subplans:
            self._add(s)

    def copy(self) -> "_Held":
        other = object.__new__(_Held)
        other.context, other.query = self.context, self.query
        other.var_bits = self.var_bits
        other.processed = self.processed
        other.slots, other.live, other.scope = (
            self.slots[:], self.live[:], self.scope[:]
        )
        other.live_in, other.held_in = self.live_in.copy(), self.held_in.copy()
        return other

    def _add(self, subplan: SubPlan) -> None:
        slot = 1 << len(self.slots)
        scope = self.context.mask(subplan.stats.var_sizes)
        live = scope & ~self.processed
        self.slots.append(subplan)
        self.scope.append(scope)
        self.live.append(live)
        live_in, held_in = self.live_in, self.held_in
        while scope:
            low = scope & -scope
            held_in[low] |= slot
            if live & low:
                live_in[low] |= slot
            scope ^= low

    def replace(self, rels: int, subplan: SubPlan, var: str) -> None:
        """Swap the subplans of the ``rels`` slots for ``subplan``, the
        step that eliminated ``var``."""
        scope = 0
        slots = rels
        while slots:
            slot = slots & -slots
            s = slot.bit_length() - 1
            scope |= self.scope[s]
            self.slots[s] = None
            slots ^= slot
        live_in, held_in = self.live_in, self.held_in
        others = ~rels
        while scope:
            low = scope & -scope
            held_in[low] &= others
            live_in[low] &= others
            scope ^= low
        self.processed |= self.var_bits[var]
        self._add(subplan)

    def subplans(self) -> list[SubPlan]:
        return [s for s in self.slots if s is not None]

    def live_anywhere(self) -> int:
        out = 0
        for live in self.live:
            out |= live
        return out

    def holders(self, var: str) -> int:
        """The slots where ``var`` is live."""
        return self.live_in[self.var_bits[var]]

    def needed_outside(self, rels: int) -> int:
        """The variables of the ``rels`` slots that a GroupBy over their
        join must keep: query variables, and those some other slot holds."""
        scope = 0
        slots = rels
        while slots:
            slot = slots & -slots
            scope |= self.scope[slot.bit_length() - 1]
            slots ^= slot
        needed = scope & self.query
        held_in = self.held_in
        others = ~rels
        scope &= ~needed
        while scope:
            low = scope & -scope
            if held_in[low] & others:
                needed |= low
            scope ^= low
        return needed

    def candidate(self, var: str) -> Candidate | None:
        """The scoring scopes of ``var`` over its live slots, or None
        when ``var`` is live nowhere."""
        rels_mask = self.live_in[self.var_bits[var]]
        if not rels_mask:
            return None
        held, live_of = self.slots, self.live
        rels, rels_live = [], []
        neighborhood = 0
        slots = rels_mask
        while slots:
            slot = slots & -slots
            s = slot.bit_length() - 1
            rels.append(held[s])
            live = live_of[s]
            rels_live.append(live)
            neighborhood |= live
            slots ^= slot
        surviving = neighborhood & self.query
        live_in = self.live_in
        others = ~rels_mask
        rest = neighborhood & ~surviving
        while rest:
            low = rest & -rest
            if live_in[low] & others:
                surviving |= low
            rest ^= low
        return Candidate(var, rels, neighborhood, surviving, rels_live)
