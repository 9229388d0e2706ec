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

    # ------------------------------------------------------------------
    @staticmethod
    def _candidate(
        v: str,
        held: list[tuple[SubPlan, frozenset[str]]],
        query_vars: frozenset[str],
    ) -> Candidate | None:
        """Scoring scopes of ``v`` over ``(subplan, live variables)``
        pairs — live scopes exclude delayed variables — or None when
        ``v`` is live nowhere."""
        rels = []
        rels_live = []
        neighborhood: set[str] = set()
        outside: set[str] = set(query_vars)
        for s, live in held:
            if v in live:
                rels.append(s)
                rels_live.append(live)
                neighborhood |= live
            else:
                outside |= live
        if not rels:
            return None
        return Candidate(
            var=v,
            rels=rels,
            neighborhood=frozenset(neighborhood),
            surviving=frozenset(outside),
            rels_live=rels_live,
        )

    def _search(self, context: PlanContext) -> SubPlan:
        best, order = self._search_mode(context, extended=self.extended)
        if self.extended:
            # Theorem 3's practical guarantee — VE+ returns a plan no
            # worse than plain VE with the same heuristic — is enforced
            # directly: both searches are cheap, so cost the
            # delayed-elimination plan *and* the plain plan and keep the
            # cheaper.
            plain, plain_order = self._search_mode(context, extended=False)
            if plain.cost < best.cost:
                best, order = plain, plain_order
        context.extras["elimination_order"] = tuple(order)
        return best

    def _search_mode(
        self, context: PlanContext, extended: bool
    ) -> tuple[SubPlan, list[str]]:
        """One elimination search; the plan and its elimination order."""
        spec = context.spec
        rng = np.random.default_rng(self.seed)
        order: list[str] = []

        held = [(s, s.variables) for s in map(context.leaf, spec.tables)]
        query_vars = frozenset(spec.query_vars)
        present = set().union(*(live for _, live in held))
        processed: set[str] = set()
        candidates = {
            v: self._candidate(v, held, query_vars)
            for v in sorted(present - query_vars)
        }

        prunable = fd_prunable_variables(
            {t: tuple(context.table_variables(t)) for t in spec.tables},
            self.table_keys,
        )

        while candidates:
            # Proposition 1: projection-prunable variables are free —
            # eliminate them first regardless of the heuristic.
            free = [c for c in candidates.values() if c.var in prunable]
            pool = free or list(candidates.values())
            v = choose_variable(pool, context, self.parts, rng)
            order.append(v)
            chosen = candidates.pop(v)
            rel_ids = {id(s) for s in chosen.rels}
            others = [(s, live) for s, live in held if id(s) not in rel_ids]
            needed = query_vars.union(*(s.variables for s, _ in others))

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

            processed.add(v)
            held = others + [(p, p.variables - processed)]
            # Only the candidates of v's neighbourhood can have changed:
            # rebuild them, and drop those the GroupBy finished (live
            # nowhere any more).
            for u in chosen.neighborhood:
                if u in candidates:
                    rebuilt = self._candidate(u, held, query_vars)
                    if rebuilt is None:
                        del candidates[u]
                    else:
                        candidates[u] = rebuilt

        subplans = [s for s, _ in held]
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
