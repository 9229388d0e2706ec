"""Exact inference through MPF query optimization (Section 4).

Two engines with one interface:

* :class:`MPFInference` — the paper's point: a network is a database of
  CPT relations, and a posterior is an MPF query over them.  The CPTs
  are registered in one :class:`~repro.engine.Database` as the view
  ``joint``, and each posterior is one ``run_query`` over that view,
  planned by VE+ — so it is counted, planned, guarded and traced like
  any SQL query.  A calibrated :class:`~repro.workload.vecache.VECache`
  over the same view serves workloads of repeated marginal queries
  (the Section 6 machinery).

* :class:`BruteForceInference` — the oracle: materialize the whole
  joint and marginalize directly.  Exponential in network size; exists
  so property tests can verify the MPF path exactly.

Both return *normalized* posteriors ``Pr(X | evidence)``; the raw MPF
query result is the unnormalized measure the paper's example computes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.algebra.aggregate import marginalize
from repro.algebra.select import restrict
from repro.bayes.network import BayesianNetwork
from repro.data.relation import FunctionalRelation
from repro.engine import Database
from repro.errors import QueryError
from repro.plans.guard import QueryGuard
from repro.query.query import MPFQuery
from repro.query.view import MPFView
from repro.semiring.builtins import LOG_PROB, MAX_PRODUCT, MAX_SUM, SUM_PRODUCT
from repro.workload.vecache import VECache

__all__ = ["MPFInference", "BruteForceInference", "normalize"]


def normalize(relation: FunctionalRelation) -> FunctionalRelation:
    """Scale a sum-product measure column to sum to 1."""
    total = float(relation.measure.sum())
    if total <= 0:
        raise QueryError(
            "cannot normalize: total probability mass is zero (evidence "
            "has probability 0?)"
        )
    return relation.with_measure(relation.measure / total)


class MPFInference:
    """Inference by MPF query evaluation over the CPT relations.

    :attr:`database` holds the CPTs as the view ``joint``; :attr:`view`
    reads it under sum-product and :attr:`map_view` under max-product.
    With ``log_space=True`` the CPTs are stored as log probabilities
    and the views read them under the log semiring (logaddexp, +) and
    (max, +) — numerically stable for deep networks whose linear-space
    products underflow.  Returned posteriors are always linear-space.
    """

    def __init__(
        self,
        network: BayesianNetwork,
        log_space: bool = False,
        metrics=None,
    ):
        self.network = network
        self.log_space = log_space
        self.database = Database(metrics=metrics)
        relations = network.to_relations()
        if log_space:
            with np.errstate(divide="ignore"):
                relations = [
                    r.with_measure(np.log(r.measure)) for r in relations
                ]
        tables = tuple(self.database.register(r) for r in relations)
        self.database.create_view("joint", tables, "+" if log_space else "*")
        self.view = MPFView(
            "joint", tables, LOG_PROB if log_space else SUM_PRODUCT
        )
        self.map_view = MPFView(
            "joint", tables, MAX_SUM if log_space else MAX_PRODUCT
        )

    def _linear(self, answer: FunctionalRelation) -> FunctionalRelation:
        if self.log_space:
            return answer.with_measure(np.exp(answer.measure))
        return answer

    def _answer(
        self,
        view: MPFView,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None,
        guard: QueryGuard | None,
    ) -> FunctionalRelation:
        """One ``run_query`` over ``view``, planned by VE+; the answer
        is always linear-space."""
        if isinstance(variables, str):
            variables = (variables,)
        report = self.database.run_query(
            MPFQuery(view, tuple(variables), evidence or {}),
            strategy="ve+", guard=guard,
        )
        return self._linear(report.result)

    # ------------------------------------------------------------------
    def query(
        self,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None = None,
        normalized: bool = True,
        guard: QueryGuard | None = None,
    ) -> FunctionalRelation:
        """``Pr(variables | evidence)`` via an MPF query.

        ``evidence`` becomes the constrained-domain ``where`` clause;
        the database plans the marginalization and runs it.  ``guard``
        bounds the execution (deadline, memory, retries).
        """
        answer = self._answer(self.view, variables, evidence, guard)
        return normalize(answer) if normalized else answer

    def map_query(
        self,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None = None,
        guard: QueryGuard | None = None,
    ) -> FunctionalRelation:
        """Max-marginals over ``variables`` (max-product semiring).

        The same MPF query evaluated under (max, ×) yields, per value of
        the query variables, the probability of the best completing
        assignment — the MPE reading of the semiring generality in
        Section 2.
        """
        return self._answer(self.map_view, variables, evidence, guard)

    # ------------------------------------------------------------------
    # Workload path (Section 6)
    # ------------------------------------------------------------------
    def build_cache(self, heuristic: str = "degree") -> VECache:
        """Calibrate a VE-cache over the CPT view for repeated marginals
        (:meth:`Database.build_cache <repro.engine.Database.build_cache>`)."""
        return self.database.build_cache(self.view, heuristic=heuristic)

    def query_cached(
        self,
        cache: VECache,
        variable: str,
        evidence: Mapping[str, object] | None = None,
        normalized: bool = True,
    ) -> FunctionalRelation:
        """Answer a single-variable marginal from a calibrated cache."""
        if evidence:
            cache = cache.absorb_evidence(evidence)
        answer = self._linear(cache.answer(variable))
        return normalize(answer) if normalized else answer


class BruteForceInference:
    """Oracle inference by materializing the joint distribution."""

    def __init__(self, network: BayesianNetwork):
        self.network = network
        self._joint = network.joint()

    def query(
        self,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None = None,
        normalized: bool = True,
    ) -> FunctionalRelation:
        if isinstance(variables, str):
            variables = (variables,)
        table = self._joint
        if evidence:
            table = restrict(table, dict(evidence))
        answer = marginalize(table, tuple(variables), SUM_PRODUCT)
        return normalize(answer) if normalized else answer

    def map_query(
        self,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None = None,
    ) -> FunctionalRelation:
        if isinstance(variables, str):
            variables = (variables,)
        table = self._joint
        if evidence:
            table = restrict(table, dict(evidence))
        return marginalize(table, tuple(variables), MAX_PRODUCT)
