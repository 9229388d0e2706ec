"""Exact inference through MPF query optimization (Section 4).

Two engines with one interface:

* :class:`MPFInference` — the paper's point: pose the inference task as
  an MPF query over the CPT relations and let a relational optimizer
  (VE, CS+, nonlinear CS+, ...) plan and execute it.  Also supports a
  calibrated :class:`~repro.workload.vecache.VECache` for workloads of
  repeated marginal queries (the Section 6 machinery).

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
from repro.catalog.catalog import Catalog
from repro.data.relation import FunctionalRelation
from repro.errors import QueryError
from repro.optimizer.base import Optimizer, QuerySpec
from repro.optimizer.ve import VariableElimination
from repro.plans.guard import QueryGuard
from repro.plans.runtime import ExecutionContext
from repro.semiring.builtins import LOG_PROB, MAX_PRODUCT, MAX_SUM, SUM_PRODUCT
from repro.workload.vecache import VECache, build_ve_cache

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

    With ``log_space=True`` the CPTs are stored as log probabilities
    and every plan executes under the log semiring (logaddexp, +) —
    numerically stable for deep networks whose linear-space products
    underflow.  Returned posteriors are always linear-space.
    """

    def __init__(
        self,
        network: BayesianNetwork,
        optimizer: Optimizer | None = None,
        log_space: bool = False,
        metrics=None,
    ):
        self.network = network
        self.optimizer = optimizer or VariableElimination("degree", extended=True)
        self.log_space = log_space
        self.metrics = metrics
        self.catalog = Catalog()
        relations = network.to_relations()
        if log_space:
            with np.errstate(divide="ignore"):
                relations = [
                    r.with_measure(np.log(r.measure)) for r in relations
                ]
        self.tables = tuple(self.catalog.register_all(relations))
        self._semiring = LOG_PROB if log_space else SUM_PRODUCT
        self._context = ExecutionContext(
            self.catalog, self._semiring, metrics=metrics
        )
        self._map_context = ExecutionContext(
            self.catalog,
            MAX_SUM if log_space else MAX_PRODUCT,
            pool=self._context.pool,
            metrics=metrics,
        )

    def _run(
        self,
        context: ExecutionContext,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None,
        guard: QueryGuard | None,
    ) -> FunctionalRelation:
        """Plan the MPF query and run it under ``context``'s semiring;
        the answer is always linear-space."""
        if isinstance(variables, str):
            variables = (variables,)
        spec = QuerySpec(
            tables=self.tables,
            query_vars=tuple(variables),
            selections=dict(evidence or {}),
        )
        result = self.optimizer.optimize(spec, self.catalog)
        answer, _stats = context.run(result.plan, guard=guard)
        # Each run starts from a fresh memo; holding this one until the
        # next call would only pin its intermediates in memory.
        context.reset_memo()
        if self.log_space:
            answer = answer.with_measure(np.exp(answer.measure))
        return answer

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
        the optimizer plans the marginalization, the executor runs it.
        ``guard`` bounds the execution (deadline, memory, retries).
        """
        answer = self._run(self._context, variables, evidence, guard)
        return normalize(answer) if normalized else answer

    def map_query(
        self,
        variables: Sequence[str] | str,
        evidence: Mapping[str, object] | None = None,
        guard: QueryGuard | None = None,
    ) -> FunctionalRelation:
        """Max-marginals over ``variables`` (max-product semiring).

        The same MPF plan evaluated under (max, ×) yields, per value of
        the query variables, the probability of the best completing
        assignment — the MPE reading of the semiring generality in
        Section 2.
        """
        return self._run(self._map_context, variables, evidence, guard)

    # ------------------------------------------------------------------
    # Workload path (Section 6)
    # ------------------------------------------------------------------
    def build_cache(self, heuristic: str = "degree") -> VECache:
        """Calibrate a VE-cache over the CPTs for repeated marginals.

        The cache is built through a catalog-backed execution context
        sharing this engine's buffer pool, so construction pays — and
        reports — the same simulated IO an equivalent query would.
        """
        relations = [self.catalog.relation(t) for t in self.tables]
        context = ExecutionContext(
            self.catalog, self._semiring, pool=self._context.pool,
            metrics=self.metrics,
        )
        return build_ve_cache(
            relations, self._semiring, heuristic=heuristic, context=context
        )

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
        answer = cache.answer(variable)
        if self.log_space:
            answer = answer.with_measure(np.exp(answer.measure))
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
