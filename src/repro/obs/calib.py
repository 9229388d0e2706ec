"""Cost-model calibration: closing the estimate→actual loop.

The paper's optimizers (CS/CS+/VE/VE+) win or lose on estimated
cardinalities and costs (Sections 5–6), yet estimates and actuals used
to live in separate documents that nothing joined: the annotated plan
carried per-node predictions, the tracer carried per-operator work,
and no one could say *where* the model was wrong.  This module is the
join.

Given an annotated plan tree and the actual per-node counts an
execution recorded (a ``key → (rows, elapsed)`` map, or the tracer's
:class:`~repro.obs.trace.OperatorProfile` rows — both keyed by the
structural keys of the *plan tree's* nodes; rows of a lowered run get
there through :meth:`repro.plans.lower.PlanDAG.plan_tree_rows`),
:func:`calibrate_plan` produces a :class:`PlanCalibration`:

* per-node and per-plan **Q-error** — ``max(est/act, act/est)``, the
  standard cardinality-estimation error measure (≥ 1.0; exactly 1.0
  means the model was right);
* **misestimate attribution** — each erring node is blamed on its own
  estimator step (base-table statistics, selection uniformity, join
  selectivity, group-by collapse, semijoin reduction) *unless* its
  error is no worse than its inputs', in which case the error is
  ``inherited`` — so the dominant misestimate points at the estimator
  rule that actually broke, not at whichever operator sat above it;
* ``calib.*`` metrics (Q-error histograms per operator kind,
  misestimate counters per source) published into a
  :class:`~repro.obs.metrics.MetricsRegistry`.

:class:`PlanAudit` complements it with plan-*choice* quality: replay
the candidate plans the optimizer family considered and report
``plan_regret`` — chosen-plan actual cost over best-replayed actual
cost (1.0 means the optimizer picked the fastest plan it had).

Neither has a document of its own: the ANALYZE form of the
``repro.explain.v1`` document carries both
(:func:`repro.obs.export.explain_document`).

Like :mod:`repro.obs.export`, this module must not import
``repro.plans`` at runtime (the plans layer imports ``repro.obs``);
plan nodes are traversed duck-typed and dispatched by class name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from repro.obs.export import PLAN_OPS

__all__ = [
    "NodeCalibration",
    "PlanCalibration",
    "CandidateReplay",
    "PlanAudit",
    "calibrate_plan",
    "q_error",
    "MISESTIMATE_THRESHOLD",
    "Q_ERROR_BUCKETS",
]

# A node is *counted* as a misestimate (calib.misestimates) once its
# Q-error reaches this factor.  2.0 is the conventional "off by 2x"
# line used in the cardinality-estimation literature.
MISESTIMATE_THRESHOLD = 2.0

# Q-errors are ratios ≥ 1, concentrated near 1 — decade buckets
# (DEFAULT_BUCKETS) would dump everything into one bin.
Q_ERROR_BUCKETS = (1.0, 1.1, 1.25, 1.5, 2.0, 4.0, 8.0, 16.0, 64.0, 256.0)

_EXACT_EPS = 1e-9


def q_error(estimated: float, actual: float) -> float:
    """``max(est/act, act/est)``, floored at one row on both sides.

    The floor keeps empty results well-defined (an estimate of 1 for
    an actual of 0 is not an error worth attributing) and matches the
    estimator's own ``max(1.0, ...)`` clamping.
    """
    est = max(float(estimated), 1.0)
    act = max(float(actual), 1.0)
    return max(est / act, act / est)


@dataclass(frozen=True)
class NodeCalibration:
    """One plan node's estimate joined with its actual execution."""

    key: tuple = field(compare=False, repr=False)
    op: str
    label: str
    estimated_rows: float
    actual_rows: int | None
    actual_elapsed: float | None
    q_error: float | None
    source: str | None
    """Attribution: ``exact`` (no error), ``inherited`` (error no
    worse than the inputs'), or the estimator step that introduced it
    (``base_table_stats`` / ``selection`` / ``join_selectivity`` /
    ``group_by_collapse`` / ``semijoin``).  ``None`` when the node
    was never executed, so no actual exists to compare against."""


@dataclass
class PlanCalibration:
    """The estimate→actual join for one executed plan.

    ``nodes`` holds one entry per *unique* structural key, children
    before parents (repeated subtrees collapse to their shared DAG
    node, exactly as the runtime executes them).
    """

    nodes: list[NodeCalibration]
    stats_epoch: int | None = None
    audit: "PlanAudit | None" = None
    """The plan-choice audit of the same run, when one was replayed."""

    def __post_init__(self):
        self._by_key = {n.key: n for n in self.nodes}

    # ------------------------------------------------------------------
    def lookup(self, key: tuple) -> NodeCalibration | None:
        """The calibration row for a structural plan key, if any."""
        return self._by_key.get(key)

    @property
    def plan_q_error(self) -> float:
        """Worst per-node Q-error (1.0 for a perfectly estimated plan)."""
        return max(
            (n.q_error for n in self.nodes if n.q_error is not None),
            default=1.0,
        )

    @property
    def mean_q_error(self) -> float:
        """Geometric mean of per-node Q-errors."""
        qs = [n.q_error for n in self.nodes if n.q_error is not None]
        if not qs:
            return 1.0
        product = 1.0
        for q in qs:
            product *= q
        return product ** (1.0 / len(qs))

    @property
    def dominant(self) -> NodeCalibration | None:
        """The node carrying the worst Q-error (None if all exact)."""
        worst = None
        for n in self.nodes:
            if n.q_error is None or n.q_error <= 1.0 + _EXACT_EPS:
                continue
            if worst is None or n.q_error > worst.q_error:
                worst = n
        return worst

    @property
    def misestimates(self) -> list[NodeCalibration]:
        """Nodes whose Q-error crosses :data:`MISESTIMATE_THRESHOLD`."""
        return [
            n for n in self.nodes
            if n.q_error is not None and n.q_error >= MISESTIMATE_THRESHOLD
        ]

    # ------------------------------------------------------------------
    def publish(self, metrics) -> None:
        """Record the ``calib.*`` metrics into a registry."""
        if metrics is None:
            return
        metrics.counter("calib.runs").inc()
        for n in self.nodes:
            if n.q_error is None:
                continue
            metrics.histogram(
                "calib.q_error", buckets=Q_ERROR_BUCKETS, operator=n.op
            ).observe(n.q_error)
            if n.q_error >= MISESTIMATE_THRESHOLD and n.source is not None:
                metrics.counter("calib.misestimates", source=n.source).inc()


# ----------------------------------------------------------------------
# The estimate→actual join
# ----------------------------------------------------------------------
def _normalize_actuals(actuals) -> dict[tuple, tuple[int, float | None]]:
    """Accept a key→(rows, elapsed) mapping or OperatorProfile rows."""
    if isinstance(actuals, Mapping):
        return dict(actuals)
    out: dict[tuple, tuple[int, float | None]] = {}
    for row in actuals:
        key = getattr(row, "node_key", None)
        if key is None:
            continue
        # An executed row beats a memo-hit row for the same key (the
        # memo hit's zero elapsed is reuse, not the operator's work).
        if key not in out or not row.memoized:
            out[key] = (row.out_rows, row.elapsed)
        # Nodes a lowering rewrite absorbed did no work of their own:
        # an exact row count, no elapsed.
        for inner, rows in row.absorbed:
            out.setdefault(inner, (rows, None))
    return out


def calibrate_plan(
    plan,
    actuals: Mapping[tuple, tuple[int, float | None]] | Iterable,
    stats_epoch: int | None = None,
) -> PlanCalibration:
    """Join a plan's per-node estimates with executed actuals.

    ``plan`` must be annotated (:func:`repro.plans.annotate.annotate`)
    so every node carries estimated stats; ``actuals`` is either a
    ``key → (rows, elapsed)`` map or the
    :class:`~repro.obs.trace.OperatorProfile` rows of a profiled run
    (:meth:`~repro.plans.profile.ExecutionProfile.traced` hands them
    out in plan-tree vocabulary).  Matching is by structural plan key — the
    identity shared by CSE and the runtime memo — so the join survives
    plan-DAG sharing: a subtree repeated in the tree collapses onto the
    one DAG node that actually ran.
    """
    actual_map = _normalize_actuals(actuals)

    nodes: list[NodeCalibration] = []
    q_by_key: dict[tuple, float] = {}
    seen: set[tuple] = set()

    # Iterative post-order (children first), mirroring lower(): a
    # node's attribution needs its children's Q-errors.
    stack = [plan]
    while stack:
        node = stack[-1]
        key = node.structural_key()
        if key in seen:
            stack.pop()
            continue
        pending = [
            c for c in node.children() if c.structural_key() not in seen
        ]
        if pending:
            stack.extend(pending)
            continue
        stack.pop()
        seen.add(key)

        kind = type(node).__name__
        spec = PLAN_OPS.get(kind)
        op = kind.lower() if spec is None else spec.op
        estimated_rows = (
            float(node.stats.cardinality) if node.stats is not None else 1.0
        )
        actual = actual_map.get(key)
        if actual is None or node.stats is None:
            q = source = None
            actual_rows = actual_elapsed = None
        else:
            actual_rows, actual_elapsed = actual
            q = q_error(estimated_rows, actual_rows)
            q_by_key[key] = q
            child_q = max(
                (
                    q_by_key.get(c.structural_key(), 1.0)
                    for c in node.children()
                ),
                default=1.0,
            )
            if q <= 1.0 + _EXACT_EPS:
                source = "exact"
            elif q <= child_q + _EXACT_EPS:
                source = "inherited"
            else:
                source = "unknown" if spec is None else spec.source
        nodes.append(
            NodeCalibration(
                key=key,
                op=op,
                label=node.label(),
                estimated_rows=estimated_rows,
                actual_rows=actual_rows,
                actual_elapsed=actual_elapsed,
                q_error=q,
                source=source,
            )
        )
    return PlanCalibration(nodes=nodes, stats_epoch=stats_epoch)


# ----------------------------------------------------------------------
# Plan-choice audit
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CandidateReplay:
    """One candidate plan replayed under the cost clock."""

    algorithm: str
    estimated_cost: float
    actual_cost: float
    chosen: bool

    def to_dict(self) -> dict:
        return {
            "algorithm": self.algorithm,
            "estimated_cost": self.estimated_cost,
            "actual_cost": self.actual_cost,
            "chosen": self.chosen,
        }


@dataclass
class PlanAudit:
    """Replayed candidates plus the regret of the optimizer's choice.

    ``plan_regret`` is chosen-plan actual cost over best-replayed
    actual cost: 1.0 means the optimizer picked the fastest plan among
    the candidates the CS/CS+/VE/VE+ family produced; 2.0 means the
    chosen plan cost twice the best one available.
    """

    candidates: list[CandidateReplay]

    @property
    def chosen(self) -> CandidateReplay:
        for c in self.candidates:
            if c.chosen:
                return c
        raise ValueError("audit has no chosen candidate")

    @property
    def best(self) -> CandidateReplay:
        return min(self.candidates, key=lambda c: c.actual_cost)

    @property
    def plan_regret(self) -> float:
        best = max(self.best.actual_cost, 1.0)
        return max(self.chosen.actual_cost, 1.0) / best

    def publish(self, metrics) -> None:
        if metrics is None:
            return
        metrics.counter("calib.plans_replayed").inc(len(self.candidates))

    def to_dict(self) -> dict:
        return {
            "candidates": [c.to_dict() for c in self.candidates],
            "plan_regret": self.plan_regret,
        }
