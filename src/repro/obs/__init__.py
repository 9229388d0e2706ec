"""Unified observability: metrics registry, query tracing, exporters.

The paper validates its optimizations by instrumenting a modified
PostgreSQL 8.1 and reading evaluation times and plan shapes off the
server (§8).  Our substitute is this package: one
:class:`MetricsRegistry` every layer reports into (storage, runtime,
engine, workload), a span-based :class:`QueryTracer` covering the full
query lifecycle, and structured exporters — ``EXPLAIN (FORMAT JSON)``
plan documents, flat metrics documents, and the benchmark-table schema
— all deterministic so two identical seeded runs produce byte-identical
output.  See ``docs/observability.md`` for the metric catalog and the
JSON schemas.
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    MetricsSnapshot,
)
from repro.obs.trace import (
    OperatorProfile,
    QueryTracer,
    RequestTrace,
    ServeTracer,
    Span,
    SPAN_KINDS,
    TRACE_SCHEMA,
    TraceContext,
    trace_document,
)
from repro.obs.export import (
    BENCH_SCHEMA,
    EXPLAIN_SCHEMA,
    METRIC_CATALOG,
    METRICS_SCHEMA,
    SHED_REASONS,
    bench_document,
    explain_document,
    metrics_document,
    plan_explain_dict,
    validate_bench_document,
    validate_explain_document,
    validate_metrics_document,
    validate_trace_document,
)
from repro.obs.expo import (
    metrics_text,
    parse_metrics_text,
    validate_metrics_text,
)
from repro.obs.slo import SlidingDigest, SLOMonitor, quantile
from repro.obs.calib import (
    CandidateReplay,
    NodeCalibration,
    PlanAudit,
    PlanCalibration,
    calibrate_plan,
    q_error,
)

# repro.obs.history is deliberately NOT imported here: it is a
# ``python -m repro.obs.history`` entry point, and importing it from
# the package __init__ would trigger runpy's double-import warning.
# Import it directly: ``from repro.obs.history import ...``.

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "OperatorProfile",
    "QueryTracer",
    "RequestTrace",
    "ServeTracer",
    "SlidingDigest",
    "SLOMonitor",
    "Span",
    "TraceContext",
    "BENCH_SCHEMA",
    "EXPLAIN_SCHEMA",
    "METRICS_SCHEMA",
    "METRIC_CATALOG",
    "SHED_REASONS",
    "SPAN_KINDS",
    "TRACE_SCHEMA",
    "CandidateReplay",
    "NodeCalibration",
    "PlanAudit",
    "PlanCalibration",
    "bench_document",
    "calibrate_plan",
    "explain_document",
    "metrics_document",
    "metrics_text",
    "parse_metrics_text",
    "plan_explain_dict",
    "q_error",
    "quantile",
    "trace_document",
    "validate_bench_document",
    "validate_explain_document",
    "validate_metrics_document",
    "validate_metrics_text",
    "validate_trace_document",
]
