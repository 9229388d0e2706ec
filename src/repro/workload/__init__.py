"""MPF workload optimization (Section 6 + Appendix A)."""

from repro.workload.bp import (
    BPFailure,
    BPResult,
    BPStep,
    belief_propagation,
    bp_program_literal,
    satisfies_workload_invariant,
)
from repro.workload.graphs import (
    gyo_reduction,
    has_running_intersection,
    is_acyclic_schema,
    junction_tree_of_schema,
    maximum_weight_spanning_tree,
    relation_graph,
    variable_graph,
)
from repro.workload.junction import JunctionTree, build_junction_tree
from repro.workload.triangulate import (
    TriangulationResult,
    elimination_cliques,
    triangulate,
)
from repro.workload.vecache import VECache, build_ve_cache
from repro.workload.workload import (
    MPFWorkload,
    WorkloadQuery,
    baseline_objective,
    cache_objective,
)

__all__ = [
    "relation_graph",
    "variable_graph",
    "maximum_weight_spanning_tree",
    "has_running_intersection",
    "junction_tree_of_schema",
    "is_acyclic_schema",
    "gyo_reduction",
    "TriangulationResult",
    "triangulate",
    "elimination_cliques",
    "JunctionTree",
    "build_junction_tree",
    "BPStep",
    "BPFailure",
    "BPResult",
    "belief_propagation",
    "bp_program_literal",
    "satisfies_workload_invariant",
    "VECache",
    "build_ve_cache",
    "MPFWorkload",
    "WorkloadQuery",
    "baseline_objective",
    "cache_objective",
]
