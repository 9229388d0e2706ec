"""The optimizer's output, pinned.

Every optimizer runs over a fixed corpus — the three synthetic views at
2–9 tables with and without a selection, four 10-node networks with
evidence, and the supply chain with and without declared keys — under
both cost models, and each result's plan key, ``repr(cost)``,
``plans_considered`` and ``extras`` are digested and compared against
``plan_identity.json``.  A search may change how it works, never what
it returns or how many candidates it reports.

Regenerate the golden file (only when a change is *meant* to move a
plan) with::

    PYTHONPATH=src python -m tests.optimizer.test_plan_identity
"""

from __future__ import annotations

import hashlib
import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.bayes import random_network
from repro.catalog import Catalog
from repro.cost import IOCostModel, SimpleCostModel
from repro.datagen import linear_view, multistar_view, star_view, supply_chain
from repro.optimizer import (
    CSOptimizer,
    CSPlusLinear,
    CSPlusNonlinear,
    ExhaustiveGDL,
    QuerySpec,
    VariableElimination,
)

GOLDEN = Path(__file__).with_name("plan_identity.json")

VIEWS = {"star": star_view, "multistar": multistar_view, "linear": linear_view}
MODELS = {"simple": SimpleCostModel, "io": IOCostModel}
HEURISTICS = (
    "degree", "width", "elim_cost", "degree+width", "degree+elim_cost", "random",
)
# The exhaustive search is exponential in tables and variables.
EXHAUSTIVE_MAX_TABLES = 5


def _optimizers(n_tables, table_keys=None):
    """``(label, optimizer)`` pairs for one case."""
    if table_keys is None:
        yield "cs", CSOptimizer()
        yield "cs+", CSPlusLinear()
        yield "cs+nonlinear", CSPlusNonlinear()
        if n_tables <= EXHAUSTIVE_MAX_TABLES:
            yield "exhaustive", ExhaustiveGDL()
    for heuristic in HEURISTICS:
        seed = 3 if heuristic == "random" else None
        for extended in (False, True):
            label = f"ve({heuristic}){'+' if extended else ''}"
            yield label, VariableElimination(
                heuristic, extended=extended, seed=seed, table_keys=table_keys
            )


def _network_case(seed):
    network = random_network(10, max_parents=3, seed=seed)
    catalog = Catalog()
    tables = tuple(catalog.register_all(network.to_relations()))
    names = network.variable_names
    return catalog, QuerySpec(tables, (names[0],), {names[-1]: 0})


@lru_cache(maxsize=None)
def _case(case_id):
    """``(catalog, spec, table_keys)`` for one corpus case id."""
    kind, _, rest = case_id.partition("-")
    if kind in VIEWS:
        n_tables, _, selected = rest.partition("-")
        view = VIEWS[kind](n_tables=int(n_tables), domain_size=3)
        selections = {view.chain_variables[-1]: 1} if selected == "sel" else {}
        spec = QuerySpec(view.tables, (view.chain_variables[0],), selections)
        return view.catalog, spec, None
    if kind == "bn":
        return _network_case(int(rest)) + (None,)
    chain = supply_chain(scale=0.004, seed=7)
    spec = QuerySpec(chain.tables, ("cid",))
    return chain.catalog, spec, chain.table_keys if rest == "keys" else None


CASES = (
    [
        f"{kind}-{n}-{selected}"
        for kind in sorted(VIEWS)
        for n in range(2, 10)
        for selected in ("all", "sel")
    ]
    + [f"bn-{seed}" for seed in range(4)]
    + ["supply-plain", "supply-keys"]
)


def _digest(result) -> str:
    record = "|".join((
        repr(result.plan.structural_key()),
        repr(result.cost),
        str(result.plans_considered),
        repr(sorted(result.extras.items())),
    ))
    return hashlib.sha256(record.encode()).hexdigest()[:20]


def digests(case_id) -> dict[str, str]:
    """``{"<model>/<optimizer>": digest}`` for one case."""
    catalog, spec, table_keys = _case(case_id)
    out = {}
    for model_name, model in MODELS.items():
        for label, optimizer in _optimizers(len(spec.tables), table_keys):
            result = optimizer.optimize(spec, catalog, model())
            out[f"{model_name}/{label}"] = _digest(result)
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("case_id", CASES)
def test_results_match_golden(case_id, golden):
    got = digests(case_id)
    want = golden[case_id]
    assert got.keys() == want.keys()
    moved = sorted(k for k in got if got[k] != want[k])
    assert moved == []


def test_golden_covers_the_corpus(golden):
    assert sorted(golden) == sorted(CASES)


if __name__ == "__main__":
    corpus = {case_id: digests(case_id) for case_id in CASES}
    GOLDEN.write_text(json.dumps(corpus, indent=1, sort_keys=True) + "\n")
    print(f"{sum(map(len, corpus.values()))} results in {len(corpus)} cases")
