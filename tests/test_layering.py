"""The import layering of ``src/repro``, pinned.

Every top-level package (or module) of ``repro`` sits in one tier of
``TIERS``; an import may only reach a lower tier.  Any other edge — up
a tier or across one — must be listed in ``ALLOWED``, or, when it exists
only for annotations, in ``TYPE_CHECKING_ONLY``.  Imports inside
functions count like module-level ones: a lazy import is still a
dependency.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"

# Lowest first.  Units in one tier may not import each other unless an
# edge is listed below.
TIERS = [
    ("errors",),
    ("semiring",),
    ("data",),
    ("algebra",),
    ("storage", "obs"),
    ("catalog",),
    ("cost",),
    ("plans",),
    ("optimizer",),
    ("query",),
    ("workload", "datagen"),
    ("engine",),
    ("bayes",),
    ("serve",),
    ("cli",),
    ("__init__", "__main__"),
]

# (importing module, imported module) edges that are not downward.
# obs and storage import each other at package level: the tracer and
# the documents carry IOStats, and recovery rebuilds a registry.
ALLOWED = {
    ("repro.obs.export", "repro.storage.iostats"),
    ("repro.obs.trace", "repro.storage.iostats"),
    ("repro.storage.recovery", "repro.obs.metrics"),
}

# Edges that exist only under ``if TYPE_CHECKING:``.
TYPE_CHECKING_ONLY = {
    ("repro.obs.trace", "repro.plans.nodes"),
}

_TIER = {unit: rank for rank, units in enumerate(TIERS) for unit in units}


def _unit(module: str) -> str:
    """The tier unit of a dotted ``repro`` module name."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else "__init__"


def _imports(tree: ast.AST):
    """Yield ``(imported module, type_checking_only)`` for every
    ``repro`` import anywhere in ``tree``, function bodies included."""

    def walk(node, type_checking):
        for child in ast.iter_child_nodes(node):
            guarded = type_checking or (
                isinstance(child, ast.If)
                and "TYPE_CHECKING" in ast.unparse(child.test)
            )
            if isinstance(child, ast.Import):
                for alias in child.names:
                    yield alias.name, guarded
            elif isinstance(child, ast.ImportFrom) and child.module:
                if child.module == "repro":
                    for alias in child.names:
                        yield f"repro.{alias.name}", guarded
                else:
                    yield child.module, guarded
            yield from walk(child, guarded)

    for module, guarded in walk(tree, False):
        if module.startswith("repro."):
            yield module, guarded


def edges(module: str, source: str):
    """``(importer, imported, type_checking_only)`` for one module's
    cross-unit imports."""
    unit = _unit(module)
    return sorted(
        (module, imported, guarded)
        for imported, guarded in set(_imports(ast.parse(source)))
        if _unit(imported) != unit
    )


def _module_name(path: Path) -> str:
    parts = path.relative_to(SRC.parent).with_suffix("").parts
    if parts[-1] == "__init__" and len(parts) > 1:
        parts = parts[:-1]
    return ".".join(parts)


@pytest.fixture(scope="module")
def found():
    """Every cross-unit import edge under ``src/repro``."""
    result = []
    for path in sorted(SRC.rglob("*.py")):
        result.extend(edges(_module_name(path), path.read_text()))
    return result


def violations(found):
    bad = []
    for importer, imported, guarded in found:
        if _TIER[_unit(imported)] < _TIER[_unit(importer)]:
            continue
        table = TYPE_CHECKING_ONLY if guarded else ALLOWED
        if (importer, imported) not in table:
            kind = "TYPE_CHECKING" if guarded else "runtime"
            bad.append(f"{importer} -> {imported} ({kind})")
    return bad


def test_every_unit_has_a_tier():
    units = {_unit(_module_name(p)) for p in SRC.rglob("*.py")}
    assert units <= set(_TIER), sorted(units - set(_TIER))


def test_no_upward_or_sideways_edge_outside_the_tables(found):
    assert violations(found) == []


def test_tables_list_only_live_edges(found):
    runtime = {(a, b) for a, b, guarded in found if not guarded}
    annotations = {(a, b) for a, b, guarded in found if guarded}
    assert ALLOWED <= runtime
    assert TYPE_CHECKING_ONLY <= annotations
    # An annotations-only edge that gains a runtime import must move.
    assert not TYPE_CHECKING_ONLY & runtime


def test_storage_imports_neither_engine_nor_plans(found):
    assert [
        (a, b) for a, b, _ in found
        if _unit(a) == "storage" and _unit(b) in ("engine", "plans")
    ] == []


@pytest.mark.parametrize("source, expected", [
    (
        "def restore():\n    from repro.engine import Database\n",
        ["repro.storage.recovery -> repro.engine (runtime)"],
    ),
    (
        "import repro.plans.serialize\n",
        ["repro.storage.recovery -> repro.plans.serialize (runtime)"],
    ),
    (
        "from typing import TYPE_CHECKING\n"
        "if TYPE_CHECKING:\n    from repro.engine import Database\n",
        ["repro.storage.recovery -> repro.engine (TYPE_CHECKING)"],
    ),
    ("from repro import errors\n", []),
    ("from repro.obs.metrics import MetricsRegistry\n", []),
])
def test_checker_sees_function_local_and_guarded_imports(source, expected):
    assert violations(edges("repro.storage.recovery", source)) == expected


def _repro_imports(source: str) -> list[str]:
    """Every module of ``repro`` (the package itself included) that
    ``source`` imports, anywhere."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            modules = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            modules = [node.module or ""]
        else:
            continue
        found += [m for m in modules
                  if m == "repro" or m.startswith("repro.")]
    return found


def test_the_oracle_imports_nothing_from_repro():
    """``tests/oracle.py`` is a dense broadcast reference like the dense
    kernels; it stays independent of them, and of the engine as a
    whole, by importing nothing from ``repro``."""
    oracle = SRC.parents[1] / "tests" / "oracle.py"
    assert _repro_imports(oracle.read_text()) == []


@pytest.mark.parametrize("source", [
    "import repro\n",
    "from repro.algebra import dense\n",
    "def f():\n    import repro.semiring.builtins\n",
])
def test_the_oracle_check_sees_every_form(source):
    assert _repro_imports(source)
