"""Every catalogued signal has a reader, pinned.

No signal is emitted that nothing reads: every ``METRIC_CATALOG`` name
and every ``SPAN_KINDS`` kind must have a reader, in the way
``tests/test_layering.py`` pins the import tiers.  A reader is

* a test assertion: the metric's name (as ``name`` or a labelled
  ``name{...}`` key) is a string inside an ``assert``, or inside a
  statement binding a variable an ``assert`` of the same function
  reads.  A span kind counts only when that statement also reads a
  ``kind``;
* a benchmark column: the metric's name is a string in the code (not a
  docstring) of ``perfbench/`` or ``benchmarks/``;
* ``repro top``: the metric's quantity is a column of the
  :meth:`~repro.obs.slo.SLOMonitor.render` table (``TOP_COLUMNS``).

Mentions in docs, the catalog itself, the schema's own iteration over
it, and the synthetic registries of ``SYNTHETIC`` (which build
instruments only to test a format) do not count.
"""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

from repro.obs.export import METRIC_CATALOG, SPAN_KINDS
from repro.obs.slo import SLOMonitor

REPO = Path(__file__).resolve().parents[1]
TESTS = REPO / "tests"
BENCHES = (REPO / "perfbench", REPO / "benchmarks")

# Test modules whose registries are made up to exercise a format.
SYNTHETIC = {
    TESTS / "obs" / "test_expo.py",
    Path(__file__).resolve(),
}

# Catalog name -> its column in the `repro top` table.
TOP_COLUMNS = {
    "serve.slo_latency_p50": "LAT p50",
    "serve.slo_latency_p95": "LAT p95",
    "serve.slo_latency_p99": "LAT p99",
    "serve.slo_queue_wait_p99": "WAIT p99",
    "serve.slo_attainment": "SLO%",
    "serve.slo_burn_rate": "BURN",
}


def _strings(node) -> set[str]:
    return {
        n.value for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


def _bound(statement) -> set[str]:
    targets = getattr(statement, "targets", None) or [
        getattr(statement, "target", None)
    ]
    return {
        n.id for target in targets if target is not None
        for n in ast.walk(target) if isinstance(n, ast.Name)
    }


def asserted(source: str) -> tuple[set[str], set[str]]:
    """``(strings, kind strings)`` the assertions of ``source`` read;
    kind strings come from statements that also read a ``kind``."""
    strings: set[str] = set()
    kinds: set[str] = set()
    for func in ast.walk(ast.parse(source)):
        if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        statements = [
            s for s in ast.walk(func)
            if isinstance(s, ast.stmt) and s is not func
        ]
        checked = {
            n.id for s in statements if isinstance(s, ast.Assert)
            for n in ast.walk(s) if isinstance(n, ast.Name)
        }
        for s in statements:
            if isinstance(s, ast.Assert) or (
                isinstance(s, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and _bound(s) & checked
            ):
                strings |= _strings(s)
                if "kind" in ast.unparse(s):
                    kinds |= _strings(s)
    return strings, kinds


def code_strings(source: str) -> set[str]:
    """Every string in ``source`` bar its docstrings."""
    tree = ast.parse(source)
    for node in ast.walk(tree):
        body = getattr(node, "body", None)
        if isinstance(body, list):
            node.body = [
                s for s in body
                if not (isinstance(s, ast.Expr)
                        and isinstance(s.value, ast.Constant))
            ] or [ast.Pass()]
    return _strings(tree)


def _names(strings: set[str]) -> set[str]:
    """The metric names that strings spell, labelled keys included."""
    return {s.split("{", 1)[0] for s in strings}


def unread(metrics, kinds, test_sources, bench_sources, top_header):
    """Catalog names and span kinds without a reader, sorted."""
    by_test, by_kind_test = set(), set()
    for source in test_sources:
        strings, kind_strings = asserted(source)
        by_test |= _names(strings)
        by_kind_test |= kind_strings
    by_bench = set()
    for source in bench_sources:
        by_bench |= _names(code_strings(source))
    by_top = {
        name for name, column in TOP_COLUMNS.items() if column in top_header
    }
    read = by_test | by_bench | by_top
    return sorted(
        [name for name in metrics if name not in read]
        + [kind for kind in kinds if kind not in by_kind_test]
    )


def _sources(roots, skip=()):
    return [
        path.read_text()
        for root in roots for path in sorted(root.rglob("*.py"))
        if path.resolve() not in skip
    ]


@pytest.fixture(scope="module")
def sources():
    return (
        _sources([TESTS], SYNTHETIC),
        _sources(BENCHES),
        SLOMonitor().render().splitlines()[0],
    )


def test_every_metric_and_span_kind_has_a_reader(sources):
    assert unread(METRIC_CATALOG, SPAN_KINDS, *sources) == []


def test_top_columns_name_catalog_metrics(sources):
    assert set(TOP_COLUMNS) <= set(METRIC_CATALOG)
    header = sources[2]
    assert [c for c in TOP_COLUMNS.values() if c not in header] == []


def test_an_injected_name_without_a_reader_is_reported(sources):
    catalog = {**METRIC_CATALOG, "made.up_signal": "counter"}
    kinds = SPAN_KINDS | {"made_up_kind"}
    assert unread(catalog, kinds, *sources) == [
        "made.up_signal", "made_up_kind",
    ]


@pytest.mark.parametrize("source, reads", [
    ("def test():\n    assert snap.get('x.y') == 1\n", True),
    ("def test():\n    assert snap['x.y{tenant=a}']['value'] == 1\n", True),
    ("def test():\n    v = snap.get('x.y')\n    assert v == 1\n", True),
    ("def test():\n    reg.counter('x.y').inc()\n", False),
    ("def test():\n    v = snap.get('x.y')\n    print(v)\n", False),
    ("def test():\n    '''x.y is documented here.'''\n", False),
    ("NAMES = ['x.y']\n", False),
])
def test_checker_tells_assertions_from_mentions(source, reads):
    assert (unread({"x.y": "counter"}, (), [source], [], "") == []) is reads


@pytest.mark.parametrize("source, reads", [
    ("def test():\n    assert root['kind'] == 'queue'\n", True),
    ("def test():\n    assert 'queue' in message\n", False),
])
def test_span_kinds_need_a_kind_in_the_assertion(source, reads):
    assert (unread({}, {"queue"}, [source], [], "") == []) is reads


@pytest.mark.parametrize("source, reads", [
    ("def total(name): ...\nROWS = total('x.y')\n", True),
    ('"""Reads x.y."""\n', False),
    ("def f():\n    '''x.y'''\n", False),
])
def test_bench_columns_are_code_not_docstrings(source, reads):
    assert (unread({"x.y": "counter"}, (), [], [source], "") == []) is reads
