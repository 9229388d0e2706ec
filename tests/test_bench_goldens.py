"""The gated benchmark suites reproduce their committed tables byte for byte.

``BENCH_<suite>.json`` at the repository root is an exact copy of the
``repro.bench.v1`` document its suite writes to
``benchmarks/out/<suite>.json``.  Everything these suites record runs on
the simulated cost clock, so any difference is a change in behaviour,
never timer noise.  To rebaseline after an intended change, run::

    PYTHONPATH=src python -m pytest -q --benchmark-disable \\
        -p no:cacheprovider benchmarks/bench_batch_sharing.py \\
        benchmarks/bench_fig07_linearity.py \\
        benchmarks/bench_parallel_scaling.py benchmarks/bench_serving.py

copy each ``benchmarks/out/<suite>.json`` over its ``BENCH_<suite>.json``
and say in CHANGES.md which values moved and why.
"""

from __future__ import annotations

import difflib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import BENCH_SCHEMA
from repro.obs.validate import validate_document

REPO = Path(__file__).parents[1]
OUT = REPO / "benchmarks" / "out"
SUITES = ("batch_sharing", "fig07_linearity", "parallel_scaling", "serving")
GOLDENS = [f"BENCH_{suite}.json" for suite in SUITES]


@pytest.fixture(scope="module")
def regenerated():
    """Run the four suites once, timings disabled, at the default scale."""
    # A suite that stops writing must not pass on a stale file.
    for suite in SUITES:
        (OUT / f"{suite}.json").unlink(missing_ok=True)
    env = {k: v for k, v in os.environ.items() if k != "MPF_BENCH_SCALE"}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(REPO / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "--benchmark-disable",
            "-p", "no:cacheprovider",
            *(f"benchmarks/bench_{suite}.py" for suite in SUITES),
        ],
        cwd=REPO, env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return OUT


def test_goldens_are_the_gated_suites():
    assert sorted(p.name for p in REPO.glob("BENCH_*.json")) == sorted(GOLDENS)


@pytest.mark.parametrize("suite", SUITES, ids=GOLDENS)
def test_suite_output_equals_golden(regenerated, suite):
    text = (regenerated / f"{suite}.json").read_text(encoding="utf-8")
    assert validate_document(json.loads(text)) == BENCH_SCHEMA
    golden = f"BENCH_{suite}.json"
    expected = (REPO / golden).read_text(encoding="utf-8")
    if text != expected:
        diff = difflib.unified_diff(
            expected.splitlines(keepends=True),
            text.splitlines(keepends=True),
            fromfile=golden,
            tofile=f"benchmarks/out/{suite}.json",
        )
        pytest.fail(
            f"{suite} no longer reproduces {golden}:\n" + "".join(diff),
            pytrace=False,
        )
