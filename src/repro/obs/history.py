"""Benchmark-history store and the perf regression gate.

``benchmarks/out/*.json`` documents (``repro.bench.v1``) are
point-in-time: each run overwrites the last, so a plan regression —
a cost-model change that silently doubles simulated page reads on the
Figure 7 workload, say — is invisible unless someone happens to diff
two checkouts by hand.  This module makes the trajectory durable:

* :func:`ingest_document` appends one run (run id, git sha, table
  rows, flattened metric scalars, and deltas vs the previous run) to
  an append-only ``BENCH_<suite>.json`` history file
  (:data:`HISTORY_SCHEMA`) kept at the repo root and committed.

* :func:`check_history` is the gate: it compares the **latest** run
  against the **baseline** (first) run — numeric cells and metric
  scalars must stay within a symmetric relative tolerance
  (``|latest - base| <= tol * max(|base|, 1.0)``), non-numeric cells
  must match exactly, and row counts may not change.  Everything these
  suites record runs on the simulated cost clock, so drift means a
  real behaviour change, not scheduler noise.

* ``python -m repro.obs.history ingest|diff|check`` is the CLI the CI
  perf-gate job runs: regenerate the benchmarks, ``ingest`` the fresh
  documents on top of the committed baselines, then ``check`` — a
  nonzero exit blocks the merge.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from typing import Iterable, Mapping

from repro.obs.export import (
    BENCH_SCHEMA,
    HISTORY_SCHEMA,
    validate_bench_document,
    validate_history_document,
)

__all__ = [
    "HISTORY_SCHEMA",
    "DEFAULT_TOLERANCE",
    "current_git_sha",
    "flatten_metrics",
    "ingest_document",
    "load_history",
    "validate_history_document",
    "history_path",
    "diff_runs",
    "check_history",
    "main",
]

# Generous for simulated-clock metrics (which are exactly reproducible
# at equal code): the cushion absorbs benign cross-version drift such
# as dict-ordering differences, while still catching the 2x page-read
# regressions the gate exists for.
DEFAULT_TOLERANCE = 0.25


def current_git_sha(repo_root: str | Path | None = None) -> str:
    """HEAD commit sha, ``REPRO_GIT_SHA`` override, or ``unknown``.

    The override exists for hermetic tests and for CI steps that know
    the sha without a work tree.
    """
    env = os.environ.get("REPRO_GIT_SHA")
    if env:
        return env
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=None if repo_root is None else str(repo_root),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def flatten_metrics(metrics_doc: Mapping) -> dict[str, float]:
    """Scalars from an embedded metrics document, one key per number.

    Counters and gauges keep their canonical key; histograms flatten
    to ``<key>.count`` and ``<key>.sum`` (bucket shapes are a catalog
    concern, not a regression signal).
    """
    flat: dict[str, float] = {}
    for key in sorted(metrics_doc.get("metrics", {})):
        entry = metrics_doc["metrics"][key]
        if entry.get("kind") == "histogram":
            flat[f"{key}.count"] = entry["count"]
            flat[f"{key}.sum"] = entry["sum"]
        else:
            flat[key] = entry["value"]
    return flat


def history_path(suite: str, history_dir: str | Path = ".") -> Path:
    return Path(history_dir) / f"BENCH_{suite}.json"


def load_history(path: str | Path) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    validate_history_document(doc)
    return doc


def ingest_document(
    doc: Mapping,
    history_dir: str | Path = ".",
    run_id: str | None = None,
    git_sha: str | None = None,
) -> Path:
    """Append one bench document as a run in its suite's history file.

    Creates ``BENCH_<suite>.json`` on first ingest (that run becomes
    the committed baseline); later ingests append, recording metric
    deltas against the immediately preceding run.  Returns the history
    file path.
    """
    validate_bench_document(doc)
    suite = doc.get("suite") or doc["name"]
    sha = git_sha or doc.get("git_sha") or current_git_sha()
    path = history_path(suite, history_dir)
    if path.exists():
        history = load_history(path)
        if history["columns"] != list(doc["columns"]):
            raise ValueError(
                f"{path}: benchmark columns changed "
                f"({history['columns']} -> {list(doc['columns'])}); "
                "delete the history file to rebaseline"
            )
    else:
        history = {
            "schema": HISTORY_SCHEMA,
            "suite": suite,
            "title": doc["title"],
            "columns": list(doc["columns"]),
            "runs": [],
        }
    metrics = flatten_metrics(doc["metrics"])
    previous = history["runs"][-1] if history["runs"] else None
    delta = None
    if previous is not None:
        delta = {
            key: metrics[key] - previous["metrics"][key]
            for key in sorted(metrics)
            if key in previous["metrics"]
        }
    history["runs"].append({
        "run_id": run_id or f"{sha[:12]}-{len(history['runs']) + 1}",
        "git_sha": sha,
        "rows": [list(r) for r in doc["rows"]],
        "metrics": metrics,
        "metrics_delta": delta,
    })
    validate_history_document(history)
    path.write_text(
        json.dumps(history, indent=2, sort_keys=True) + "\n",
        encoding="utf-8",
    )
    return path


# ----------------------------------------------------------------------
# Comparison and the regression gate
# ----------------------------------------------------------------------
def _within(latest, base, tolerance: float) -> bool:
    return abs(latest - base) <= tolerance * max(abs(base), 1.0)


def diff_runs(
    history: Mapping,
    tolerance: float = DEFAULT_TOLERANCE,
    column_tolerance: Mapping[str, float] | None = None,
) -> list[str]:
    """Regressions of the latest run against the baseline (first) run.

    Returns human-readable problem lines; empty means the gate passes.
    A single-run history trivially passes (it *is* the baseline).
    """
    column_tolerance = dict(column_tolerance or {})
    runs = history["runs"]
    if len(runs) < 2:
        return []
    base, latest = runs[0], runs[-1]
    suite = history["suite"]
    columns = history["columns"]
    problems: list[str] = []

    if len(base["rows"]) != len(latest["rows"]):
        problems.append(
            f"{suite}: row count changed "
            f"{len(base['rows'])} -> {len(latest['rows'])}"
        )
        return problems
    for i, (brow, lrow) in enumerate(zip(base["rows"], latest["rows"])):
        for col, bval, lval in zip(columns, brow, lrow):
            tol = column_tolerance.get(col, tolerance)
            numeric = isinstance(bval, (int, float)) and not isinstance(
                bval, bool
            )
            if numeric and isinstance(lval, (int, float)):
                if not _within(float(lval), float(bval), tol):
                    problems.append(
                        f"{suite}: rows[{i}].{col} drifted "
                        f"{bval!r} -> {lval!r} (tolerance {tol:.0%})"
                    )
            elif bval != lval:
                problems.append(
                    f"{suite}: rows[{i}].{col} changed {bval!r} -> {lval!r}"
                )
    for key in sorted(base["metrics"]):
        if key not in latest["metrics"]:
            problems.append(f"{suite}: metric {key!r} disappeared")
            continue
        tol = column_tolerance.get(key, tolerance)
        if not _within(latest["metrics"][key], base["metrics"][key], tol):
            problems.append(
                f"{suite}: metric {key!r} drifted "
                f"{base['metrics'][key]!r} -> {latest['metrics'][key]!r} "
                f"(tolerance {tol:.0%})"
            )
    return problems


def check_history(
    history_dir: str | Path = ".",
    suites: Iterable[str] | None = None,
    tolerance: float = DEFAULT_TOLERANCE,
    column_tolerance: Mapping[str, float] | None = None,
) -> list[str]:
    """Run the gate over every (or the named) history file(s)."""
    paths = _select_histories(history_dir, suites)
    problems: list[str] = []
    for path in paths:
        try:
            history = load_history(path)
        except (OSError, ValueError, json.JSONDecodeError) as exc:
            problems.append(f"{path}: {exc}")
            continue
        problems.extend(diff_runs(history, tolerance, column_tolerance))
    return problems


def _select_histories(
    history_dir: str | Path, suites: Iterable[str] | None
) -> list[Path]:
    if suites:
        return [history_path(s, history_dir) for s in suites]
    return sorted(Path(history_dir).glob("BENCH_*.json"))


# ----------------------------------------------------------------------
# CLI: python -m repro.obs.history {ingest,diff,check}
# ----------------------------------------------------------------------
def _cmd_ingest(args) -> int:
    out_dir = Path(args.out_dir)
    docs = []
    for path in sorted(out_dir.glob("*.json")):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if not isinstance(doc, dict) or doc.get("schema") != BENCH_SCHEMA:
            continue
        suite = doc.get("suite") or doc.get("name")
        if args.suites and suite not in args.suites:
            continue
        docs.append((path, doc))
    if not docs:
        print(f"no bench documents found under {out_dir}", file=sys.stderr)
        return 1
    for path, doc in docs:
        dest = ingest_document(doc, history_dir=args.history_dir)
        print(f"ingested {path} -> {dest}")
    return 0


def _report(problems: list[str], ok_message: str) -> int:
    for line in problems:
        print(f"REGRESSION: {line}")
    if problems:
        print(f"{len(problems)} regression(s) found")
        return 1
    print(ok_message)
    return 0


def _cmd_diff(args) -> int:
    for path in _select_histories(args.history_dir, args.suites):
        history = load_history(path)
        runs = history["runs"]
        print(
            f"{history['suite']}: {len(runs)} run(s), "
            f"baseline {runs[0]['run_id']}, latest {runs[-1]['run_id']}"
        )
        for line in diff_runs(history, args.tolerance, args.column):
            print(f"  {line}")
        if len(runs) >= 2 and runs[-1]["metrics_delta"]:
            for key, value in sorted(runs[-1]["metrics_delta"].items()):
                if value:
                    print(f"  delta {key} {value:+g}")
    return 0


def _cmd_check(args) -> int:
    problems = check_history(
        args.history_dir, args.suites, args.tolerance, args.column
    )
    return _report(problems, "benchmark history check passed")


def _column_override(text: str) -> tuple[str, float]:
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(
            f"expected column=tolerance, got {text!r}"
        )
    return name, float(value)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs.history",
        description=(
            "Append benchmark runs to BENCH_<suite>.json history files "
            "and gate the latest run against the committed baseline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--history-dir", default=".",
        help="directory holding BENCH_<suite>.json files (default: .)",
    )
    common.add_argument(
        "suites", nargs="*",
        help="suite names to act on (default: all found)",
    )

    p_ingest = sub.add_parser(
        "ingest", parents=[common],
        help="append benchmarks/out documents to their history files",
    )
    p_ingest.add_argument(
        "--out-dir", default="benchmarks/out",
        help="directory of repro.bench.v1 documents (default: benchmarks/out)",
    )
    p_ingest.set_defaults(func=_cmd_ingest)

    gate = argparse.ArgumentParser(add_help=False)
    gate.add_argument(
        "--tolerance", type=float, default=DEFAULT_TOLERANCE,
        help=(
            "relative drift allowed per numeric cell/metric "
            f"(default: {DEFAULT_TOLERANCE})"
        ),
    )
    gate.add_argument(
        "--column", action="append", type=_column_override, default=[],
        metavar="NAME=TOL",
        help="per-column (or per-metric-key) tolerance override",
    )

    p_diff = sub.add_parser(
        "diff", parents=[common, gate],
        help="show latest-vs-baseline drift without failing",
    )
    p_diff.set_defaults(func=_cmd_diff)

    p_check = sub.add_parser(
        "check", parents=[common, gate],
        help="exit nonzero if the latest run regressed past tolerance",
    )
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    if hasattr(args, "column"):
        args.column = dict(args.column)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
