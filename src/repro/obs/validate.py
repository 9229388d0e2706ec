"""Schema validation entry point: ``python -m repro.obs.validate``.

Validates observability JSON documents (metrics, explain, bench,
trace — each against the ``SCHEMAS`` entry its ``schema`` tag names)
read from file arguments or stdin (``-``).
With ``--text`` the inputs are instead Prometheus-style text
expositions (the CLI's ``--metrics-text`` output), checked line by line
against METRIC_CATALOG.  Every input is checked; a malformed one prints
an ``INVALID`` line and makes the exit status 1.  The CI
benchmark-smoke job runs this over ``benchmarks/out/*.json``, the CLI's
``--metrics-json``/``--metrics-text`` and ``--calibrate`` output, the
serving soak's ``--trace-json`` stream, and a committed
``BENCH_*.json`` golden.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from repro.obs.export import validate_document
from repro.obs.expo import validate_metrics_text

__all__ = ["validate_document", "main"]


def main(argv: list[str] | None = None) -> int:
    paths = list(sys.argv[1:] if argv is None else argv)
    text_mode = "--text" in paths
    if text_mode:
        paths = [p for p in paths if p != "--text"]
    if not paths:
        print(
            "usage: python -m repro.obs.validate [--text] "
            "FILE [FILE...] | -",
            file=sys.stderr,
        )
        return 2
    status = 0
    for path in paths:
        try:
            text = sys.stdin.read() if path == "-" else Path(path).read_text()
            if text_mode:
                samples = validate_metrics_text(text)
                schema = f"metrics text, {samples} samples"
            else:
                schema = validate_document(json.loads(text))
        except (OSError, ValueError) as exc:
            print(f"{path}: INVALID: {exc}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}: ok ({schema})")
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via CI
    raise SystemExit(main())
