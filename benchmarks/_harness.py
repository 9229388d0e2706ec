"""Shared reporting for the benchmark suite.

Each benchmark regenerates one paper table/figure.  Besides the
pytest-benchmark timings, every bench row (the series the paper plots)
is collected into a :class:`TableReporter` which writes an aligned text
table, a CSV, and a schema-tagged JSON bench document (the
``repro.bench.v1`` shape of :mod:`repro.obs.export`, embedding the
reporter's metrics registry) under ``benchmarks/out/`` at interpreter
exit — so ``pytest benchmarks/ --benchmark-only`` leaves the
reproduced tables/figures on disk regardless of output capturing, and
CI can validate every ``*.json`` with ``python -m repro.obs.validate``.
The JSON depends on the code alone; the gated suites' documents are
committed as ``BENCH_<suite>.json`` and compared byte for byte by
``tests/test_bench_goldens.py``.
"""

from __future__ import annotations

import atexit
import csv
import json
from pathlib import Path

OUT_DIR = Path(__file__).parent / "out"

_REPORTERS: dict[str, "TableReporter"] = {}


class TableReporter:
    """Collects rows for one experiment and flushes them at exit."""

    def __init__(self, name: str, title: str, columns: list[str]):
        self.name = name
        self.title = title
        self.columns = columns
        self.rows: list[list] = []
        self._metrics = None

    @property
    def metrics(self):
        """Lazily created registry for benchmark-local ``bench.*`` metrics."""
        if self._metrics is None:
            from repro.obs.metrics import MetricsRegistry

            self._metrics = MetricsRegistry()
        return self._metrics

    def add(self, *values) -> None:
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.name}: expected {len(self.columns)} values, got "
                f"{len(values)}"
            )
        self.rows.append(list(values))

    # ------------------------------------------------------------------
    def formatted(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                if value == 0:
                    return "0"
                if abs(value) >= 1e6 or abs(value) < 1e-3:
                    return f"{value:.4g}"
                return f"{value:,.2f}"
            return str(value)

        cells = [self.columns] + [
            [fmt(v) for v in row] for row in self.rows
        ]
        widths = [
            max(len(row[i]) for row in cells) for i in range(len(self.columns))
        ]
        lines = [self.title, "=" * len(self.title)]
        header = "  ".join(
            c.ljust(widths[i]) for i, c in enumerate(self.columns)
        )
        lines.append(header)
        lines.append("-" * len(header))
        for row in cells[1:]:
            lines.append(
                "  ".join(v.ljust(widths[i]) for i, v in enumerate(row))
            )
        return "\n".join(lines)

    def flush(self) -> None:
        if not self.rows:
            return
        OUT_DIR.mkdir(exist_ok=True)
        text_path = OUT_DIR / f"{self.name}.txt"
        text_path.write_text(self.formatted() + "\n")
        with open(OUT_DIR / f"{self.name}.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(self.columns)
            writer.writerows(self.rows)
        from repro.obs.export import bench_document

        doc = bench_document(
            self.name, self.title, self.columns, self.rows,
            metrics=self._metrics,
        )
        (OUT_DIR / f"{self.name}.json").write_text(
            json.dumps(doc, sort_keys=True, indent=2, default=float) + "\n"
        )


def reporter(name: str, title: str, columns: list[str]) -> TableReporter:
    """Get-or-create the reporter for an experiment."""
    if name not in _REPORTERS:
        _REPORTERS[name] = TableReporter(name, title, columns)
    return _REPORTERS[name]


@atexit.register
def _flush_all() -> None:  # pragma: no cover - exit hook
    for rep in _REPORTERS.values():
        rep.flush()
