"""Compare two result files, or two sets of runs of the same code.

A result file is ``{"runs": [{workload: {metric: value}}, ...]}`` as the
entry point writes it; each element of ``runs`` is one full set.  Every
end-to-end metric is judged against the bound ``BENCHMARK.json`` fixes
for it, taken as a share of side A's median; per-layer metrics have no
bound and are printed with their change only.
"""

from __future__ import annotations

import json
import statistics


def _spread(values) -> float:
    if len(values) >= 4:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return q3 - q1
    return max(values) - min(values)


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """``better`` / ``same`` / ``worse`` / ``unresolved`` for side B."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    base = statistics.median(a)
    gain = sign * (statistics.median(b) - base)
    allowed = metric["bound"] * abs(base)
    if max(_spread(a), _spread(b)) > allowed:
        # Noisier than the bound: only a clean separation counts.
        if all(sign * (y - x) > 0 for x in a for y in b):
            return "better"
        return "unresolved"
    if gain > allowed:
        return "better"
    return "worse" if gain < -allowed else "same"


def compare_sets(a_sets, b_sets, spec) -> int:
    """Print one row per (workload, metric); returns how many end-to-end
    rows are not ``same``."""
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    listed = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    differing = 0
    print(f"{'workload':14s} {'metric':34s} {'A':>12s} {'B':>12s} "
          f"{'change':>8s}  verdict")
    for workload in [w["name"] for w in spec["workloads"]]:
        for name in listed:
            a = [s[workload][name] for s in a_sets if name in s.get(workload, {})]
            b = [s[workload][name] for s in b_sets if name in s.get(workload, {})]
            if not a or not b:
                continue
            base, other = statistics.median(a), statistics.median(b)
            change = (other - base) / abs(base) if base else 0.0
            word = verdict(bounded[name], a, b) if name in bounded else "-"
            differing += word not in ("same", "-")
            print(f"{workload:14s} {name:34s} {base:12.4f} {other:12.4f} "
                  f"{change:+8.1%}  {word}")
    return differing


def compare_files(path_a, path_b, spec) -> int:
    with open(path_a) as fa, open(path_b) as fb:
        a, b = json.load(fa), json.load(fb)
    compare_sets(a["runs"], b["runs"], spec)
    return 0
