"""The metrics registry: labeled counters, gauges, and histograms.

Three generations of ad-hoc counters grew in this codebase (`IOStats`,
guard degradation lists, fault tallies, BP/VE-cache message counts)
that neither compose nor export.
This module is the one place they all report into: a
:class:`MetricsRegistry` of named, optionally labeled instruments with
a deterministic snapshot/diff/merge algebra.

Determinism is a design constraint, not an afterthought: nothing here
reads a wall clock, instrument keys sort canonically, and
:meth:`MetricsSnapshot.to_json` is byte-stable — two identical seeded
runs must produce identical snapshots (there is a property test).  The
simulated cost clock (:meth:`IOStats.elapsed`) is the only "time"
recorded.

Instrument kinds follow the conventional trio:

* :class:`Counter` — monotonically increasing total (``inc``);
* :class:`Gauge` — last-written value (``set``/``inc``/``dec``);
* :class:`Histogram` — fixed-boundary bucket counts plus sum/count
  (``observe``); boundaries are part of the instrument identity, so
  merged snapshots never mix incompatible bucketings.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "MetricsSnapshot",
    "DEFAULT_BUCKETS",
    "metric_key",
    "base_name",
    "split_key",
]

# Decade buckets in simulated cost units: wide enough to separate a
# memo hit (≈0) from a page scan (1e3-scale) from a spilled join.
DEFAULT_BUCKETS = (
    1.0, 10.0, 100.0, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8,
)


def metric_key(name: str, labels: dict[str, str]) -> str:
    """Canonical flat key: ``name`` or ``name{k=v,...}``, labels sorted."""
    if not labels:
        return name
    inner = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
    return f"{name}{{{inner}}}"


def base_name(key: str) -> str:
    """Instrument name with any ``{label=value}`` suffix stripped."""
    brace = key.find("{")
    return key if brace < 0 else key[:brace]


def split_key(key: str) -> tuple[str, dict[str, str]]:
    """Inverse of :func:`metric_key`: ``(name, labels)`` from a flat key."""
    brace = key.find("{")
    if brace < 0:
        return key, {}
    name, inner = key[:brace], key[brace + 1 : -1]
    labels = {}
    for part in inner.split(","):
        k, _, v = part.partition("=")
        labels[k] = v
    return name, labels


class Counter:
    """Monotonically increasing total."""

    kind = "counter"

    __slots__ = ("value",)

    def __init__(self):
        self.value: float = 0

    def inc(self, amount: float = 1) -> None:
        if amount < 0:
            raise ValueError(f"counter increment must be >= 0, got {amount}")
        self.value += amount

    def dump(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Gauge:
    """Last-written value (e.g. tables cached, pages admitted)."""

    kind = "gauge"

    __slots__ = ("value",)

    def __init__(self):
        self.value: float = 0

    def set(self, value: float) -> None:
        self.value = value

    def inc(self, amount: float = 1) -> None:
        self.value += amount

    def dec(self, amount: float = 1) -> None:
        self.value -= amount

    def dump(self) -> dict:
        return {"kind": self.kind, "value": self.value}


class Histogram:
    """Fixed-boundary bucket counts with running sum and count.

    ``buckets`` are inclusive upper bounds; an implicit +inf bucket
    catches the tail.  ``dump()`` reports cumulative-style per-bucket
    counts (non-cumulative, one count per bound plus the overflow).
    """

    kind = "histogram"

    __slots__ = ("bounds", "counts", "total", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_BUCKETS):
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise ValueError(f"histogram bounds must strictly increase: {bounds}")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.total: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.total += value
        self.count += 1
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1

    def dump(self) -> dict:
        return {
            "kind": self.kind,
            "count": self.count,
            "sum": self.total,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
        }


_KINDS = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, deterministic view of a registry at one instant.

    ``values`` maps the canonical flat key to each instrument's
    ``dump()`` dict.  Snapshots form a small algebra:

    * ``b.diff(a)`` — the work *between* two snapshots: counters and
      histograms subtract (entries absent from ``a`` count from zero),
      gauges keep ``b``'s value (a gauge is a level, not a flow);
    * ``a.merge(b)`` — combine two runs: counters and histograms add,
      gauges are left-biased (``a`` wins where both set one), so
      ``b.diff(a).merge(a) == b`` holds for every kind.
    """

    values: dict

    def to_dict(self) -> dict:
        """Plain sorted dict, safe to ``json.dumps`` directly."""
        return {k: dict(self.values[k]) for k in sorted(self.values)}

    def to_json(self) -> str:
        import json

        return json.dumps(self.to_dict(), sort_keys=True)

    def get(self, name: str, default: float = 0, **labels) -> float:
        """Scalar value of a counter/gauge (``default`` when absent)."""
        entry = self.values.get(metric_key(name, labels))
        if entry is None:
            return default
        if "value" not in entry:
            raise ValueError(f"{name!r} is a {entry['kind']}, not a scalar")
        return entry["value"]

    def __eq__(self, other) -> bool:
        if not isinstance(other, MetricsSnapshot):
            return NotImplemented
        return self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash(self.to_json())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def diff(self, earlier: "MetricsSnapshot") -> "MetricsSnapshot":
        """Counters/histograms since ``earlier``; gauges from ``self``."""
        out: dict = {}
        for key, entry in self.values.items():
            before = earlier.values.get(key)
            out[key] = _entry_diff(key, entry, before)
        return MetricsSnapshot(out)

    def merge(self, other: "MetricsSnapshot") -> "MetricsSnapshot":
        """Combine counters/histograms; gauges left-biased (self wins)."""
        out: dict = {}
        for key in sorted(set(self.values) | set(other.values)):
            a, b = self.values.get(key), other.values.get(key)
            out[key] = _entry_merge(key, a, b)
        return MetricsSnapshot(out)


def _check_compatible(key: str, a: dict, b: dict) -> None:
    if a["kind"] != b["kind"]:
        raise ValueError(
            f"metric {key!r}: kind mismatch ({a['kind']} vs {b['kind']})"
        )
    if a["kind"] == "histogram" and a["bounds"] != b["bounds"]:
        raise ValueError(f"metric {key!r}: histogram bounds mismatch")


def _entry_diff(key: str, entry: dict, before: dict | None) -> dict:
    entry = dict(entry)
    if before is None or entry["kind"] == "gauge":
        return entry
    _check_compatible(key, entry, before)
    if entry["kind"] == "counter":
        entry["value"] = entry["value"] - before["value"]
    else:
        entry["count"] = entry["count"] - before["count"]
        entry["sum"] = entry["sum"] - before["sum"]
        entry["counts"] = [
            x - y for x, y in zip(entry["counts"], before["counts"])
        ]
    return entry


def _entry_merge(key: str, a: dict | None, b: dict | None) -> dict:
    if a is None:
        return dict(b)
    if b is None or a["kind"] == "gauge":
        return dict(a)
    _check_compatible(key, a, b)
    out = dict(a)
    if a["kind"] == "counter":
        out["value"] = a["value"] + b["value"]
    else:
        out["count"] = a["count"] + b["count"]
        out["sum"] = a["sum"] + b["sum"]
        out["counts"] = [x + y for x, y in zip(a["counts"], b["counts"])]
    return out


class MetricsRegistry:
    """Get-or-create registry of labeled instruments.

    ``registry.counter("bp.messages", kind="product").inc()`` — the
    (name, sorted labels) pair identifies the instrument; asking for an
    existing name with a different instrument kind is an error, so a
    metric can never silently change meaning mid-run.
    """

    def __init__(self):
        self._instruments: dict[str, Counter | Gauge | Histogram] = {}

    def __len__(self) -> int:
        return len(self._instruments)

    def _get(self, kind: str, name: str, labels: dict, **kwargs):
        key = metric_key(name, labels)
        found = self._instruments.get(key)
        if found is None:
            found = self._instruments[key] = _KINDS[kind](**kwargs)
        elif found.kind != kind:
            raise ValueError(
                f"metric {key!r} already registered as a {found.kind}, "
                f"requested as a {kind}"
            )
        return found

    def counter(self, name: str, **labels) -> Counter:
        return self._get("counter", name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get("gauge", name, labels)

    def histogram(
        self,
        name: str,
        buckets: tuple[float, ...] = DEFAULT_BUCKETS,
        **labels,
    ) -> Histogram:
        return self._get("histogram", name, labels, bounds=buckets)

    def snapshot(self) -> MetricsSnapshot:
        return MetricsSnapshot(
            {key: inst.dump() for key, inst in self._instruments.items()}
        )

    def restore(self, snapshot: "MetricsSnapshot | dict") -> None:
        """Load instrument state from a snapshot (crash recovery).

        Rebuilds each instrument at its dumped value; existing
        same-named instruments are overwritten (counters and gauges of
        the same kind keep their identity).  Together with the
        snapshot algebra (``b.diff(a).merge(a) == b``) this lets
        recovery restore a checkpoint's snapshot and fold in the
        per-unit deltas the WAL recorded after it.
        """
        values = (
            snapshot.values
            if isinstance(snapshot, MetricsSnapshot)
            else snapshot
        )
        for key, entry in values.items():
            kind = entry["kind"]
            if kind == "histogram":
                inst = Histogram(bounds=tuple(entry["bounds"]))
                inst.counts = list(entry["counts"])
                inst.total = entry["sum"]
                inst.count = entry["count"]
            elif kind in ("counter", "gauge"):
                # In place when one exists: callers on hot paths (the
                # buffer pool) hold instrument handles across calls.
                inst = self._instruments.get(key)
                if inst is None or inst.kind != kind:
                    inst = _KINDS[kind]()
                inst.value = entry["value"]
            else:
                raise ValueError(f"metric {key!r}: unknown kind {kind!r}")
            self._instruments[key] = inst

    def keys(self) -> list[str]:
        return sorted(self._instruments)
