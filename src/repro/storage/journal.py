"""Durable unit records and the step journal for resumable work.

A **unit** is one resumable piece of work — a batch query, a VE-cache
elimination step, a BP message, a junction-tree clique.  When a unit
completes, a JSON record of its outputs and its metrics *delta* (the
counters the unit itself incremented, captured with the snapshot
algebra) is appended to the WAL, its relations packed as in a
checkpoint (:func:`~repro.data.serialize.relation_to_dict`).  After a
crash, recovery hands the decoded records back; re-running the same
workload **skips** every recorded unit — rebinding its output tables
and merging its metric delta instead of recomputing — so the
structural counters (``vecache.steps``, ``bp.messages``,
``queries.total``, ...) end up identical to an uninterrupted run: each
unit is counted exactly once, either live or via its merged delta.

Journal bookkeeping (``checkpoint.steps_skipped``) is deliberately
counted *outside* the delta window: it describes the journaling
itself, not the unit's work.
"""

from __future__ import annotations

import json

from repro.data.serialize import relation_from_dict, relation_to_dict
from repro.errors import MPFError
from repro.storage.wal import WAL_STEP

__all__ = [
    "StepJournal",
    "encode_unit",
    "decode_unit",
    "reconstruct_error",
]


def encode_unit(
    key: str,
    status: str,
    tables=None,
    result=None,
    error=None,
    delta=None,
) -> str:
    """JSON text for one completed unit (deterministic key order)."""
    return json.dumps(
        {
            "key": key,
            "status": status,
            "tables": (
                {name: relation_to_dict(rel) for name, rel in tables.items()}
                if tables is not None
                else None
            ),
            "result": relation_to_dict(result) if result is not None else None,
            "error": (
                {"type": type(error).__name__, "message": str(error)}
                if error is not None
                else None
            ),
            "delta": delta,
        },
        sort_keys=True,
    )


def decode_unit(text: str) -> dict:
    """Inverse of :func:`encode_unit`, relations rebuilt; any other
    relation form raises :class:`~repro.errors.RecoveryError`."""
    unit = json.loads(text)
    if unit["result"] is not None:
        unit["result"] = relation_from_dict(unit["result"])
    if unit["tables"] is not None:
        unit["tables"] = {
            name: relation_from_dict(entry)
            for name, entry in unit["tables"].items()
        }
    return unit


def reconstruct_error(entry: dict) -> MPFError:
    """Rebuild a recorded error as its original exception class.

    Unknown or non-MPFError types fall back to :class:`MPFError` — the
    record stays usable even if the hierarchy evolved since it was
    written.
    """
    import repro.errors as errors_module

    cls = getattr(errors_module, entry["type"], None)
    if not (isinstance(cls, type) and issubclass(cls, MPFError)):
        cls = MPFError
    return cls(entry["message"])


class StepJournal:
    """Skips recorded workload units and records fresh ones.

    Parameters
    ----------
    wal:
        The :class:`~repro.storage.wal.WriteAheadLog` completed units
        are appended to (``None`` disables recording — every unit just
        executes).
    recovered:
        ``key -> decoded unit record`` mapping from recovery; units
        found here are skipped.
    checkpointer / checkpoint_db / checkpoint_every:
        When all are set, a full database checkpoint is taken after
        every ``checkpoint_every`` freshly executed units, so the
        ``checkpoint.*`` crash points fire inside long workloads too.
    """

    def __init__(
        self,
        wal=None,
        recovered=None,
        checkpointer=None,
        checkpoint_db=None,
        checkpoint_every: int = 0,
    ):
        self.wal = wal
        self.recovered: dict[str, dict] = dict(recovered or {})
        self.checkpointer = checkpointer
        self.checkpoint_db = checkpoint_db
        self.checkpoint_every = checkpoint_every
        self.skipped = 0
        self.recorded = 0
        self._completed = 0

    def run(self, key: str, ctx, compute) -> dict:
        """Execute (or skip) one unit; returns its produced tables.

        ``compute`` is a zero-argument closure that performs the unit's
        work — including its own structural counter increments — and
        returns a ``name -> relation`` dict of produced tables.  On a
        skip, those tables are rebound into ``ctx`` from the record and
        the recorded metrics delta is merged into the live registry.
        """
        if self.wal is not None:
            self.wal.reach("workload.step")

        record = self.recovered.get(key)
        if record is not None:
            if record["status"] == "error":
                raise reconstruct_error(record["error"])
            tables = record["tables"] or {}
            for name, relation in tables.items():
                ctx.bind(name, relation.with_name(name))
            # The record's metric delta is NOT merged here: recovery
            # already folded every post-checkpoint unit delta into the
            # restored registry (pre-checkpoint deltas live inside the
            # checkpoint's snapshot), and a same-process skip was
            # counted live.  Merging again would double-count.
            self.skipped += 1
            ctx.count("checkpoint.steps_skipped", unit="step")
            return tables

        registry = ctx.metrics
        before = registry.snapshot() if registry is not None else None
        tables = compute()
        delta = (
            registry.snapshot().diff(before).to_dict()
            if registry is not None
            else None
        )
        if self.wal is not None:
            self.wal.log_unit(
                WAL_STEP, encode_unit(key, "ok", tables=tables, delta=delta)
            )
        self.recorded += 1
        self._completed += 1
        if (
            self.checkpointer is not None
            and self.checkpoint_db is not None
            and self.checkpoint_every
            and self._completed % self.checkpoint_every == 0
        ):
            self.checkpointer.checkpoint(self.checkpoint_db, context=ctx)
        return tables
