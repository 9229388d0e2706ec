"""Durable unit records for resumable work.

A **unit** is one resumable piece of work: a batch query or a CLI
statement.  When a unit completes, a JSON record of its outcome and its
metrics *delta* (the counters the unit itself incremented, captured
with the snapshot algebra) is appended to the WAL, its relation packed
as in a checkpoint (:func:`~repro.data.serialize.relation_to_dict`).
After a crash, recovery hands the decoded records back; re-running the
same batch or statements **skips** every recorded unit, rebuilding its
outcome from the record instead of recomputing, so the structural
counters (``queries.total``, ...) end up identical to an uninterrupted
run: each unit is counted exactly once, either live or via the delta
recovery folded into the restored registry.

The skip itself is counted on ``checkpoint.steps_skipped{unit=query}``
*outside* any delta window: it describes the resume, not the unit's
work.
"""

from __future__ import annotations

import json

from repro.data.serialize import relation_from_dict, relation_to_dict
from repro.errors import MPFError

__all__ = [
    "encode_unit",
    "decode_unit",
    "reconstruct_error",
]


def encode_unit(
    key: str, status: str, result=None, error=None, delta=None
) -> str:
    """JSON text for one completed unit (deterministic key order).

    ``tables`` is always null: it held the outputs of the retired
    workload-step records and stays so that query records keep their
    bytes.
    """
    return json.dumps(
        {
            "key": key,
            "status": status,
            "tables": None,
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
    """Inverse of :func:`encode_unit`, the result rebuilt; any other
    relation form raises :class:`~repro.errors.RecoveryError`."""
    unit = json.loads(text)
    if unit["result"] is not None:
        unit["result"] = relation_from_dict(unit["result"])
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
