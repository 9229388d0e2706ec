"""Durable serialization of functional relations.

Checkpoints persist relations in two layers so that structure and bulk
data can be validated independently:

* a JSON-safe **meta** dict (variables, domains, measure dtype, row
  count) that lives in the checkpoint manifest, and
* a raw **payload** — the packed column bytes, split into checksummed
  :class:`~repro.storage.page.PageImage` frames by the checkpoint
  writer.

WAL unit records (durable per-query and per-step results) embed the
same two layers in JSON (:func:`relation_to_dict`): the meta dict and
the payload as base64 text, so every value round-trips bit for bit.
"""

from __future__ import annotations

import base64
import binascii

import numpy as np

from repro.data.domain import Domain, Variable, VariableSet
from repro.data.relation import FunctionalRelation
from repro.errors import RecoveryError

__all__ = [
    "relation_meta",
    "relation_payload",
    "relation_from_payload",
    "relation_to_dict",
    "relation_from_dict",
]


def _variable_to_dict(v: Variable) -> dict:
    labels = v.domain.labels
    return {
        "name": v.name,
        "domain": {
            "name": v.domain.name,
            "size": v.domain.size,
            "labels": list(labels) if labels is not None else None,
        },
    }


def _variable_from_dict(d: dict) -> Variable:
    dom = d["domain"]
    labels = dom["labels"]
    return Variable(
        d["name"],
        Domain(
            dom["name"],
            dom["size"],
            tuple(labels) if labels is not None else None,
        ),
    )


def relation_meta(relation: FunctionalRelation) -> dict:
    """JSON-safe structural description of a relation (no bulk data)."""
    return {
        "name": relation.name,
        "measure_name": relation.measure_name,
        "variables": [_variable_to_dict(v) for v in relation.variables],
        "ntuples": relation.ntuples,
        "dtype": str(relation.measure.dtype),
    }


def relation_payload(relation: FunctionalRelation) -> bytes:
    """Packed column bytes: each variable column in order, then measure."""
    parts = [relation.columns[n].tobytes() for n in relation.var_names]
    parts.append(relation.measure.tobytes())
    return b"".join(parts)


def relation_from_payload(meta: dict, payload: bytes) -> FunctionalRelation:
    """Rebuild a relation from its meta dict and packed payload bytes.

    Raises :class:`~repro.errors.RecoveryError` when the payload length
    does not match the meta's row count — a truncated or mismatched
    checkpoint, not a schema bug.
    """
    variables = VariableSet.of([_variable_from_dict(d) for d in meta["variables"]])
    n = int(meta["ntuples"])
    dtype = np.dtype(meta["dtype"])
    expected = 8 * len(variables) * n + dtype.itemsize * n
    if len(payload) != expected:
        raise RecoveryError(
            f"relation {meta['name']!r}: payload is {len(payload)} bytes, "
            f"expected {expected} for {n} rows"
        )
    columns: dict[str, np.ndarray] = {}
    offset = 0
    for v in variables:
        width = 8 * n
        columns[v.name] = np.frombuffer(
            payload, dtype=np.int64, count=n, offset=offset
        ).copy()
        offset += width
    measure = np.frombuffer(payload, dtype=dtype, count=n, offset=offset).copy()
    return FunctionalRelation(
        variables,
        columns,
        measure,
        name=meta["name"],
        measure_name=meta["measure_name"],
        check_fd=False,
    )


def relation_to_dict(relation: FunctionalRelation) -> dict:
    """JSON form for WAL records: meta plus the base64 payload."""
    return {
        "meta": relation_meta(relation),
        "payload": base64.b64encode(relation_payload(relation)).decode("ascii"),
    }


def relation_from_dict(d: dict) -> FunctionalRelation:
    """Inverse of :func:`relation_to_dict`, bit for bit; anything else
    raises :class:`~repro.errors.RecoveryError`."""
    try:
        payload = base64.b64decode(d["payload"], validate=True)
    except (KeyError, TypeError, binascii.Error):
        raise RecoveryError(
            "relation record is not meta plus a base64 payload"
        ) from None
    return relation_from_payload(d["meta"], payload)
