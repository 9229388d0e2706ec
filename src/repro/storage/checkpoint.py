"""Checkpoints: atomic durable snapshots of a whole ``Database``.

A checkpoint file captures everything needed to restart without
recomputation: every base table's rows (as checksummed
:class:`~repro.storage.page.PageImage` frames), the catalog's file-id
assignments and statistics epoch, the defined MPF views and indexes,
the buffer pool's residency (so a restarted pool is warm, not cold),
the full metrics snapshot, and — for a batch's frontier — the runtime
memo's completed subplan results the batch's unrun queries read (after
its last query, none), whose plans the
:class:`~repro.plans.runtime.ExecutionContext` hands over already
serialized (this package never imports the plan codec).

File layout::

    MPFCKPT1 | manifest length (4B LE) | manifest JSON | page images...

Writes are atomic: everything goes to a ``.tmp`` sibling which is
fsynced and then ``os.replace``d into place, so a crash mid-checkpoint
leaves at most a stray temp file and the previous checkpoint intact.
The ``checkpoint.begin`` / ``checkpoint.pages`` / ``checkpoint.commit``
crash points bracket exactly those windows.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass

from repro.algebra.groupindex import DEFAULT_GROUP_INDEX_CACHE
from repro.data.serialize import relation_from_payload, relation_meta, relation_payload
from repro.errors import RecoveryError
from repro.storage.page import DEFAULT_PAGE_SIZE, PageId, PageImage

__all__ = ["CheckpointManager", "CheckpointData", "CHECKPOINT_FORMAT"]

CHECKPOINT_FORMAT = "repro.checkpoint.v2"
_MAGIC = b"MPFCKPT1"
_LEN = struct.Struct("<I")


def _chunk_payload(file_id: int, payload: bytes) -> list[PageImage]:
    """Split packed relation bytes into page-size checksummed images."""
    return [
        PageImage(
            PageId(file_id, page_no),
            payload[offset:offset + DEFAULT_PAGE_SIZE],
        )
        for page_no, offset in enumerate(
            range(0, len(payload), DEFAULT_PAGE_SIZE)
        )
    ]


@dataclass(frozen=True)
class CheckpointData:
    """One loaded, checksum-verified checkpoint."""

    name: str
    manifest: dict
    payloads: dict[int, bytes]  # file_id -> reassembled packed bytes

    @property
    def checkpoint_id(self) -> int:
        return self.manifest["checkpoint_id"]

    @property
    def wal_position(self) -> int:
        """End-of-WAL offset when this checkpoint was taken."""
        return self.manifest["wal_position"]

    def relation(self, entry: dict):
        """Rebuild one table/memo entry's relation."""
        return relation_from_payload(
            entry["meta"], self.payloads.get(entry["file_id"], b"")
        )

    def warm_group_indexes(self, relations: dict) -> None:
        """Rebuild the kernel's cached group indexes over ``relations``
        (``(file id, shard-major copy?) -> restored relation``), least
        recent first, so the cost clock charges the sorts it would have
        charged without the restart."""
        for file_id, sharded, names in self.manifest["group_indexes"]:
            relation = relations.get((file_id, sharded))
            if relation is not None:
                DEFAULT_GROUP_INDEX_CACHE.get(relation, names)


class CheckpointManager:
    """Writes and reads ``chk-NNNNNNNN.ckpt`` files in one directory.

    ``wal`` ties checkpoints into the log: the manifest records the
    WAL position at snapshot time (so recovery knows which records the
    checkpoint already covers) and a ``CHECKPOINT`` record is appended
    after a successful commit.  The ``checkpoint.*`` crash points are
    reached through the WAL's fault registry.
    """

    def __init__(self, directory: str, wal=None, metrics=None):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.wal = wal
        self.metrics = metrics
        self._next_id = self._scan_next_id()

    def _scan_next_id(self) -> int:
        highest = 0
        for name in os.listdir(self.directory):
            if name.startswith("chk-") and name.endswith(".ckpt"):
                try:
                    highest = max(highest, int(name[4:-5]))
                except ValueError:
                    continue
        return highest + 1

    def list_checkpoints(self) -> list[str]:
        """Committed checkpoint file names, oldest first."""
        return sorted(
            name
            for name in os.listdir(self.directory)
            if name.startswith("chk-") and name.endswith(".ckpt")
        )

    def latest(self) -> str | None:
        names = self.list_checkpoints()
        return names[-1] if names else None

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def checkpoint(self, db, context=None, dag=None, roots=()) -> str:
        """Snapshot ``db`` (and optionally a batch's frontier); atomic.

        Returns the committed checkpoint file name.  ``db`` is a
        :class:`~repro.engine.Database` (duck-typed: ``catalog``,
        ``pool``, ``metrics``, ``_views``).  A batch's frontier is its
        ``context``, its ``dag`` and the ``roots`` yet to run; the
        checkpoint keeps the memo entries those roots read.
        """
        if self.wal is not None:
            self.wal.reach("checkpoint.begin")

        catalog = db.catalog
        images: list[PageImage] = []
        tables = []
        # relation fingerprint -> (file id, shard-major copy?)
        owners: dict[int, tuple[int, bool]] = {}
        for name in catalog.table_names:
            relation = catalog.relation(name)
            file_id = catalog.heapfile(name).file_id
            owners[relation.fingerprint] = (file_id, False)
            if catalog.partition_spec(name) is not None:
                shards = catalog.sharded(name).relation
                owners[shards.fingerprint] = (file_id, True)
            chunks = _chunk_payload(file_id, relation_payload(relation))
            images.extend(chunks)
            tables.append({
                "name": name,
                "file_id": file_id,
                "meta": relation_meta(relation),
                "pages": len(chunks),
            })
        indexes = [
            {"table": table, "variable": variable, "file_id": index.file_id}
            for (table, variable), index in sorted(catalog._indexes.items())
        ]
        partitions = [
            {"table": table, "key": spec.key, "shards": spec.shards}
            for table, spec in sorted(catalog._partitions.items())
        ]
        views = [
            {
                "name": name,
                "tables": list(entry.view_tables),
                "multiplicative_op": entry.multiplicative_op,
            }
            for name, entry in db._views.items()
        ]

        memo = []
        if context is not None:
            entries = context.memo_entries(dag, roots)
            for idx, (plan, relation) in enumerate(entries):
                # Memo payloads live under synthetic negative file ids:
                # they are checkpoint-internal and never collide with
                # the catalog's positive heap-file ids.
                file_id = -(idx + 1)
                owners.setdefault(relation.fingerprint, (file_id, False))
                chunks = _chunk_payload(file_id, relation_payload(relation))
                images.extend(chunks)
                memo.append({
                    "plan": plan,
                    "meta": relation_meta(relation),
                    "file_id": file_id,
                    "pages": len(chunks),
                })

        checkpoint_id = self._next_id
        manifest = {
            "format": CHECKPOINT_FORMAT,
            "checkpoint_id": checkpoint_id,
            "stats_epoch": catalog.stats_epoch,
            "next_file_id": catalog._next_file_id,
            "wal_position": self.wal.position if self.wal is not None else 0,
            "tables": tables,
            "indexes": indexes,
            "partitions": partitions,
            "views": views,
            "memo": memo,
            "group_indexes": [
                [*owners[fingerprint], list(names)]
                for fingerprint, names in DEFAULT_GROUP_INDEX_CACHE.keys()
                if fingerprint in owners
            ],
            "pool": {
                "capacity_pages": db.pool.capacity_pages,
                "temp_files": db.pool.temp_files,
                "resident": [
                    [p.file_id, p.page_no] for p in db.pool.resident_pages()
                ],
            },
            "metrics": db.metrics.snapshot().to_dict(),
        }

        name = f"chk-{checkpoint_id:08d}.ckpt"
        path = os.path.join(self.directory, name)
        tmp = path + ".tmp"
        manifest_bytes = json.dumps(manifest, sort_keys=True).encode("utf-8")
        with open(tmp, "wb") as fh:
            fh.write(_MAGIC)
            fh.write(_LEN.pack(len(manifest_bytes)))
            fh.write(manifest_bytes)
            if self.wal is not None:
                self.wal.reach("checkpoint.pages")
            for image in images:
                fh.write(image.encode())
            fh.flush()
            os.fsync(fh.fileno())
        if self.wal is not None:
            self.wal.reach("checkpoint.commit")
        os.replace(tmp, path)
        self._next_id = checkpoint_id + 1

        if self.metrics is not None:
            self.metrics.counter("checkpoint.taken").inc()
        if self.wal is not None:
            self.wal.log_checkpoint(name)
        return name

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def load(self, name: str) -> CheckpointData:
        """Load and verify one checkpoint file.

        Raises :class:`~repro.errors.RecoveryError` on any structural
        or checksum failure — a bad magic, malformed manifest, torn or
        corrupted page image, or a page count that disagrees with the
        manifest.
        """
        path = os.path.join(self.directory, name)
        try:
            with open(path, "rb") as fh:
                buf = fh.read()
        except FileNotFoundError:
            raise RecoveryError(f"checkpoint {name!r} does not exist") from None

        if buf[: len(_MAGIC)] != _MAGIC:
            raise RecoveryError(f"checkpoint {name!r}: bad magic")
        offset = len(_MAGIC)
        if offset + _LEN.size > len(buf):
            raise RecoveryError(f"checkpoint {name!r}: truncated header")
        (manifest_len,) = _LEN.unpack_from(buf, offset)
        offset += _LEN.size
        manifest_bytes = buf[offset:offset + manifest_len]
        if len(manifest_bytes) != manifest_len:
            raise RecoveryError(f"checkpoint {name!r}: truncated manifest")
        offset += manifest_len
        try:
            manifest = json.loads(manifest_bytes.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise RecoveryError(
                f"checkpoint {name!r}: malformed manifest ({exc})"
            ) from None
        if manifest.get("format") != CHECKPOINT_FORMAT:
            raise RecoveryError(
                f"checkpoint {name!r}: unknown format "
                f"{manifest.get('format')!r}"
            )

        chunks: dict[int, list[tuple[int, bytes]]] = {}
        while offset < len(buf):
            image, offset = PageImage.decode(buf, offset)
            chunks.setdefault(image.page.file_id, []).append(
                (image.page.page_no, image.payload)
            )
        payloads = {
            file_id: b"".join(
                payload for _, payload in sorted(parts)
            )
            for file_id, parts in chunks.items()
        }

        for entry in list(manifest["tables"]) + list(manifest["memo"]):
            have = len(chunks.get(entry["file_id"], []))
            if have != entry["pages"]:
                label = entry.get("name") or f"memo file {entry['file_id']}"
                raise RecoveryError(
                    f"checkpoint {name!r}: {label} has {have} page images, "
                    f"manifest says {entry['pages']}"
                )
        return CheckpointData(name=name, manifest=manifest, payloads=payloads)
