"""Write-ahead log for the simulated storage layer.

Every durable event — a page write passing through the
:class:`~repro.storage.buffer.BufferPool`, a completed batch query or
CLI statement, a committed checkpoint — is appended to a single log
file as a framed, checksummed record:

``magic (1B) | kind (1B) | length (4B) | crc32 (4B) | payload``

The LSN of a record is its byte offset in the file.  Replay walks the
file front to back verifying magic and CRC; the first invalid record
ends the scan and everything after it is discarded as a **torn tail**
— the expected residue of a crash mid-append, not an error.  A missing
or zero-length WAL replays to zero records.

Crash boundaries: an attached :class:`~repro.storage.faults.Faults`
registry is reached at ``wal.append`` (fires *mid-write*, leaving a
torn half-record on disk) and ``wal.flush`` (fires after the record is
fully durable) so the differential recovery oracle can exercise both
sides of the durability line.  Checkpoints and batches reach their
own crash points through the same registry.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.page import PageId

__all__ = [
    "WriteAheadLog",
    "WALRecord",
    "ReplayResult",
    "replay_wal",
    "wal_path",
    "WAL_PAGE",
    "WAL_CHECKPOINT",
    "WAL_QUERY",
]

WAL_MAGIC = 0xA5
WAL_PAGE = 1        # payload: <qq> file_id, page_no (accounting image)
WAL_CHECKPOINT = 2  # payload: utf-8 checkpoint file name
WAL_QUERY = 3       # payload: utf-8 JSON unit record (see storage.journal)
# Kind 4 held workload-step records; it is retired, not reused, so a
# log that still has one replays up to it as a torn tail.

_KINDS = frozenset({WAL_PAGE, WAL_CHECKPOINT, WAL_QUERY})
_HEADER = struct.Struct("<BBII")
_PAGE_PAYLOAD = struct.Struct("<qq")


def wal_path(directory: str) -> str:
    """Canonical WAL location inside a checkpoint directory."""
    return os.path.join(directory, "wal.log")


@dataclass(frozen=True)
class WALRecord:
    """One decoded log record: its kind, payload, and byte-offset LSN."""

    lsn: int
    kind: int
    payload: bytes

    def page_id(self) -> PageId:
        """Decode a :data:`WAL_PAGE` payload."""
        if self.kind != WAL_PAGE:
            raise StorageError(f"record kind {self.kind} carries no page id")
        file_id, page_no = _PAGE_PAYLOAD.unpack(self.payload)
        return PageId(file_id, page_no)

    def text(self) -> str:
        """Decode a text payload (checkpoint name / unit JSON)."""
        return self.payload.decode("utf-8")


def encode_record(kind: int, payload: bytes) -> bytes:
    if kind not in _KINDS:
        raise StorageError(f"unknown WAL record kind {kind}")
    header = _HEADER.pack(
        WAL_MAGIC, kind, len(payload), zlib.crc32(payload) & 0xFFFFFFFF
    )
    return header + payload


@dataclass(frozen=True)
class ReplayResult:
    """Outcome of a WAL scan: the valid prefix plus tail diagnostics."""

    records: tuple[WALRecord, ...]
    valid_bytes: int
    torn_tail: bool

    def of_kind(self, kind: int) -> tuple[WALRecord, ...]:
        return tuple(r for r in self.records if r.kind == kind)


def replay_wal(path: str) -> ReplayResult:
    """Scan a WAL file, returning every record before the first tear.

    Never raises on damage: a truncated header, truncated payload, bad
    magic, unknown kind, or CRC mismatch all terminate the scan and
    mark ``torn_tail`` (the crash-mid-append signature).  A missing or
    empty file yields zero records with no tear.
    """
    try:
        with open(path, "rb") as fh:
            buf = fh.read()
    except FileNotFoundError:
        return ReplayResult((), 0, False)

    records: list[WALRecord] = []
    offset = 0
    torn = False
    while offset < len(buf):
        end = offset + _HEADER.size
        if end > len(buf):
            torn = True
            break
        magic, kind, length, crc = _HEADER.unpack_from(buf, offset)
        if magic != WAL_MAGIC or kind not in _KINDS:
            torn = True
            break
        payload = bytes(buf[end:end + length])
        if len(payload) != length:
            torn = True
            break
        if zlib.crc32(payload) & 0xFFFFFFFF != crc:
            torn = True
            break
        records.append(WALRecord(offset, kind, payload))
        offset = end + length
    return ReplayResult(tuple(records), offset, torn)


class WriteAheadLog:
    """Append-only log with CRC framing and crash-point hooks.

    Parameters
    ----------
    path:
        Log file location (created on first append).
    faults:
        Optional :class:`~repro.storage.faults.Faults` registry, reached
        at every crash point of the log and of its users.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricsRegistry`; appends
        count appended bytes on ``wal.bytes``.
    """

    def __init__(self, path: str, faults=None, metrics=None):
        self.path = path
        self.faults = faults
        self.metrics = metrics
        parent = os.path.dirname(path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        self._fh = open(path, "ab")
        # ``tell()`` on an append-mode handle is 0 on some platforms
        # until the first write; seek to the end to fix the start LSN.
        self._fh.seek(0, os.SEEK_END)

    @property
    def position(self) -> int:
        """Current end-of-log byte offset (the next record's LSN)."""
        return self._fh.tell()

    def append(self, kind: int, payload: bytes) -> int:
        """Append one record and flush; returns its LSN.

        With a crash targeted at ``wal.append``, the first half of the
        record is written before dying — the torn tail replay must
        discard.  ``wal.flush`` fires after the record is durable.
        """
        record = encode_record(kind, payload)
        lsn = self.position
        if self.faults is not None:
            def torn_write():
                self._fh.write(record[: max(1, len(record) // 2)])
                self._fh.flush()
            self.faults.reach("wal.append", torn_write)
        self._fh.write(record)
        self._fh.flush()
        if self.metrics is not None:
            self.metrics.counter("wal.bytes").inc(len(record))
        if self.faults is not None:
            self.faults.reach("wal.flush")
        return lsn

    def reach(self, point: str) -> None:
        """Mark a crash point of a WAL user (a checkpoint, a batch
        query) against the attached registry."""
        if self.faults is not None:
            self.faults.reach(point)

    def log_page(self, page: PageId) -> int:
        """Record a page write from the buffer pool."""
        return self.append(WAL_PAGE, _PAGE_PAYLOAD.pack(page.file_id, page.page_no))

    def log_run(self, file_id: int, start: int, n: int) -> int:
        """Record writes of pages ``start .. start + n - 1``; returns the
        first record's LSN.

        The bytes of ``n`` :meth:`log_page` calls in one ``write`` and
        one flush.  It draws no crash points: while a WAL crash point is
        armed, callers log record by record.
        """
        lsn = self.position
        records = b"".join(
            encode_record(WAL_PAGE, _PAGE_PAYLOAD.pack(file_id, page_no))
            for page_no in range(start, start + n)
        )
        if not records:
            return lsn
        self._fh.write(records)
        self._fh.flush()
        if self.metrics is not None:
            self.metrics.counter("wal.bytes").inc(len(records))
        return lsn

    def log_checkpoint(self, checkpoint_name: str) -> int:
        """Record a committed checkpoint by file name."""
        return self.append(WAL_CHECKPOINT, checkpoint_name.encode("utf-8"))

    def log_unit(self, text: str) -> int:
        """Record a completed query unit (JSON text)."""
        return self.append(WAL_QUERY, text.encode("utf-8"))

    def replay(self) -> ReplayResult:
        """Replay this log's file (flushing pending writes first)."""
        self._fh.flush()
        return replay_wal(self.path)

    def close(self) -> None:
        if not self._fh.closed:
            self._fh.close()

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
