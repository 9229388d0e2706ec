"""Simulated paged storage: the disk-resident substrate of the paper."""

from repro.storage.buffer import DEFAULT_POOL_PAGES, BufferPool
from repro.storage.checkpoint import CheckpointData, CheckpointManager
from repro.storage.faults import (
    CRASH_POINTS,
    DEFAULT_RETRY_POLICY,
    SITES,
    Faults,
    InjectedCrash,
    RetryPolicy,
    read_with_retry,
)
from repro.storage.heapfile import HeapFile
from repro.storage.iostats import IOStats
from repro.storage.journal import (
    decode_unit,
    encode_unit,
    reconstruct_error,
)
from repro.storage.page import (
    DEFAULT_PAGE_SIZE,
    PageGeometry,
    PageId,
    PageImage,
    page_crc,
)
from repro.storage.partition import (
    PartitionSpec,
    Sharded,
    shard_assignments,
    shard_major,
    shard_offsets,
)
from repro.storage.recovery import RecoveredState, RecoveryManager
from repro.storage.wal import (
    ReplayResult,
    WALRecord,
    WriteAheadLog,
    replay_wal,
    wal_path,
)

__all__ = [
    "BufferPool",
    "DEFAULT_POOL_PAGES",
    "HeapFile",
    "IOStats",
    "PageGeometry",
    "PageId",
    "PageImage",
    "page_crc",
    "DEFAULT_PAGE_SIZE",
    "Faults",
    "SITES",
    "CRASH_POINTS",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "read_with_retry",
    "InjectedCrash",
    "WriteAheadLog",
    "WALRecord",
    "ReplayResult",
    "replay_wal",
    "wal_path",
    "CheckpointManager",
    "CheckpointData",
    "RecoveryManager",
    "RecoveredState",
    "encode_unit",
    "decode_unit",
    "reconstruct_error",
    "PartitionSpec",
    "Sharded",
    "shard_assignments",
    "shard_major",
    "shard_offsets",
]
