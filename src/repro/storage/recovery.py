"""Crash recovery: WAL replay + checkpoint restore.

The restart sequence a recovered process runs:

1. **Replay the WAL** front to back (:func:`~repro.storage.wal.replay_wal`),
   truncating at the first torn record.
2. **Pick the newest loadable checkpoint** — a checkpoint that fails
   its checksum or structural validation is *discarded* (counted on
   ``recovery.checkpoints_discarded``) and the previous one is tried;
   no checkpoint at all is a valid cold start.
3. **Rebuild the metrics registry**: restore the checkpoint's snapshot,
   then fold in — in LSN order — the per-unit metric deltas of every
   QUERY record the WAL holds *after* the checkpoint's recorded
   position (records before it are already inside the snapshot).
4. **Collect unit records** from the *whole* WAL: pre-checkpoint query
   results live only in the log, and skipping them on resume needs
   their payloads regardless of which side of the checkpoint they fall
   on.

``RecoveredState.replayed_pages`` / ``replayed_records`` count only
post-checkpoint records — the oracle's proof that recovery never
replays more work than the WAL requires.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

from repro.errors import RecoveryError
from repro.obs.metrics import MetricsRegistry, MetricsSnapshot
from repro.storage.checkpoint import CheckpointData, CheckpointManager
from repro.storage.journal import decode_unit
from repro.storage.wal import (
    WAL_PAGE,
    WAL_QUERY,
    ReplayResult,
    replay_wal,
    wal_path,
)

__all__ = ["RecoveryManager", "RecoveredState"]


@dataclass
class RecoveredState:
    """Everything :meth:`RecoveryManager.recover` reconstructed."""

    directory: str
    checkpoint: CheckpointData | None
    wal: ReplayResult
    registry: MetricsRegistry
    queries: dict[str, dict] = field(default_factory=dict)
    replayed_pages: int = 0
    replayed_records: int = 0
    checkpoints_discarded: int = 0

    @property
    def has_checkpoint(self) -> bool:
        return self.checkpoint is not None

    def seed_context(self, ctx) -> int:
        """Install the checkpoint's memoized subplan results into a
        fresh :class:`~repro.plans.runtime.ExecutionContext`; returns
        how many entries were seeded."""
        if self.checkpoint is None:
            return 0
        seeded = {}
        for entry in self.checkpoint.manifest["memo"]:
            relation = self.checkpoint.relation(entry)
            ctx.seed_memo(entry["plan"], relation)
            seeded[entry["file_id"], False] = relation
        self.checkpoint.warm_group_indexes(seeded)
        return len(seeded)


class RecoveryManager:
    """Restores a crashed checkpoint directory to a consistent state."""

    def __init__(self, directory: str):
        self.directory = directory

    def recover(self) -> RecoveredState:
        """Replay the WAL and load the newest consistent checkpoint.

        Never raises on damage that has a consistent fallback: torn WAL
        tails are truncated, corrupt checkpoints are discarded in favor
        of older ones, and an entirely empty directory recovers to a
        cold start.  A missing directory *is* an error
        (:class:`~repro.errors.RecoveryError`) — it means the caller
        pointed recovery at the wrong place.
        """
        if not os.path.isdir(self.directory):
            raise RecoveryError(
                f"recovery directory {self.directory!r} does not exist"
            )
        replay = replay_wal(wal_path(self.directory))

        manager = CheckpointManager(self.directory)
        checkpoint: CheckpointData | None = None
        discarded = 0
        for name in reversed(manager.list_checkpoints()):
            try:
                checkpoint = manager.load(name)
                break
            except RecoveryError:
                discarded += 1
        wal_position = checkpoint.wal_position if checkpoint else 0

        # Metrics: checkpoint snapshot + post-checkpoint unit deltas,
        # folded in LSN order (``later.merge(earlier)`` — counters add,
        # the later gauge value wins).
        accumulated = MetricsSnapshot(
            dict(checkpoint.manifest["metrics"]) if checkpoint else {}
        )
        queries: dict[str, dict] = {}
        replayed_pages = 0
        replayed_records = 0
        for record in replay.records:
            if record.lsn >= wal_position:
                replayed_records += 1
                if record.kind == WAL_PAGE:
                    replayed_pages += 1
            if record.kind != WAL_QUERY:
                continue
            unit = decode_unit(record.text())
            queries[unit["key"]] = unit
            if record.lsn >= wal_position and unit.get("delta"):
                accumulated = MetricsSnapshot(unit["delta"]).merge(accumulated)

        registry = MetricsRegistry()
        registry.restore(accumulated)
        if discarded:
            registry.counter("recovery.checkpoints_discarded").inc(discarded)

        return RecoveredState(
            directory=self.directory,
            checkpoint=checkpoint,
            wal=replay,
            registry=registry,
            queries=queries,
            replayed_pages=replayed_pages,
            replayed_records=replayed_records,
            checkpoints_discarded=discarded,
        )
