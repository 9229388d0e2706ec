"""Snapshot-isolated reloads: epoch-pinned catalogs with refcounts.

``reload_table`` swaps a table's relation, statistics, and heap file
under a fresh file id and advances the catalog's ``stats_epoch`` — it
never mutates the old objects.  The :class:`SnapshotManager` turns
that immutability into snapshot isolation for the serving runtime:

* :meth:`pin` hands a request a frozen
  :meth:`~repro.catalog.catalog.Catalog.snapshot_view` of the catalog
  at the current epoch (shared and refcounted per epoch, so pinning
  is O(1) after the first reader);
* a reload while readers are pinned simply creates the *next* epoch —
  in-flight readers keep planning and scanning against their pinned
  clone, untouched;
* :meth:`unpin` retires a stale epoch's clone when its last reader
  drains (``serve.snapshots_retired``), bounding memory.

Each epoch's entry also holds the serving runtime's prepared plans for
that epoch (:attr:`Snapshot.plans`): a plan lives and dies with the
statistics it was costed against, so retiring an epoch frees its plans
and no plan can outlive a reload.

With a :class:`~repro.storage.checkpoint.CheckpointManager` attached,
every reload also takes a durable checkpoint of the *new* state, so a
crash after a reload recovers to the post-reload catalog rather than
replaying into a mix of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.catalog.catalog import Catalog
from repro.obs.metrics import MetricsRegistry

__all__ = ["Snapshot", "SnapshotManager"]


@dataclass(frozen=True)
class Snapshot:
    """One pinned view: the epoch, its frozen catalog clone and the
    epoch's prepared-plan cache (shared by every reader of the epoch)."""

    epoch: int
    catalog: Catalog
    plans: dict = field(compare=False, repr=False)


class _Entry:
    __slots__ = ("catalog", "refs", "plans")

    def __init__(self, catalog: Catalog):
        self.catalog = catalog
        self.refs = 0
        self.plans: dict[tuple, dict] = {}


class SnapshotManager:
    """Refcounted per-epoch catalog snapshots for one database."""

    def __init__(self, db, metrics: MetricsRegistry | None = None,
                 checkpointer=None, tracer=None):
        self.db = db
        if metrics is None:
            # Note: an *empty* registry is falsy, so this must be an
            # explicit None check, not an `or` chain.
            metrics = getattr(db, "metrics", None)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.checkpointer = checkpointer
        # Optional ServeTracer: reloads and retirements become
        # server-level trace events (pins are per-request spans).
        self.tracer = tracer
        self._entries: dict[int, _Entry] = {}

    def _trace_event(self, name: str, **attributes) -> None:
        hook = getattr(self.tracer, "event", None)
        if hook is not None:
            hook(name, **attributes)

    # ------------------------------------------------------------------
    # Pinning
    # ------------------------------------------------------------------
    def pin(self) -> Snapshot:
        """Pin the current epoch; readers of the snapshot are isolated
        from any subsequent reload."""
        epoch = self.db.catalog.stats_epoch
        entry = self._entries.get(epoch)
        if entry is None:
            entry = self._entries[epoch] = _Entry(
                self.db.catalog.snapshot_view()
            )
        entry.refs += 1
        self._publish()
        return Snapshot(epoch=epoch, catalog=entry.catalog, plans=entry.plans)

    def unpin(self, snapshot: Snapshot) -> None:
        """Drop one reader; retire the epoch once stale and unread."""
        entry = self._entries.get(snapshot.epoch)
        if entry is None:
            return
        entry.refs -= 1
        self._retire()

    def _retire(self) -> None:
        current = self.db.catalog.stats_epoch
        stale = [
            epoch for epoch, entry in self._entries.items()
            if entry.refs <= 0 and epoch != current
        ]
        for epoch in stale:
            del self._entries[epoch]
            self._trace_event("snapshot_retire", epoch=epoch)
        if stale:
            self.metrics.counter("serve.snapshots_retired").inc(len(stale))
        self._publish()

    # ------------------------------------------------------------------
    # Reload
    # ------------------------------------------------------------------
    def reload(self, relation, name: str | None = None) -> int:
        """Reload a table without disturbing pinned readers.

        Delegates to ``Database.reload_table`` (which installs the new
        heap file under a fresh file id and advances the stats epoch),
        checkpoints the new state when a checkpointer is attached, and
        retires any stale epochs whose readers have already drained,
        with their plans.  Returns the new ``stats_epoch``.
        """
        self.db.reload_table(relation, name)
        if self.checkpointer is not None:
            self.checkpointer.checkpoint(self.db)
        self.metrics.counter("serve.reloads").inc()
        epoch = self.db.catalog.stats_epoch
        self._trace_event(
            "reload", table=name or getattr(relation, "name", None),
            epoch=epoch,
        )
        self._retire()
        return epoch

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def active(self) -> int:
        """Distinct epochs currently materialized (pinned or current)."""
        return len(self._entries)

    def readers(self, epoch: int) -> int:
        entry = self._entries.get(epoch)
        return 0 if entry is None else max(0, entry.refs)

    def cached_plans(self) -> list[tuple]:
        """The live epochs' plan-cache keys, each with its epoch last."""
        return sorted(
            key + (epoch,)
            for epoch, entry in self._entries.items()
            for key in entry.plans
        )

    def _publish(self) -> None:
        self.metrics.gauge("serve.snapshots_active").set(len(self._entries))
