"""Exception hierarchy for the MPF query engine.

All library errors derive from :class:`MPFError` so callers can catch a
single base class at API boundaries.
"""

from __future__ import annotations


class MPFError(Exception):
    """Base class for all errors raised by this library.

    Errors may carry a ``context`` string naming the unit of work that
    failed (a BP message, a VE-cache elimination step, a junction-tree
    clique); layers attach it with :meth:`add_context` so a resource or
    storage fault deep inside a propagation surfaces as "which message
    died", not an opaque crash.
    """

    def __init__(self, *args):
        super().__init__(*args)
        self.context: str | None = None

    def add_context(self, text: str) -> "MPFError":
        """Prepend a work-unit description; returns self for re-raise."""
        self.context = text if self.context is None else f"{text}: {self.context}"
        return self

    def __str__(self) -> str:
        base = super().__str__()
        return f"[{self.context}] {base}" if self.context else base


class SchemaError(MPFError):
    """A relation, variable, or domain was used inconsistently.

    Examples: joining relations whose shared variable names refer to
    different domains, or building a relation with mismatched column
    lengths.
    """


class FunctionalDependencyError(SchemaError):
    """The defining FD ``A1...Am -> f`` of a functional relation is violated.

    Raised when a relation contains two rows with identical variable
    values but different measure values.
    """


class SemiringError(MPFError):
    """A semiring operation is undefined or misused.

    Most commonly: requesting division (needed by the update semijoin of
    Definition 6) on a semiring that does not support it.
    """


class PlanError(MPFError):
    """An evaluation plan is malformed or cannot be executed."""


class OptimizationError(MPFError):
    """The optimizer could not produce a plan for the given query."""


class WorkloadError(MPFError):
    """A workload-optimization precondition failed.

    For example, running Belief Propagation directly on a cyclic schema,
    which the paper shows double-counts measures (Figure 12).
    """


class AcyclicityError(WorkloadError):
    """A schema required to be acyclic (junction-tree form) is not."""


class QueryError(MPFError):
    """An MPF query is malformed with respect to its view."""


class ParseError(QueryError):
    """The SQL-extension parser rejected the input text."""


class CatalogError(MPFError):
    """A catalog lookup failed (unknown table or variable)."""


class StorageError(MPFError):
    """The simulated storage layer was misused or failed."""


class TransientStorageError(StorageError):
    """A page read failed in a retryable way (simulated flaky IO).

    The runtime retries these with capped exponential backoff, within
    the :class:`~repro.plans.guard.QueryGuard`'s retry budget; only
    when the budget is exhausted does the error escape to the caller.
    """


class PermanentStorageError(StorageError):
    """A page is unreadable and retrying cannot help (bad block)."""


class RecoveryError(StorageError):
    """Durable state (WAL / checkpoint) could not be restored.

    Raised when a checkpoint file fails its checksum or structural
    validation, a page image is torn, or a recovery directory is
    missing.  A torn WAL *tail* is not an error — replay truncates at
    the first invalid record, which is the expected shape of a crash
    mid-append.
    """


class OverloadError(MPFError):
    """A request was shed by the serving runtime's admission control.

    Raised (or attached to a request outcome) when a multi-tenant
    serving runtime refuses work it cannot complete within policy: the
    tenant's token bucket is empty (``reason="rate"``), its bounded
    queue is full and the request lost the priority comparison
    (``reason="queue_full"``), a queued request was evicted by a
    higher-priority arrival (``reason="evicted"``), the propagated
    deadline was already blown while the request waited in queue
    (``reason="deadline"``), or the server is draining for shutdown
    (``reason="draining"``).

    Shedding is *not* a query error: the identical request would
    succeed on an unloaded server.  It gets its own CLI exit code (10)
    so drivers can distinguish "retry later with backoff" from every
    failure family that retrying cannot help.
    """

    def __init__(self, message: str, reason: str = "overload"):
        super().__init__(message)
        self.reason = reason


class ResourceError(MPFError):
    """A query exceeded a resource bound set by its QueryGuard.

    Raised cooperatively at operator / row-batch granularity, so the
    failing query stops within one batch of crossing the limit and
    never publishes partial results to the runtime memo.
    """


class QueryTimeout(ResourceError):
    """The guard's wall-clock deadline or simulated cost budget passed."""


class MemoryLimitExceeded(ResourceError):
    """Materialized intermediates crossed the guard's hard page ceiling."""


class QueryCancelled(ResourceError):
    """The guard's cooperative cancellation token was triggered."""
