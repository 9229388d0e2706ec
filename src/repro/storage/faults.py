"""Deterministic fault injection and retry.

The paper's testbed assumes a disk that always answers; a production
MPF server cannot.  This module adds the two pieces the robustness
harness needs:

* :class:`Faults` — one seeded registry of injection sites.  :data:`SITES`
  names every site the engine reaches and the fault kinds it can take:
  page reads fail transiently (the first ``times`` reads of a page
  raise :class:`~repro.errors.TransientStorageError`, then it heals) or
  permanently; the durability boundaries crash the process.  Faults
  are targeted at one occurrence of a site or drawn at a seeded
  per-key rate, so a failing run is reproducible bit for bit.  A
  buffer pool hosts the registry for page reads, a write-ahead log for
  the crash points.

* :class:`RetryPolicy` / :func:`read_with_retry` — the retry loop the
  runtime wraps around every page read: transient faults are retried
  with capped exponential backoff (simulated — the backoff is charged
  to the :class:`~repro.storage.iostats.IOStats` clock, never slept),
  permanent faults propagate immediately, and a
  :class:`~repro.plans.guard.QueryGuard`'s per-query retry budget caps
  the total retries one query may consume.
"""

from __future__ import annotations

import math
import random
from collections import Counter
from dataclasses import dataclass
from numbers import Integral, Real

from repro.errors import (
    PermanentStorageError,
    StorageError,
    TransientStorageError,
)
from repro.storage.iostats import IOStats
from repro.storage.page import PageId

__all__ = [
    "SITES",
    "CRASH_POINTS",
    "Faults",
    "InjectedCrash",
    "RetryPolicy",
    "DEFAULT_RETRY_POLICY",
    "read_with_retry",
]


class InjectedCrash(BaseException):
    """A simulated process kill at a crash point.

    Deliberately *not* an :class:`~repro.errors.MPFError` — not even an
    ``Exception`` — so that no recovery-oblivious ``except MPFError`` /
    ``except Exception`` handler (batch partial-failure, BP
    ``keep_going``, retry loops) can swallow it.  A crash takes the
    whole process, exactly like ``kill -9``; only the top-level test or
    CLI boundary catches it.
    """


# Every injection site and the fault kinds it takes.  The crash points
# are listed in rough lifecycle order; the CI sweeps iterate this
# table, so a site or kind added here automatically joins the
# differential oracles.
SITES = {
    "page.read": ("transient", "permanent"),
    # mid-record: a torn half-record hits the log
    "wal.append": ("crash",),
    # after the record is durable
    "wal.flush": ("crash",),
    # before any checkpoint bytes are written
    "checkpoint.begin": ("crash",),
    # while page images are being emitted
    "checkpoint.pages": ("crash",),
    # tmp file written+synced, before the rename
    "checkpoint.commit": ("crash",),
    # between queries of a batch (and statements of `repro sql`)
    "batch.query": ("crash",),
}

CRASH_POINTS = tuple(
    site for site, kinds in SITES.items() if kinds == ("crash",)
)

_MIX = 1_000_003


def _checked(name, value, low=0, high=math.inf, count=False, forever=False):
    """The one validator of fault parameters: a finite number in
    ``[low, high]``, an integer when ``count`` — or ``math.inf`` when
    ``forever``."""
    if count:
        ok = isinstance(value, Integral) or (forever and value == math.inf)
    else:
        ok = isinstance(value, Real) and math.isfinite(value)
    if isinstance(value, bool) or not ok or not low <= value <= high:
        kind = "an integer" if count else "a finite number"
        raise StorageError(
            f"{name} must be {kind} in [{low}, {high}], got {value!r}"
        )
    return value


def _checked_kind(site: str, kind: str) -> None:
    kinds = SITES.get(site)
    if kinds is None:
        raise StorageError(
            f"unknown fault site {site!r}; registered sites: "
            f"{', '.join(SITES)}"
        )
    if kind not in kinds:
        raise StorageError(
            f"unknown {site} fault kind {kind!r}; registered kinds: "
            f"{', '.join(kinds)}"
        )


class Faults:
    """Seeded, deterministic fault registry over the :data:`SITES` table.

    Two ways to configure a site, each validated once:

    * :meth:`target` faults one occurrence: a key (a page, every page
      of a file, a reach ordinal) or the ``after``-th reach of the
      site.
    * :meth:`rate` faults each key with a probability drawn from
      ``random.Random`` seeded by ``seed`` mixed with the key —
      ``(seed·M + file_id)·M + page_no`` for a page, ``seed·M + n``
      for the ``n``-th reach of a crash point — so two registries with
      the same seed and rates fault the same keys at any worker
      count.

    ``times`` is how many consecutive attempts of a key fail
    (``math.inf``: it never heals).  A site that is neither targeted
    nor drawn is left alone — its hosts keep their bulk paths.

    The hooks: the buffer pool calls :meth:`before_read` on a disk
    read, and the write-ahead log, checkpoints and batch loop call
    :meth:`reach` at their crash points.  ``counts[(site, kind)]``
    counts the faults injected — a targeted site that never fires is a
    test bug, not a pass.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.counts: Counter[tuple[str, str]] = Counter()
        self._rates: dict[str, list[tuple[float, tuple[str, ...], float]]] = {}
        self._keyed: dict[tuple, tuple[str, float]] = {}
        # [site, after, kind, times, reaches seen]
        self._pending: list[list] = []
        self._armed: set[str] = set()
        self._attempts: dict[PageId, int] = {}
        self._reached: Counter[str] = Counter()

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------
    def target(
        self,
        site: str,
        kind: str,
        key=None,
        *,
        after: int = 0,
        times: float = 1,
    ) -> "Faults":
        """Fault one occurrence of ``site`` with ``kind``.

        ``key`` names it directly: a :class:`PageId` or a file id at
        ``page.read``, a reach ordinal at a crash point.  Otherwise it
        is the ``after``-th reach (0-based) of the site.  The
        occurrence's first ``times`` attempts fail.
        """
        _checked_kind(site, kind)
        _checked("after", after, count=True)
        _checked("times", times, 1, count=True, forever=True)
        if key is not None:
            if not isinstance(key, PageId):
                # A file id may be negative (a temporary file).
                low = -math.inf if site == "page.read" else 0
                _checked(f"{site} key", key, low, count=True)
            self._keyed[(site, key)] = (kind, times)
        elif site == "page.read":
            raise StorageError("page.read targets need a page or file key")
        else:
            self._pending.append([site, after, kind, times, 0])
        self._armed.add(site)
        return self

    def rate(
        self, site: str, kinds, p: float, *, times: float = 1
    ) -> "Faults":
        """Fault each key of ``site`` with probability ``p``.

        A drawn key takes one of ``kinds`` (a name or a tuple; the seeded
        generator picks among several).  The rates of one site share
        one roll per key, laid out in call order: with permanent then
        transient page rates, a roll below the first is permanent.
        """
        kinds = (kinds,) if isinstance(kinds, str) else tuple(kinds)
        for kind in kinds:
            _checked_kind(site, kind)
        _checked("fault rate", p, high=1.0)
        _checked("times", times, 1, count=True, forever=True)
        if p > 0.0 and kinds:
            self._rates.setdefault(site, []).append((p, kinds, times))
            self._armed.add(site)
        return self

    def target_seeded(self, sites, kind: str) -> "Faults":
        """Target the ``after``-th reach of one of ``sites``, both picked
        by ``random.Random(seed)`` (``after`` below 3)."""
        rng = random.Random(self.seed)
        site = rng.choice(list(sites))
        return self.target(site, kind, after=rng.randrange(3))

    def heal(self) -> None:
        """Clear every target and attempt history; rates stay."""
        self._keyed.clear()
        self._pending.clear()
        self._attempts.clear()
        self._armed = set(self._rates)

    def armed(self, *sites: str) -> bool:
        """Whether any of ``sites`` is targeted or drawn at all."""
        return not self._armed.isdisjoint(sites)

    # ------------------------------------------------------------------
    # The one draw
    # ------------------------------------------------------------------
    def draw(self, site: str, key=None):
        """The fault kind hitting this reach of ``site``, or ``None``.

        ``key`` identifies the occurrence (a page); crash points pass
        none and are keyed by their reach ordinal.  A page's reads are
        counted here.  Deterministic in the seed, the key and the
        configuration.
        """
        fault = self._fault(site, key)
        return None if fault is None else fault[0]

    def _fault(self, site, key):
        """:meth:`draw`, as ``(kind, attempt, times)``."""
        if site not in self._armed:
            return None
        if key is None:
            key = self._reached[site]
            self._reached[site] += 1
        self._bind(site, key)
        rule = self._keyed.get((site, key))
        if rule is None and isinstance(key, PageId):
            rule = self._keyed.get((site, key.file_id))
        if rule is None:
            rule = self._roll(site, key)
        if rule is None:
            return None
        kind, times = rule
        attempt = 0
        if isinstance(key, PageId):
            attempt = self._attempts.get(key, 0)
            self._attempts[key] = attempt + 1
        if attempt >= times:
            return None
        return self._record(site, kind), attempt, times

    def _bind(self, site, key) -> None:
        """Resolve ``after`` targets: the ``after``-th reach of a site
        binds the target to that reach's key."""
        for pending in self._pending:
            if pending[0] != site:
                continue
            seen = pending[4]
            pending[4] = seen + 1
            if seen == pending[1] and (site, key) not in self._keyed:
                self._keyed[(site, key)] = (pending[2], pending[3])

    def _roll(self, site, key):
        rates = self._rates.get(site)
        if not rates:
            return None
        mixed = self.seed
        for part in (
            (key.file_id, key.page_no) if isinstance(key, PageId) else (key,)
        ):
            mixed = mixed * _MIX + part
        rng = random.Random(mixed)
        roll = rng.random()
        bound = 0.0
        for p, kinds, times in rates:
            bound += p
            if roll < bound:
                return rng.choice(kinds), times
        return None

    def _record(self, site: str, kind: str) -> str:
        self.counts[(site, kind)] += 1
        return kind

    # ------------------------------------------------------------------
    # Hooks
    # ------------------------------------------------------------------
    def before_read(self, page: PageId) -> None:
        """Raise the injected fault for this disk read of ``page``."""
        fault = self._fault("page.read", page)
        if fault is None:
            return
        kind, attempt, times = fault
        if kind == "permanent":
            raise PermanentStorageError(
                f"permanent fault injected on page {page}"
            )
        raise TransientStorageError(
            f"transient fault injected on page {page} "
            f"(attempt {attempt + 1}/{times})"
        )

    def reach(self, point: str, torn_write=None) -> None:
        """Mark a crash point; raises :class:`InjectedCrash` when it is
        targeted here.  ``torn_write()`` runs first: the WAL passes one
        at ``wal.append`` that writes the first half of the record —
        the torn tail recovery must detect and discard."""
        if self.draw(point) is None:
            return
        if torn_write is not None:
            torn_write()
        raise InjectedCrash(
            f"injected crash at {point} (occurrence {self._reached[point]})"
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Retry policy for transient page faults.

    ``max_attempts`` bounds reads of one page (first try + retries).
    Backoff is capped exponential: the ``n``-th retry (0-based) waits
    ``min(base_delay * 2**n, max_delay)`` cost units, charged to the
    stats clock as simulated wait.
    """

    max_attempts: int = 4
    base_delay: float = 100.0
    max_delay: float = 2000.0

    def delay_for(self, retry_index: int) -> float:
        """Backoff before the ``retry_index``-th retry (0-based)."""
        return min(self.base_delay * (2.0 ** retry_index), self.max_delay)


DEFAULT_RETRY_POLICY = RetryPolicy()


def read_with_retry(pool, page: PageId, stats: IOStats, guard=None) -> None:
    """Read one page through the pool, retrying transient faults.

    ``guard`` (duck-typed :class:`~repro.plans.guard.QueryGuard`) may
    supply the retry policy and a per-query retry budget; without one,
    :data:`DEFAULT_RETRY_POLICY` applies with no overall budget.
    Backoff is charged to ``stats`` as simulated wait, never slept.
    """
    policy = DEFAULT_RETRY_POLICY
    if guard is not None and guard.retry_policy is not None:
        policy = guard.retry_policy
    attempt = 0
    while True:
        try:
            pool.read(page, stats)
            return
        except TransientStorageError:
            attempt += 1
            if attempt >= policy.max_attempts:
                raise
            if guard is not None and not guard.consume_retry():
                raise
            stats.charge_retry(policy.delay_for(attempt - 1))
