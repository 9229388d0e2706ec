"""Tenant policy: rate limits, queue bounds, priorities, guard budgets.

A :class:`TenantSpec` is the serving contract one tenant runs under —
how fast it may submit (token bucket), how much may wait (bounded
queue), how it competes when the queue is full (priority), and what
each admitted query may consume (a :class:`~repro.plans.guard.QueryGuard`
budget template).  Specs are frozen: the runtime treats them as policy
data, never as mutable state (mutable state lives in the
:class:`~repro.serve.admission.AdmissionController`).

Units: every ``TenantSpec`` time quantity (``slo``, token-bucket
``rate``) is in the *runtime's clock units* — simulated cost units
under the deterministic driver, seconds under the asyncio server.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import QueryError
from repro.plans.guard import QueryGuard

__all__ = ["TenantSpec", "TokenBucket", "parse_tenant_spec"]


@dataclass(frozen=True)
class TenantSpec:
    """Admission and budget policy for one tenant.

    Parameters
    ----------
    name:
        Tenant identity; the label on every ``serve.*`` metric.
    priority:
        Shedding/dispatch priority (higher wins).  An arrival whose
        queue is full evicts the lowest-priority queued request only
        when the arrival's priority is strictly higher.
    rate / burst:
        Token-bucket admission rate: ``rate`` tokens accrue per clock
        unit up to ``burst``; each submission spends one token.
        ``rate=None`` disables rate limiting.
    slots:
        Maximum queries of this tenant executing concurrently (the
        deterministic driver is a single server, so this bounds
        dispatch eligibility; the asyncio server may overlap tenants).
    queue_depth:
        Bound on *waiting* requests.  An arrival beyond the bound is
        shed or must win the priority comparison to evict a victim.
    slo:
        Per-request latency objective in clock units, measured from
        arrival.  Queue wait is subtracted from it before execution
        (deadline propagation); a request whose SLO is already blown
        at dispatch is shed, never executed.
    slo_objective:
        Target fraction of requests that should meet the SLO (the
        denominator of the error-budget burn rate published as
        ``serve.slo_burn_rate``; see :class:`repro.obs.slo.SLOMonitor`).
    cost_budget / memory_limit_pages / retry_budget:
        The :class:`QueryGuard` template every admitted query runs
        under (see :meth:`make_guard`).
    """

    name: str
    priority: int = 0
    rate: float | None = None
    burst: float = 1.0
    slots: int = 1
    queue_depth: int = 8
    slo: float | None = None
    slo_objective: float = 0.99
    cost_budget: float | None = None
    memory_limit_pages: int | None = None
    retry_budget: int = 64

    def __post_init__(self):
        if not self.name:
            raise QueryError("tenant needs a name")
        if self.slots < 1:
            raise QueryError(
                f"tenant {self.name!r}: slots must be >= 1, got {self.slots}"
            )
        if self.queue_depth < 0:
            raise QueryError(
                f"tenant {self.name!r}: queue_depth must be >= 0, "
                f"got {self.queue_depth}"
            )
        if self.rate is not None and not (
            math.isfinite(self.rate) and self.rate > 0
        ):
            raise QueryError(
                f"tenant {self.name!r}: rate must be a finite number > 0, "
                f"got {self.rate}"
            )
        if not math.isfinite(self.burst) or (
            self.rate is not None and self.burst < 1
        ):
            raise QueryError(
                f"tenant {self.name!r}: burst must be a finite number "
                f">= 1, got {self.burst}"
            )
        if self.slo is not None and not self.slo > 0:
            raise QueryError(
                f"tenant {self.name!r}: slo must be > 0, got {self.slo}"
            )
        if not 0.0 < self.slo_objective < 1.0:
            raise QueryError(
                f"tenant {self.name!r}: slo_objective must be in (0, 1), "
                f"got {self.slo_objective}"
            )

    def make_guard(
        self,
        clock=None,
        remaining: float | None = None,
        wall: bool = False,
    ) -> QueryGuard:
        """Instantiate the guard template for one admitted request.

        ``remaining`` is the propagated deadline — the SLO minus the
        queue wait.  Under the deterministic driver (``wall=False``)
        it tightens the simulated *cost budget*, so deadline
        enforcement is reproducible; under the asyncio server
        (``wall=True``) it becomes the guard's wall-clock
        ``deadline_seconds``.
        """
        kwargs: dict = {
            "memory_limit_pages": self.memory_limit_pages,
            "retry_budget": self.retry_budget,
        }
        if clock is not None:
            kwargs["clock"] = clock
        if wall:
            kwargs["cost_budget"] = self.cost_budget
            kwargs["deadline_seconds"] = remaining
        else:
            budgets = [
                b for b in (self.cost_budget, remaining) if b is not None
            ]
            kwargs["cost_budget"] = min(budgets) if budgets else None
        return QueryGuard(**kwargs)


class TokenBucket:
    """Deterministic token-bucket rate limiter on an injectable clock.

    Tokens accrue continuously at ``rate`` per clock unit up to
    ``burst``; :meth:`try_take` spends one.  All refill arithmetic uses
    the caller-supplied ``now``, so the bucket is a pure function of
    the submission timestamps — no wall clock, no hidden state.
    """

    def __init__(self, rate: float | None, burst: float, now: float = 0.0):
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.updated = float(now)

    def try_take(self, now: float) -> bool:
        """Spend one token at time ``now``; ``False`` when dry."""
        if self.rate is None:
            return True
        elapsed = max(0.0, now - self.updated)
        self.tokens = min(self.burst, self.tokens + elapsed * self.rate)
        self.updated = max(self.updated, now)
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True
        return False


_FIELD_ALIASES = {
    "priority": ("priority", int),
    "rate": ("rate", float),
    "burst": ("burst", float),
    "slots": ("slots", int),
    "queue": ("queue_depth", int),
    "slo": ("slo", float),
    "objective": ("slo_objective", float),
    "cost": ("cost_budget", float),
    "mem": ("memory_limit_pages", int),
    "retries": ("retry_budget", int),
}


def parse_tenant_spec(text: str) -> TenantSpec:
    """Parse a CLI tenant spec: ``name[,key=value,...]``.

    Keys: ``priority``, ``rate``, ``burst``, ``slots``, ``queue``
    (queue depth), ``slo``, ``objective`` (SLO attainment target),
    ``cost`` (guard cost budget), ``mem``
    (guard page ceiling), ``retries`` (guard retry budget).  Raises
    :class:`ValueError` on malformed input so the CLI maps it to the
    usage exit code.
    """
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts or "=" in parts[0]:
        raise ValueError(
            f"tenant spec {text!r} must start with a tenant name"
        )
    kwargs: dict = {"name": parts[0]}
    for part in parts[1:]:
        key, sep, value = part.partition("=")
        if not sep:
            raise ValueError(
                f"tenant spec {text!r}: expected key=value, got {part!r}"
            )
        alias = _FIELD_ALIASES.get(key.strip())
        if alias is None:
            raise ValueError(
                f"tenant spec {text!r}: unknown key {key.strip()!r} "
                f"(known: {', '.join(sorted(_FIELD_ALIASES))})"
            )
        field_name, cast = alias
        try:
            kwargs[field_name] = cast(value)
        except ValueError:
            raise ValueError(
                f"tenant spec {text!r}: bad value {value!r} for {key!r}"
            ) from None
    try:
        return TenantSpec(**kwargs)
    except QueryError as exc:
        raise ValueError(str(exc)) from None
