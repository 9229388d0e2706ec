"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — generate the supply-chain schema, define the ``invest``
  MPF view, and run the paper's Section 3 example queries under every
  evaluation strategy;
* ``sql`` — execute MPF statements (from ``-c`` or a file) against a
  generated supply-chain database, printing results and plans;
* ``serve`` — deterministic multi-tenant serving soak: admission
  control, backpressure, load shedding, and snapshot-isolated reloads
  on a virtual clock (see ``docs/serving.md``);
* ``table2`` / ``table3`` — regenerate the paper's ordering-heuristics
  tables on the Section 7.3 synthetic views;
* ``inference`` — the Section 4 Bayesian-network walkthrough.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter

from repro.engine import Database
from repro.errors import (
    CatalogError,
    MPFError,
    OptimizationError,
    OverloadError,
    PlanError,
    QueryError,
    ResourceError,
    StorageError,
    WorkloadError,
)

# Exit-code families: scripts driving the CLI can tell *why* a run
# failed without parsing stderr.  2 is reserved for usage errors
# (argparse's own convention).
EXIT_OK = 0
EXIT_ERROR = 1        # any other MPFError
EXIT_USAGE = 2
EXIT_QUERY = 3        # malformed query / parse / unknown view
EXIT_RESOURCE = 4     # timeout, memory ceiling, cancellation
EXIT_STORAGE = 5      # storage faults (retry budget exhausted, bad block)
EXIT_WORKLOAD = 6     # workload-layer precondition failures
EXIT_PLAN = 7         # planning / optimization failures
EXIT_CRASH = 8        # simulated crash (--crash-at); resume with --resume
# 9 is retired: it was an unrecoverable simulated worker fault.
EXIT_OVERLOAD = 10    # request(s) shed by serving admission control


def exit_code_for(exc: MPFError) -> int:
    """Map an error to its family's exit code (most specific first)."""
    if isinstance(exc, OverloadError):
        # Checked first: shedding means "retry later with backoff",
        # unlike every family below where retrying cannot help.
        return EXIT_OVERLOAD
    if isinstance(exc, ResourceError):
        return EXIT_RESOURCE
    if isinstance(exc, StorageError):
        return EXIT_STORAGE
    if isinstance(exc, WorkloadError):
        return EXIT_WORKLOAD
    if isinstance(exc, (PlanError, OptimizationError)):
        return EXIT_PLAN
    if isinstance(exc, (QueryError, CatalogError)):
        return EXIT_QUERY
    return EXIT_ERROR

CREATE_INVEST = """
create mpfview invest as
  (select pid, sid, wid, cid, tid,
          measure = (* contracts.price, warehouses.w_factor,
                       transporters.t_overhead, location.quantity,
                       ctdeals.ct_discount)
   from contracts, warehouses, transporters, location, ctdeals
   where contracts.pid = location.pid and
         location.wid = warehouses.wid and
         warehouses.cid = ctdeals.cid and
         ctdeals.tid = transporters.tid)
"""


def _build_database(
    scale: float, seed: int, partitions=None, **settings
) -> Database:
    """The supply-chain database with the ``invest`` view defined.

    ``settings`` are :class:`Database` keyword arguments; ``partitions``
    is ``[(table, key, shards), ...]`` as :func:`_parse_partitions`
    returns it.
    """
    from repro.datagen import supply_chain

    sc = supply_chain(scale=scale, seed=seed)
    db = Database(**settings)
    for t in sc.tables:
        db.register(sc.catalog.relation(t))
    for table, key, shards in partitions or ():
        db.catalog.partition_table(table, key, shards)
    db.execute(CREATE_INVEST)
    return db


def _usage_error(exc: Exception) -> int:
    print(str(exc), file=sys.stderr)
    return EXIT_USAGE


def _check_scale(args: argparse.Namespace) -> None:
    if not (math.isfinite(args.scale) and args.scale > 0):
        raise ValueError(
            f"--scale must be a finite number > 0, got {args.scale}"
        )


def _engine_settings(args: argparse.Namespace):
    """The data and engine flags, validated: ``(partitions, settings)``
    for :func:`_build_database`.

    Raises ``ValueError`` with a usage message, or the
    :class:`~repro.errors.StorageError` of a fault flag value the
    registry rejects.
    """
    from repro.storage import BufferPool

    _check_scale(args)
    if args.workers < 1:
        raise ValueError(f"--workers must be >= 1, got {args.workers}")
    return _parse_partitions(args.partition), {
        "workers": args.workers,
        "pool": BufferPool(faults=_faults_from_args(args)),
    }


def _parse_partitions(specs):
    """Parse repeatable ``--partition TABLE=KEY:N`` flags.

    Returns ``[(table, key, shards), ...]``; raises ``ValueError`` with
    a usage message on a malformed spec.
    """
    parsed = []
    for spec in specs or ():
        table, eq, rest = spec.partition("=")
        key, colon, shards = rest.partition(":")
        if not (eq and colon and table and key):
            raise ValueError(
                f"--partition expects TABLE=KEY:N, got {spec!r}"
            )
        try:
            count = int(shards)
        except ValueError:
            raise ValueError(
                f"--partition expects an integer shard count, got {spec!r}"
            ) from None
        if count < 1:
            raise ValueError(
                f"--partition shard count must be >= 1, got {spec!r}"
            )
        parsed.append((table, key, count))
    return parsed


# ----------------------------------------------------------------------
# Commands
# ----------------------------------------------------------------------
def cmd_demo(args: argparse.Namespace) -> int:
    try:
        _check_scale(args)
    except ValueError as exc:
        return _usage_error(exc)
    db = _build_database(args.scale, args.seed)
    print(f"supply chain @ scale {args.scale}; view `invest` defined\n")
    queries = [
        ("minimum investment per part",
         "select pid, min(inv) from invest group by pid"),
        ("total investment per warehouse",
         "select wid, sum(inv) from invest group by wid"),
        ("contractor exposure to transporter 1",
         "select cid, sum(inv) from invest where tid = 1 group by cid"),
    ]
    for title, sql in queries:
        print(f"-- {title}")
        print(f"   {sql}")
        report = db.execute(sql, strategy=args.strategy)
        rows = list(report.result.iter_rows())
        for row in rows[:5]:
            print(f"   {row[0]:>6} -> {row[1]:,.2f}")
        if len(rows) > 5:
            print(f"   ... {len(rows) - 5} more rows")
        opt = report.optimization
        print(
            f"   [{opt.algorithm}: est {opt.cost:.4g}, "
            f"{opt.plans_considered} plans, sim elapsed "
            f"{report.exec_stats.elapsed():.4g}]\n"
        )
    print("-- strategy comparison: select cid, sum(inv) ... group by cid")
    for strategy in ("cs", "cs+", "cs+nonlinear", "ve", "ve+"):
        report = db.execute(
            "select cid, sum(inv) from invest group by cid",
            strategy=strategy,
        )
        opt = report.optimization
        print(
            f"   {opt.algorithm:16s} est={opt.cost:12.4g} "
            f"sim={report.exec_stats.elapsed():12.4g}"
        )
    return 0


def _guard_limits(args: argparse.Namespace) -> dict | None:
    """The resource flags as :class:`~repro.plans.guard.QueryGuard`
    arguments, or None when all are unset; ``ValueError`` on a value
    below zero or NaN."""
    limits = {
        "deadline_seconds": args.timeout,
        "cost_budget": args.cost_budget,
        "memory_limit_pages": args.memory_limit,
    }
    flags = ("--timeout", "--cost-budget", "--memory-limit")
    for flag, value in zip(flags, limits.values()):
        if value is not None and not value >= 0:
            raise ValueError(f"{flag} must be >= 0, got {value}")
    if all(value is None for value in limits.values()):
        return None
    return limits


def _faults_from_args(args: argparse.Namespace):
    """One seeded registry from ``sql``'s fault flags —
    ``--fault-*-rate`` and ``--crash-at POINT[:N]`` / ``seeded`` — or
    ``None`` when no flag asks for a fault.  The registry rejects
    unknown points, bad rates and negative ordinals."""
    if args.cmd != "sql":
        return None
    from repro.storage.faults import CRASH_POINTS, SITES, Faults

    faults = Faults(seed=args.seed)
    faults.rate("page.read", "permanent", args.fault_permanent_rate,
                times=math.inf)
    faults.rate("page.read", "transient", args.fault_transient_rate)
    if args.crash_at == "seeded":
        faults.target_seeded(CRASH_POINTS, "crash")
    elif args.crash_at:
        point, _, after = args.crash_at.partition(":")
        if point not in CRASH_POINTS:
            raise StorageError(
                f"unknown crash point {point!r}; registered points: "
                f"{', '.join(CRASH_POINTS)}"
            )
        faults.target(point, "crash", after=int(after) if after else 0)
    return faults if faults.armed(*SITES) else None


def cmd_sql(args: argparse.Namespace) -> int:
    if args.resume and not args.checkpoint_dir:
        print("--resume requires --checkpoint-dir", file=sys.stderr)
        return EXIT_USAGE
    try:
        partitions, settings = _engine_settings(args)
        limits = _guard_limits(args)
        for flag, value in (("--limit", args.limit),
                            ("--audit-max-tables", args.audit_max_tables)):
            if value < 0:
                raise ValueError(f"{flag} must be >= 0, got {value}")
    except (ValueError, StorageError) as exc:
        return _usage_error(exc)

    wal = checkpointer = None
    recovered: dict[str, dict] = {}
    if args.resume:
        from repro.storage import RecoveryManager

        state = RecoveryManager(args.checkpoint_dir).recover()
        recovered = dict(state.queries)
        if state.has_checkpoint:
            db = Database.restore(state, **settings)
            print(
                f"-- resumed from {state.checkpoint.name}: "
                f"{len(recovered)} recorded statement(s), "
                f"{state.replayed_records} WAL record(s) replayed"
            )
        else:
            # Cold start: no checkpoint committed before the crash.
            # Rebuild the base tables; the WAL's unit records still
            # let recorded statements skip execution.
            db = _build_database(
                args.scale, args.seed, partitions,
                metrics=state.registry, **settings,
            )
            print(
                f"-- no checkpoint; rebuilt base tables, "
                f"{len(recovered)} recorded statement(s) on the WAL"
            )
    else:
        db = _build_database(args.scale, args.seed, partitions, **settings)
    faults = db.pool.faults
    if args.checkpoint_dir:
        from repro.storage import CheckpointManager, WriteAheadLog, wal_path

        wal = WriteAheadLog(
            wal_path(args.checkpoint_dir), faults=faults, metrics=db.metrics
        )
        db.pool.wal = wal
        checkpointer = CheckpointManager(
            args.checkpoint_dir, wal=wal, metrics=db.metrics
        )

    guard = db.make_guard(**limits) if limits else None
    statements: list[str] = []
    if args.command:
        statements.extend(args.command)
    if args.file:
        with open(args.file) as fh:
            text = fh.read()
        statements.extend(
            s.strip() for s in text.split(";") if s.strip()
        )
    if not statements:
        print(
            "no statements; pass -c 'select ...' (repeatable) or -f file.sql",
            file=sys.stderr,
        )
        return EXIT_USAGE
    trace_entries: list[dict] = []
    for i, sql in enumerate(statements):
        key = f"stmt:{i}:{sql}"
        print(f"mpf> {sql}")

        record = recovered.get(key)
        if record is not None:
            outcome = _replay_recorded_statement(
                db, sql, record, args, guard
            )
            if isinstance(outcome, int):
                return outcome
            continue

        if faults is not None:
            faults.reach("batch.query")
        before = db.metrics.snapshot() if wal is not None else None
        try:
            outcome, trace = _run_statement(db, sql, args, guard)
        except MPFError as exc:
            db.record_query_unit(wal, key, before, error=exc)
            print(f"error: {exc}", file=sys.stderr)
            return exit_code_for(exc)
        if args.trace_json and trace is not None:
            trace_entries.append({
                "request_id": f"stmt-{i:04d}",
                "tenant": None,
                "stats_epoch": db.catalog.stats_epoch,
                "status": "ok",
                "reason": None,
                "root": trace.to_dict(),
            })
        if isinstance(outcome, str):
            db.record_query_unit(wal, key, before)
            if checkpointer is not None:
                checkpointer.checkpoint(db)
            print(f"view {outcome!r} created\n")
            continue
        db.record_query_unit(wal, key, before, result=outcome.result)
        if checkpointer is not None:
            checkpointer.checkpoint(db)
        print(outcome.result.head(args.limit))
        if args.explain:
            print(outcome.plan_text)
        if args.explain_json or args.calibrate:
            print(json.dumps(outcome.to_explain_dict(), sort_keys=True))
        print(f"[{outcome.optimization.algorithm}; "
              f"{outcome.result.ntuples} rows]\n")
    if args.trace_json:
        from repro.obs.export import trace_document

        # One repro.trace.v1 document covering every traced statement
        # (printed before --metrics-json, which stays the last line).
        print(json.dumps(
            trace_document(trace_entries, name="cli.sql"), sort_keys=True
        ))
    if args.metrics_text:
        _write_metrics_text(db, args.metrics_text)
    if args.metrics_json:
        # Last line of stdout: one schema-tagged metrics document for
        # the whole session (pipe into `python -m repro.obs.validate -`).
        print(json.dumps(db.metrics_document(name="cli.sql"),
                         sort_keys=True))
    return 0


def _run_statement(db, sql, args, guard):
    """Run one statement: ``(outcome, trace)``.

    Under ``--calibrate`` a select runs as EXPLAIN ANALYZE
    (:meth:`Database.explain_analyze`, plan-choice audit included);
    every other statement through :meth:`Database.execute`.  ``trace``
    is the select's lifecycle span tree, when one was recorded.
    """
    from repro.obs.trace import QueryTracer
    from repro.query.parser import SelectStatement, parse_statement

    if args.calibrate and isinstance(parse_statement(sql), SelectStatement):
        report = db.explain_analyze(
            sql,
            strategy=args.strategy,
            guard=guard,
            audit_plans=True,
            audit_max_tables=args.audit_max_tables,
        )
        return report, report.profile.trace
    tracer = QueryTracer() if args.trace_json else None
    outcome = db.execute(
        sql, strategy=args.strategy, guard=guard, tracer=tracer
    )
    if tracer is None or isinstance(outcome, str):
        return outcome, None
    return outcome, tracer.finish()


def _replay_recorded_statement(db, sql, record, args, guard):
    """Serve one recovered statement from its durable record.

    Returns an exit code (``int``) to abort with, or ``None`` when the
    statement was served.  Recorded view creations re-execute —
    restoring from a checkpoint taken *after* the view was defined
    makes that a no-op rejected as "already in use", which is exactly
    the recovered outcome.
    """
    exc = db.replay_query_unit(record)
    if exc is not None:
        print(f"error: {exc} [recovered]", file=sys.stderr)
        return exit_code_for(exc)
    if record.get("result") is None:
        # A view definition: idempotently re-apply.
        try:
            db.execute(sql, strategy=args.strategy, guard=guard)
        except MPFError as exc:
            if "already in use" not in str(exc):
                print(f"error: {exc}", file=sys.stderr)
                return exit_code_for(exc)
        print("view created [recovered]\n")
        return None
    result = record["result"]
    print(result.head(args.limit))
    print(f"[recovered; {result.ntuples} rows]\n")
    return None


def _parse_reloads(specs):
    """Parse repeatable ``--reload-at TABLE@TIME`` flags.

    Returns ``[(time, table), ...]``; raises ``ValueError`` with a
    usage message on a malformed spec.
    """
    parsed = []
    for spec in specs or ():
        table, sep, at = spec.partition("@")
        if not sep or not table.strip():
            raise ValueError(
                f"--reload-at expects TABLE@TIME, got {spec!r}"
            )
        try:
            when = float(at)
        except ValueError:
            when = math.nan
        if not math.isfinite(when):
            raise ValueError(
                f"--reload-at expects a finite numeric time, got {spec!r}"
            )
        parsed.append((when, table.strip()))
    return parsed


# Default tenant mix for `repro serve`: a high-priority tenant with a
# latency SLO and an unlimited-rate bulk tenant that soaks up queue
# room — enough contention at the default --arrival-gap to exercise
# backpressure, eviction, and deadline shedding in one soak.
_DEFAULT_TENANTS = (
    "gold,priority=2,queue=8,slo=2e6",
    "bulk,queue=4,burst=4",
)

_SERVE_GROUP_VARS = ("pid", "sid", "wid", "cid", "tid")


def _serve_soak(args: argparse.Namespace, tracer=None):
    """Shared `serve`/`top` soak: build, generate, run.

    Returns ``(db, runtime, report, tenants)``; on a usage error,
    prints the message and returns the exit code instead.
    """
    import numpy as np

    from repro.datagen import supply_chain
    from repro.serve import (
        ServeRequest,
        ServingRuntime,
        VirtualClock,
        parse_tenant_spec,
    )

    try:
        partitions, settings = _engine_settings(args)
        if args.mix < 1:
            raise ValueError(f"--mix must be >= 1, got {args.mix}")
        if not (math.isfinite(args.arrival_gap) and args.arrival_gap >= 0):
            raise ValueError(
                f"--arrival-gap must be a finite number >= 0, "
                f"got {args.arrival_gap}"
            )
        tenants = [
            parse_tenant_spec(text)
            for text in (args.tenant or _DEFAULT_TENANTS)
        ]
        reload_specs = _parse_reloads(args.reload_at)
    except (ValueError, StorageError) as exc:
        return _usage_error(exc)

    clock = VirtualClock()
    db = _build_database(
        args.scale, args.seed, partitions, clock=clock, **settings
    )
    runtime = ServingRuntime(
        db, tenants, clock=clock, strategy=args.strategy,
        drain_policy=args.drain, tracer=tracer,
    )

    # Seeded workload: tenant, query shape, and inter-arrival gaps are
    # all drawn from one generator, so a given (--seed, --mix,
    # --arrival-gap, --tenant) combination replays byte-identically.
    rng = np.random.default_rng(args.seed)
    names = [spec.name for spec in tenants]
    arrival = 0.0
    requests = []
    for _ in range(args.mix):
        arrival += float(rng.exponential(args.arrival_gap))
        var = _SERVE_GROUP_VARS[int(rng.integers(len(_SERVE_GROUP_VARS)))]
        sql = f"select {var}, sum(inv) from invest group by {var}"
        if rng.random() < 0.25:
            sql = (
                f"select {var}, sum(inv) from invest "
                f"where tid = 0 group by {var}"
            )
        requests.append(ServeRequest(
            tenant=names[int(rng.integers(len(names)))],
            query=db.bind(sql),
            arrival=arrival,
        ))

    reloads = []
    for k, (at, table) in enumerate(reload_specs):
        # A reload installs a freshly regenerated copy of the table
        # (different seed), so post-reload epochs serve different data.
        fresh = supply_chain(scale=args.scale, seed=args.seed + 101 + k)
        reloads.append((at, fresh.catalog.relation(table), table))

    report = runtime.run_workload(requests, reloads)
    return db, runtime, report, tenants


def _write_metrics_text(db, target: str) -> None:
    """Write the Prometheus-style exposition to stdout (``-``) or a file."""
    from repro.obs.expo import metrics_text

    text = metrics_text(db.metrics)
    if target == "-":
        sys.stdout.write(text)
    else:
        with open(target, "w") as fh:
            fh.write(text)


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.obs.trace import ServeTracer

    tracer = ServeTracer() if args.trace_json else None
    soak = _serve_soak(args, tracer)
    if isinstance(soak, int):
        return soak
    db, runtime, report, tenants = soak

    print(f"serving soak @ scale {args.scale}, seed {args.seed}: "
          f"{report.summary()}")
    for spec in tenants:
        outs = [
            o for o in report.outcomes if o.request.tenant == spec.name
        ]
        sheds = Counter(
            o.error.reason for o in outs if o.shed
        )
        executed = [o for o in outs if not o.shed]
        wait = (
            sum(o.queue_wait for o in executed) / len(executed)
            if executed else 0.0
        )
        shed_text = (
            " [" + ", ".join(
                f"{reason}={count}" for reason, count in sorted(sheds.items())
            ) + "]" if sheds else ""
        )
        print(
            f"  {spec.name}: {len(outs)} submitted, "
            f"{sum(o.ok for o in outs)} ok, "
            f"{sum(bool(o.shed) for o in outs)} shed{shed_text}, "
            f"{sum(o.status == 'error' for o in outs)} failed, "
            f"mean wait {wait:.0f} units"
        )
    hits = sum(o.plan_cached for o in report.completed)
    epochs = sorted({o.epoch for o in report.outcomes if o.epoch is not None})
    print(f"  plan cache: {hits}/{len(report.completed)} hits; "
          f"epochs served: {epochs}")
    if args.trace_json:
        # One schema-tagged repro.trace.v1 document for the whole soak
        # (pipe `tail -n 1` into `python -m repro.obs.validate -` when
        # combined with --metrics-json, which stays the last line).
        print(json.dumps(tracer.document(name="cli.serve"),
                         sort_keys=True))
    if args.metrics_text:
        _write_metrics_text(db, args.metrics_text)
    if args.metrics_json:
        # Last line of stdout: one schema-tagged metrics document for
        # the soak (pipe into `python -m repro.obs.validate -`).
        print(json.dumps(db.metrics_document(name="cli.serve"),
                         sort_keys=True))
    if args.fail_on_shed and report.shed:
        print(
            f"error: {len(report.shed)} request(s) shed under overload",
            file=sys.stderr,
        )
        return EXIT_OVERLOAD
    return 0


def cmd_top(args: argparse.Namespace) -> int:
    """One-shot per-tenant SLO summary view over a seeded soak."""
    soak = _serve_soak(args)
    if isinstance(soak, int):
        return soak
    db, runtime, report, tenants = soak
    print(f"serving soak @ scale {args.scale}, seed {args.seed}: "
          f"{report.summary()}")
    print(runtime.slo.render())
    if args.metrics_text:
        _write_metrics_text(db, args.metrics_text)
    return 0


def cmd_table2(args: argparse.Namespace) -> int:
    from repro.datagen import linear_view, multistar_view, star_view
    from repro.optimizer import (
        CSPlusNonlinear,
        QuerySpec,
        VariableElimination,
    )

    views = {
        "star": star_view(args.n_tables, args.domain),
        "multistar": multistar_view(args.n_tables, args.domain),
        "linear": linear_view(args.n_tables, args.domain),
    }
    orderings = [
        ("nonlinear CS+", None, False),
        ("VE(deg)", "degree", False),
        ("VE(deg) ext.", "degree", True),
        ("VE(width)", "width", False),
        ("VE(width) ext.", "width", True),
        ("VE(elim_cost)", "elim_cost", False),
        ("VE(elim_cost) ext.", "elim_cost", True),
        ("VE(deg & width)", "degree+width", False),
        ("VE(deg & width) ext.", "degree+width", True),
        ("VE(deg & elim_cost)", "degree+elim_cost", False),
        ("VE(deg & elim_cost) ext.", "degree+elim_cost", True),
    ]
    print(f"{'Ordering':26s} {'star':>14s} {'multistar':>14s} "
          f"{'linear':>12s}")
    for label, heuristic, extended in orderings:
        row = [label]
        for kind in ("star", "multistar", "linear"):
            view = views[kind]
            spec = QuerySpec(
                tables=view.tables,
                query_vars=(view.chain_variables[0],),
            )
            if heuristic is None:
                cost = CSPlusNonlinear().optimize(spec, view.catalog).cost
            else:
                cost = VariableElimination(
                    heuristic, extended=extended
                ).optimize(spec, view.catalog).cost
            row.append(cost)
        print(f"{row[0]:26s} {row[1]:14.2f} {row[2]:14.2f} {row[3]:12.2f}")
    return 0


def cmd_table3(args: argparse.Namespace) -> int:
    from repro.datagen import linear_view, multistar_view, star_view
    from repro.optimizer import QuerySpec, VariableElimination

    views = {
        "star": star_view(args.n_tables, args.domain),
        "multistar": multistar_view(args.n_tables, args.domain),
        "linear": linear_view(args.n_tables, args.domain),
    }
    print(f"{'Ordering':16s} {'view':>10s} {'mean':>14s} {'±95% CI':>12s}")
    for extended in (False, True):
        label = "VE(random) ext." if extended else "VE(random)"
        for kind, view in views.items():
            spec = QuerySpec(
                tables=view.tables,
                query_vars=(view.chain_variables[0],),
            )
            costs = [
                VariableElimination("random", extended=extended, seed=s)
                .optimize(spec, view.catalog)
                .cost
                for s in range(args.runs)
            ]
            n = len(costs)
            mean = sum(costs) / n
            var = sum((c - mean) ** 2 for c in costs) / (n - 1)
            half = 1.96 * math.sqrt(var / n)
            print(f"{label:16s} {kind:>10s} {mean:14.2f} {half:12.2f}")
    return 0


def cmd_inference(args: argparse.Namespace) -> int:
    from repro.bayes import MPFInference, figure2_network

    bn = figure2_network()
    mpf = MPFInference(bn)
    print("Figure 2 network; "
          "query: select C, SUM(p) from joint where A=0 group by C")
    for row in mpf.query("C", evidence={"A": 0}).iter_rows():
        print(f"  Pr(C={row[0]} | A=0) = {row[1]:.4f}")
    cache = mpf.build_cache()
    print("marginals from a calibrated VE-cache:")
    for v in bn.variable_names:
        values = ", ".join(
            f"{m:.4f}" for m in mpf.query_cached(cache, v).measure
        )
        print(f"  Pr({v}) = [{values}]")
    return 0


# ----------------------------------------------------------------------
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MPF query engine (SIGMOD 2007 reproduction)",
    )
    sub = parser.add_subparsers(dest="cmd", required=True)

    # Option groups that several subcommands share, defined once.
    data = argparse.ArgumentParser(add_help=False)
    data.add_argument("--scale", type=float, default=0.01)
    data.add_argument("--seed", type=int, default=42)
    data.add_argument("--strategy", default="auto")

    engine = argparse.ArgumentParser(add_help=False)
    engine.add_argument("--workers", type=int, default=1,
                        help="modeled executor count for partition-parallel "
                             "execution (results are identical for every "
                             "worker count; see docs/parallelism.md)")
    engine.add_argument("--partition", action="append", default=None,
                        metavar="TABLE=KEY:N",
                        help="hash-partition TABLE on variable KEY into N "
                             "shards before running (repeatable)")
    engine.add_argument("--metrics-text", nargs="?", const="-",
                        default=None, metavar="PATH",
                        help="at the end of the run, write the metrics as "
                             "a Prometheus-style text exposition to PATH "
                             "(default: stdout)")

    documents = argparse.ArgumentParser(add_help=False)
    documents.add_argument("--metrics-json", action="store_true",
                           help="at the end of the run, print the "
                                "session's metrics document on one line")
    documents.add_argument("--trace-json", action="store_true",
                           help="at the end of the run, print one "
                                "repro.trace.v1 document with every "
                                "query's span tree on one line (before "
                                "--metrics-json)")

    soak = argparse.ArgumentParser(add_help=False)
    soak.add_argument("--tenant", action="append", default=None,
                      metavar="SPEC",
                      help="tenant spec 'name[,key=value,...]' with keys "
                           "priority, rate, burst, slots, queue, slo, "
                           "objective, cost, mem, retries (repeatable; "
                           "default: a gold/bulk pair that contends at "
                           "the default arrival gap)")
    soak.add_argument("--mix", type=int, default=40, metavar="N",
                      help="seeded queries to submit across the tenants")
    soak.add_argument("--arrival-gap", type=float, default=5e4,
                      metavar="UNITS",
                      help="mean inter-arrival gap in simulated cost "
                           "units (exponential, seeded)")
    soak.add_argument("--reload-at", action="append", default=None,
                      metavar="TABLE@TIME",
                      help="reload TABLE with freshly regenerated data "
                           "at virtual time TIME, snapshot-isolated "
                           "from in-flight queries (repeatable)")
    soak.add_argument("--drain", choices=("finish", "shed"),
                      default="finish",
                      help="queued work after the last arrival is "
                           "finished or shed")

    demo = sub.add_parser("demo", parents=[data],
                          help="supply-chain walkthrough")
    demo.set_defaults(fn=cmd_demo)

    sql = sub.add_parser("sql", parents=[data, engine, documents],
                         help="run MPF statements")
    sql.add_argument("-c", "--command", action="append",
                     help="statement to run (repeatable)")
    sql.add_argument("-f", "--file", help="file of ;-separated statements")
    sql.add_argument("--limit", type=int, default=10,
                     help="rows to print per result")
    sql.add_argument("--explain", action="store_true",
                     help="print the chosen plan")
    sql.add_argument("--explain-json", action="store_true",
                     help="print each query's EXPLAIN (FORMAT JSON) "
                          "document on one line")
    sql.add_argument("--calibrate", action="store_true",
                     help="run selects as EXPLAIN ANALYZE with cost-model "
                          "calibration: print each query's one-line "
                          "repro.explain.v1 document with per-node "
                          "Q-errors, misestimate attribution and the "
                          "plan-choice audit")
    sql.add_argument("--audit-max-tables", type=int, default=6,
                     metavar="N",
                     help="replay candidate plans (the --calibrate audit) "
                          "only for queries over at most N relations")
    sql.add_argument("--timeout", type=float, default=None,
                     metavar="SECONDS",
                     help="wall-clock deadline per statement")
    sql.add_argument("--cost-budget", type=float, default=None,
                     metavar="UNITS",
                     help="simulated-IO cost budget per statement")
    sql.add_argument("--memory-limit", type=int, default=None,
                     metavar="PAGES",
                     help="hard ceiling on materialized intermediate pages")
    sql.add_argument("--checkpoint-dir", default=None, metavar="DIR",
                     help="enable durability: WAL + per-statement "
                          "checkpoints in DIR")
    sql.add_argument("--resume", action="store_true",
                     help="recover from --checkpoint-dir before running; "
                          "recorded statements are served from the WAL")
    sql.add_argument("--crash-at", default=None, metavar="POINT[:N]",
                     help="inject a crash at a named point (after N "
                          "earlier hits), or 'seeded' to derive the "
                          "point from --seed; exits with code 8")
    sql.add_argument("--fault-transient-rate", type=float, default=0.0,
                     metavar="P",
                     help="seeded per-page transient fault probability")
    sql.add_argument("--fault-permanent-rate", type=float, default=0.0,
                     metavar="P",
                     help="seeded per-page permanent fault probability")
    sql.set_defaults(fn=cmd_sql)

    srv = sub.add_parser(
        "serve", parents=[data, engine, documents, soak],
        help="deterministic multi-tenant serving soak (admission "
             "control, load shedding, snapshot-isolated reloads)",
    )
    srv.add_argument("--fail-on-shed", action="store_true",
                     help=f"exit {EXIT_OVERLOAD} if any request was "
                          "shed (overload is a failure for this run)")
    srv.set_defaults(fn=cmd_serve)

    top = sub.add_parser(
        "top", parents=[data, engine, soak],
        help="one-shot per-tenant SLO summary (latency/queue-wait "
             "p50/p95/p99, attainment, burn rate) over a seeded soak",
    )
    top.set_defaults(fn=cmd_top)

    t2 = sub.add_parser("table2", help="regenerate paper Table 2")
    t2.add_argument("--n-tables", type=int, default=5)
    t2.add_argument("--domain", type=int, default=10)
    t2.set_defaults(fn=cmd_table2)

    t3 = sub.add_parser("table3", help="regenerate paper Table 3")
    t3.add_argument("--n-tables", type=int, default=5)
    t3.add_argument("--domain", type=int, default=10)
    t3.add_argument("--runs", type=int, default=10)
    t3.set_defaults(fn=cmd_table3)

    inf = sub.add_parser("inference", help="Bayesian-network walkthrough")
    inf.set_defaults(fn=cmd_inference)
    return parser


def main(argv: list[str] | None = None) -> int:
    from repro.storage.faults import InjectedCrash

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except InjectedCrash as exc:
        # A simulated crash is a hard process death, not an MPFError:
        # everything not yet durable is lost, and the distinct exit
        # code tells driving scripts to re-run with --resume.
        print(f"crash: {exc}", file=sys.stderr)
        return EXIT_CRASH
    except MPFError as exc:
        # Last-resort boundary: no MPFError escapes as a traceback, and
        # the exit code identifies the error family.
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
