"""End-to-end tests of the Database facade."""

import pytest

from repro import Database
from repro.errors import ParseError, QueryError
from repro.semiring import SUM_PRODUCT

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


@pytest.fixture
def db(tiny_supply_chain):
    database = Database()
    for t in tiny_supply_chain.tables:
        database.register(tiny_supply_chain.catalog.relation(t))
    database.execute(CREATE_INVEST)
    return database


class TestDDL:
    def test_view_created(self, db):
        report = db.execute("select wid, sum(inv) from invest group by wid")
        assert report.result.var_names == ("wid",)

    def test_duplicate_view_rejected(self, db):
        with pytest.raises(QueryError):
            db.execute(CREATE_INVEST)

    def test_view_over_unknown_table(self, db):
        with pytest.raises(QueryError):
            db.create_view("v2", ("contracts", "ghost"))

    def test_measure_ref_must_name_from_table(self, db):
        bad = (
            "create mpfview v2 as (select pid, "
            "measure = (* elsewhere.f) from contracts)"
        )
        with pytest.raises(QueryError):
            db.execute(bad)

    def test_join_predicates_must_be_natural(self, db):
        bad = (
            "create mpfview v2 as (select pid, wid, "
            "measure = (* contracts.price, location.quantity) "
            "from contracts, location where contracts.pid = location.wid)"
        )
        with pytest.raises(QueryError):
            db.execute(bad)


class TestQueries:
    def test_all_strategies_agree(self, db):
        sql = "select wid, sum(inv) from invest group by wid"
        reference = db.execute(sql, strategy="cs").result
        for strategy in ("cs+", "cs+nonlinear", "ve", "ve+", "auto"):
            got = db.execute(sql, strategy=strategy).result
            assert got.equals(reference, SUM_PRODUCT), strategy

    def test_strategies_match_oracle(self, db, tiny_supply_chain):
        from functools import reduce

        from repro.algebra import marginalize, product_join

        cat = tiny_supply_chain.catalog
        joint = reduce(
            lambda a, b: product_join(a, b, SUM_PRODUCT),
            [cat.relation(t) for t in tiny_supply_chain.tables],
        )
        expected = marginalize(joint, ["cid"], SUM_PRODUCT)
        got = db.execute("select cid, sum(inv) from invest group by cid")
        assert got.result.equals(expected, SUM_PRODUCT)

    def test_constrained_domain_sql(self, db, tiny_supply_chain):
        from functools import reduce

        from repro.algebra import marginalize, product_join, restrict

        cat = tiny_supply_chain.catalog
        joint = reduce(
            lambda a, b: product_join(a, b, SUM_PRODUCT),
            [cat.relation(t) for t in tiny_supply_chain.tables],
        )
        expected = marginalize(
            restrict(joint, {"tid": 1}), ["cid"], SUM_PRODUCT
        )
        got = db.execute(
            "select cid, sum(inv) from invest where tid = 1 group by cid"
        )
        assert got.result.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_min_aggregate_selects_min_product(self, db):
        report = db.execute("select pid, min(inv) from invest group by pid")
        assert report.semiring.name == "min_product"

    def test_having_filters(self, db):
        full = db.execute("select wid, sum(inv) from invest group by wid")
        threshold = float(sorted(full.result.measure)[len(full.result.measure) // 2])
        filtered = db.execute(
            f"select wid, sum(inv) from invest group by wid having f < {threshold}"
        )
        assert 0 < filtered.result.ntuples < full.result.ntuples

    def test_incompatible_aggregate(self, db):
        with pytest.raises(QueryError):
            db.execute("select wid, or(inv) from invest group by wid")

    def test_unknown_view(self, db):
        with pytest.raises(QueryError):
            db.execute("select wid, sum(inv) from ghost group by wid")

    def test_unknown_strategy(self, db):
        with pytest.raises(QueryError):
            db.execute(
                "select wid, sum(inv) from invest group by wid",
                strategy="quantum",
            )

    def test_parse_error_propagates(self, db):
        with pytest.raises(ParseError):
            db.execute("select select select")


class TestAnswerColumnOrder:
    """Answers list their columns in group-by order, however the plan
    root happens to hold them — including a root that needs no GroupBy
    (a one-table view grouped on all its variables)."""

    STRATEGIES = ("cs", "cs+", "cs+nonlinear", "ve", "ve+")

    @pytest.fixture(params=[1, 2, 3], ids=lambda n: f"{n}-table")
    def chain(self, request):
        from repro.datagen import linear_view

        view = linear_view(n_tables=request.param, domain_size=3)
        database = Database()
        for t in view.tables:
            database.register(view.catalog.relation(t))
        database.create_view("chain", view.tables)
        return database

    def test_execute(self, chain):
        sql = "select v1, v0, sum(f) from chain group by v1, v0"
        reference = chain.execute(sql, strategy="cs").result
        for strategy in self.STRATEGIES:
            got = chain.execute(sql, strategy=strategy).result
            assert got.var_names == ("v1", "v0"), strategy
            assert got.equals(reference, SUM_PRODUCT), strategy

    def test_run_query_and_having(self, chain):
        for sql in (
            "select v1, v0, sum(f) from chain group by v1, v0",
            "select v1, v0, sum(f) from chain group by v1, v0 having f > 0",
        ):
            query = chain.bind(sql)
            for strategy in self.STRATEGIES:
                report = chain.run_query(query, strategy=strategy)
                assert report.result.var_names == ("v1", "v0"), strategy

    def test_group_by_order_differs_from_the_grouped_input(self, db):
        """A root GroupBy lists its columns in its input's order; the
        answer still lists them in the query's."""
        sql = "select tid, cid, sum(inv) from invest group by tid, cid"
        for strategy in self.STRATEGIES:
            report = db.execute(sql, strategy=strategy)
            assert report.result.var_names == ("tid", "cid"), strategy

    def test_run_batch(self, chain):
        queries = [
            chain.bind("select v1, v0, sum(f) from chain group by v1, v0"),
            chain.bind("select v0, v1, sum(f) from chain group by v0, v1"),
        ]
        for strategy in self.STRATEGIES:
            reports = chain.run_batch(queries, strategy=strategy).reports
            assert [r.result.var_names for r in reports] == [
                ("v1", "v0"), ("v0", "v1"),
            ], strategy
            assert reports[0].result.equals(reports[1].result, SUM_PRODUCT)


class TestReport:
    def test_summary_fields(self, db):
        report = db.execute(
            "select wid, sum(inv) from invest group by wid", strategy="ve+"
        )
        text = report.summary()
        assert "ve(degree)+ext" in text
        assert "est cost" in text
        assert "rows:" in text
        assert "linearity" in text

    def test_plan_text(self, db):
        report = db.execute("select wid, sum(inv) from invest group by wid")
        assert "Scan(" in report.plan_text
        assert "GroupBy" in report.plan_text

    def test_explain_without_execution(self, db):
        text = db.explain_query(
            "select wid, sum(inv) from invest group by wid", strategy="cs"
        )
        assert text.count("Scan") == 5

    def test_exec_stats_populated(self, db):
        report = db.execute("select wid, sum(inv) from invest group by wid")
        assert report.exec_stats.page_reads > 0
        assert report.exec_stats.elapsed() > 0


class TestCache:
    def _cache(self, db, sql="select wid, sum(inv) from invest group by wid"):
        return db.build_cache(db.bind(sql).view)

    def test_build_and_query(self, db):
        got = self._cache(db).answer("wid")
        expected = db.execute(
            "select wid, sum(inv) from invest group by wid"
        ).result
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_cached_evidence(self, db):
        got = self._cache(db).absorb_evidence({"tid": 1}).answer("cid")
        expected = db.execute(
            "select cid, sum(inv) from invest where tid = 1 group by cid"
        ).result
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_cache_unknown_view(self, db):
        with pytest.raises(QueryError, match="unknown view 'ghost'"):
            self._cache(db, "select wid, sum(inv) from ghost group by wid")

    @pytest.mark.parametrize("op", ["+", "and"])
    def test_view_whose_op_forms_no_semiring_with_sum(self, db, op):
        """A cache is built from a bound view; ``sum`` over a ``+`` (or
        ``and``) view forms no semiring, so the query never binds and no
        cache under a wrong semiring is built."""
        db.create_view("other", ("location", "warehouses"), op)
        with pytest.raises(
            QueryError,
            match="aggregate 'sum' does not form a semiring with the view's",
        ):
            self._cache(db, "select wid, sum(f) from other group by wid")

    def test_cache_carries_the_bound_views_semiring(self, db):
        """The cache reads its semiring off the bound view: a ``min``
        query over the ``*`` view builds a min-product cache."""
        sql = "select wid, min(inv) from invest group by wid"
        cache = self._cache(db, sql)
        assert cache.semiring is db.bind(sql).view.semiring
        expected = db.execute(sql).result
        assert cache.answer("wid").equals(
            expected, db.bind(sql).view.semiring, ignore_zero_rows=True
        )


class TestProfile:
    def test_profile_breakdown(self, db):
        profile = db.profile(
            "select wid, sum(inv) from invest group by wid"
        )
        assert profile.result.var_names == ("wid",)
        assert len(profile.operators) >= 6  # 5 scans + joins + groupbys
        text = profile.formatted()
        assert "Scan(location)" in text
        assert "total" in text

    def test_profile_requires_select(self, db):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            db.profile("create index on contracts(pid)")

    def test_profile_unknown_view(self, db):
        from repro.errors import QueryError

        with pytest.raises(QueryError):
            db.profile("select sum(f) from ghost")


class TestPlanCache:
    """The one prepared-plan cache: the serving runtime's, held on the
    pinned stats epoch."""

    @pytest.fixture
    def runtime(self, db):
        from repro.serve import ServingRuntime, TenantSpec

        return ServingRuntime(db, [TenantSpec("t")])

    @staticmethod
    def serve(runtime, query):
        from repro.serve import ServeRequest

        assert not runtime.admit(ServeRequest("t", query))
        outcome = runtime.dispatch(runtime.next_runnable())
        assert outcome.ok
        return outcome

    @staticmethod
    def query(db, *group_by, **selections):
        from repro.query import MPFQuery, MPFView

        view = MPFView("invest", db._views["invest"].view_tables,
                       SUM_PRODUCT)
        return MPFQuery(view, group_by, selections=selections)

    def test_repeat_query_hits_cache(self, db, runtime):
        query = self.query(db, "wid")
        first = self.serve(runtime, query)
        second = self.serve(runtime, query)
        assert (first.plan_cached, second.plan_cached) == (False, True)
        assert len(runtime.cached_plans()) == 1
        assert first.result.equals(second.result, SUM_PRODUCT)
        assert first.result.equals(db.run_query(query).result, SUM_PRODUCT)

    def test_different_constants_miss(self, db, runtime):
        first = self.serve(runtime, self.query(db, "cid", tid=0))
        second = self.serve(runtime, self.query(db, "cid", tid=1))
        assert not first.plan_cached and not second.plan_cached
        assert len(runtime.cached_plans()) == 2

    def test_reload_table_invalidates_cache(self, db, runtime):
        """Regression: a reloaded table (new data, new statistics) must
        never be served the plan costed against the old statistics."""
        from repro.datagen import supply_chain

        query = self.query(db, "wid")
        self.serve(runtime, query)
        assert self.serve(runtime, query).plan_cached

        reloaded = supply_chain(scale=0.004, seed=8)
        runtime.reload_table(reloaded.catalog.relation("contracts"))

        after = self.serve(runtime, query)
        assert not after.plan_cached
        epoch = db.catalog.stats_epoch
        assert [key[-1] for key in runtime.cached_plans()] == [epoch]
        snap = db.metrics_snapshot()
        assert snap.get("serve.plan_cache.hits", tenant="t") == 1
        assert snap.get("serve.snapshots_retired") == 1

        # The re-planned query answers against the *new* data.
        fresh = db.run_query(query)
        assert after.result.equals(fresh.result, SUM_PRODUCT)

    def test_create_index_invalidates_cache(self, db, runtime):
        """New physical structures change the search space too: the
        catalog epoch bump makes the old cache entry unreachable."""
        query = self.query(db, "cid", tid=0)
        self.serve(runtime, query)
        db.execute("create index on ctdeals(tid)")
        assert not self.serve(runtime, query).plan_cached
        epoch = db.catalog.stats_epoch
        assert [key[-1] for key in runtime.cached_plans()] == [epoch]


class TestRunBatch:
    def _query(self, db, *group_by, **selections):
        from repro.query import MPFQuery, MPFView

        view = MPFView("invest", db._views["invest"].view_tables,
                       SUM_PRODUCT)
        return MPFQuery(view, tuple(group_by), selections=selections)

    def test_matches_individual_runs(self, db):
        queries = [
            self._query(db, "wid"),
            self._query(db, "cid"),
            self._query(db, "cid", tid=0),
        ]
        batch = db.run_batch(queries)
        assert len(batch.reports) == 3
        for query, report in zip(queries, batch.reports):
            solo = db.run_query(query)
            assert report.result.equals(solo.result, SUM_PRODUCT)

    def test_repeated_query_served_from_memo(self, db):
        query = self._query(db, "wid")
        batch = db.run_batch([query, query])
        first, second = batch.reports
        assert second.result.equals(first.result, SUM_PRODUCT)
        assert batch.memo_hits >= 1
        # The repeat pays a memo hit, not IO or operator work.
        assert second.exec_stats.page_reads == 0
        assert second.exec_stats.operators_run == 0
        assert second.exec_stats.elapsed() < first.exec_stats.elapsed()

    def test_shared_scans_deduplicated(self, db):
        batch = db.run_batch([
            self._query(db, "wid"),
            self._query(db, "cid"),
        ])
        # Both plans scan the same five base tables; CSE merges them.
        assert batch.shared_subplans >= 4
        assert "unique" in batch.summary()

    def test_batch_reads_fewer_pages_than_solo_runs(self, db):
        queries = [self._query(db, "wid"), self._query(db, "wid")]
        solo = sum(
            db.run_query(q).exec_stats.page_reads for q in queries
        )
        batch = db.run_batch(queries)
        assert batch.stats.page_reads < solo

    def test_empty_batch_rejected(self, db):
        with pytest.raises(QueryError):
            db.run_batch([])

    def test_mixed_semirings_rejected(self, db):
        from repro.query import MPFQuery, MPFView
        from repro.semiring import MAX_PRODUCT

        tables = db._views["invest"].view_tables
        q1 = self._query(db, "wid")
        q2 = MPFQuery(MPFView("invest", tables, MAX_PRODUCT), ("wid",))
        with pytest.raises(QueryError):
            db.run_batch([q1, q2])


class TestExplainAnalyze:
    """Cost-model calibration through the Database facade."""

    @pytest.fixture
    def chain_db(self, chain_relations):
        database = Database()
        for rel in chain_relations:
            database.register(rel)
        database.create_view("chain", ("s1", "s2", "s3"))
        return database

    def test_exact_stats_calibrate_to_unit_q_error(self, chain_db):
        report = chain_db.explain_analyze(
            "select d, sum(f) from chain group by d"
        )
        calib = report.calibration
        assert calib is not None
        assert calib.plan_q_error == 1.0
        assert all(n.q_error == 1.0 for n in calib.nodes)
        assert calib.stats_epoch == chain_db.catalog.stats_epoch

    def test_result_matches_plain_execution(self, chain_db):
        sql = "select d, sum(f) from chain group by d"
        report = chain_db.explain_analyze(sql)
        plain = chain_db.execute(sql)
        assert report.result.equals(plain.result, SUM_PRODUCT)

    def test_skewed_reload_produces_misestimate(self, chain_db):
        from repro.data import FunctionalRelation, var

        a, b = var("a", 3), var("b", 4)
        rows = [(i, 0, 1.0) for i in range(3)]
        rows += [(0, j, 1.0) for j in range(1, 4)]
        chain_db.reload_table(
            FunctionalRelation.from_rows([a, b], rows, name="s1")
        )
        report = chain_db.explain_analyze(
            "select d, sum(f) from chain where b = 0 group by d"
        )
        calib = report.calibration
        assert calib.plan_q_error > 1.0
        assert calib.dominant is not None
        assert calib.dominant.source == "selection"

    def test_calibration_document_validates(self, chain_db):
        from repro.obs.validate import validate_document

        report = chain_db.explain_analyze(
            "select d, sum(f) from chain group by d", audit_plans=True
        )
        doc = report.to_explain_dict()
        assert validate_document(doc) == "repro.explain.v1"
        audit = doc["calibration"]["audit"]
        assert audit["plan_regret"] >= 1.0
        assert any(c["chosen"] for c in audit["candidates"])
        assert doc["calibration"]["stats_epoch"] == (
            chain_db.catalog.stats_epoch
        )

    def test_explain_dict_carries_actuals(self, chain_db):
        from repro.obs.validate import validate_document

        report = chain_db.explain_analyze(
            "select d, sum(f) from chain group by d"
        )
        doc = report.to_explain_dict()
        assert validate_document(doc) == "repro.explain.v1"
        assert doc["plan"]["actual"]["rows"] == report.result.ntuples
        assert doc["plan"]["q_error"] == 1.0

    def test_plan_text_and_profile_show_q_errors(self, chain_db):
        report = chain_db.explain_analyze(
            "select d, sum(f) from chain group by d"
        )
        assert "q=1.00" in report.plan_text
        assert "act=" in report.plan_text
        formatted = report.formatted()
        assert "q-err" in formatted
        assert "plan q-error: 1.00" in formatted

    @pytest.mark.parametrize("partitioned", (False, True),
                             ids=("serial", "partitioned"))
    def test_analyze_profiles_the_plan_execute_runs(
        self, chain_db, partitioned
    ):
        from repro.obs.trace import QueryTracer
        from repro.obs.validate import validate_document

        if partitioned:
            chain_db.catalog.partition_table("s1", "b", 2)
            chain_db.catalog.partition_table("s2", "b", 2)
        sql = "select d, sum(f) from chain where b = 0 group by d"
        tracer = QueryTracer()
        executed = chain_db.execute(sql, tracer=tracer)
        report = chain_db.explain_analyze(sql)
        labels = [op.label for op in report.profile.operators]
        # One lowering for both: the operator table shows the physical
        # operators a traced run of the same query records.
        assert labels == [op.label for op in tracer.operators]
        assert any(label.startswith("FilterScan(") for label in labels)
        assert report.result.equals(executed.result, SUM_PRODUCT)
        # ...while the calibration stays in the plan tree's vocabulary,
        # with an actual for every node the FilterScans stand for.
        doc = report.to_explain_dict()
        assert validate_document(doc) == "repro.explain.v1"
        nodes, stack = [], [doc["plan"]]
        while stack:
            nodes.append(stack.pop())
            stack.extend(nodes[-1].get("inputs", ()))
        ops = {n["op"] for n in nodes}
        assert {"scan", "select"} <= ops and "filter_scan" not in ops
        assert all("actual" in n for n in nodes)
        for n in nodes:
            if n["op"] == "scan":
                assert n["actual"]["rows"] == (
                    chain_db.catalog.relation(n["table"]).ntuples
                )
                assert n["source"] == "exact"
        assert "FilterScan" not in report.plan_text
        formatted = report.formatted()
        fused_row = next(
            line for line in formatted.splitlines()
            if line.startswith("FilterScan(")
        )
        assert not fused_row.rstrip().endswith("-")  # est.rows / q-err

    def test_audit_respects_max_tables(self, chain_db):
        report = chain_db.explain_analyze(
            "select d, sum(f) from chain group by d",
            audit_plans=True,
            audit_max_tables=2,
        )
        assert report.audit is None

    def test_audit_replays_do_not_skew_query_metrics(self, chain_db):
        sql = "select d, sum(f) from chain group by d"
        chain_db.explain_analyze(sql, audit_plans=False)
        before = chain_db.metrics_snapshot()
        chain_db.explain_analyze(sql, audit_plans=True)
        delta = chain_db.metrics_snapshot().diff(before).to_dict()
        # Exactly one more profiled execution's worth of queries.* /
        # query.* work, despite several replays.
        assert delta.get("calib.plans_replayed", {}).get("value", 0) >= 2
        runs = sum(
            entry["value"] for key, entry in delta.items()
            if key.startswith("query.operator_runs")
        )
        first = sum(
            entry["value"] for key, entry in before.to_dict().items()
            if key.startswith("query.operator_runs")
        )
        assert runs == first  # replay published nothing into query.*

    def test_calibrate_false_skips_calibration(self, chain_db):
        report = chain_db.explain_analyze(
            "select d, sum(f) from chain group by d", calibrate=False
        )
        assert report.calibration is None
        doc = report.to_explain_dict()
        assert "calibration" not in doc
        assert "actual" not in doc["plan"]

    def test_calib_metrics_published(self, chain_db):
        chain_db.explain_analyze("select d, sum(f) from chain group by d")
        snap = chain_db.metrics_snapshot()
        assert snap.get("calib.runs") == 1

    def test_non_select_rejected(self, chain_db):
        with pytest.raises(QueryError):
            chain_db.explain_analyze("create index on s1(a)")


class TestOneFrontDoor:
    """Every statement entry point binds, plans and runs the same way."""

    HAVING = "select wid, sum(inv) from invest group by wid having f < {}"

    ENTRY_POINTS = {
        "execute": lambda db, sql: db.execute(sql),
        "profile": lambda db, sql: db.profile(sql),
        "explain_analyze": lambda db, sql: db.explain_analyze(sql),
        "explain_query": lambda db, sql: db.explain_query(sql),
    }
    BAD_STATEMENTS = {
        "unknown view": (
            "select wid, sum(inv) from ghost group by wid",
            "unknown view 'ghost'",
        ),
        "non-semiring aggregate": (
            "select wid, or(inv) from invest group by wid",
            "aggregate 'or' does not form a semiring with the view's '*'",
        ),
        "non-select statement": (
            "drop mpfview invest",
            "statement must start with 'create mpfview', 'create index', "
            "or 'select'",
        ),
    }

    @pytest.mark.parametrize("case", BAD_STATEMENTS)
    @pytest.mark.parametrize("entry", ENTRY_POINTS)
    def test_same_typed_error(self, db, entry, case):
        sql, message = self.BAD_STATEMENTS[case]
        with pytest.raises(QueryError) as via_execute:
            db.execute(sql)
        with pytest.raises(QueryError) as raised:
            self.ENTRY_POINTS[entry](db, sql)
        assert type(raised.value) is type(via_execute.value)
        assert str(raised.value) == str(via_execute.value) == message

    @pytest.mark.parametrize("entry", ("profile", "explain_analyze",
                                       "explain_query"))
    def test_ddl_is_not_a_query(self, db, entry):
        with pytest.raises(QueryError) as raised:
            self.ENTRY_POINTS[entry](db, "create index on contracts(pid)")
        assert str(raised.value) == "expected a select statement"
        assert db.catalog.index_on("contracts", "pid") is None

    @pytest.mark.parametrize("entry", ("profile", "explain_analyze"))
    def test_having_result_equals_execute(self, db, entry):
        full = db.execute("select wid, sum(inv) from invest group by wid")
        sql = self.HAVING.format(float(sorted(full.result.measure)[3]))
        expected = db.execute(sql).result
        got = self.ENTRY_POINTS[entry](db, sql).result
        assert expected.ntuples == 3
        assert got.name == expected.name == "invest"
        assert got.var_names == expected.var_names
        assert sorted(got.iter_rows()) == sorted(expected.iter_rows())

    def test_reused_guard_window_restarts_like_execute(self, db):
        from repro.errors import MemoryLimitExceeded

        sql = "select cid, sum(inv) from invest group by cid"
        probe = db.make_guard(memory_limit_pages=10_000)
        db.execute(sql, guard=probe)
        once = probe.pages_admitted
        assert once > 1
        for run in (
            lambda guard: db.execute(sql, guard=guard),
            lambda guard: db.explain_analyze(sql, guard=guard),
        ):
            # A ceiling one run fits under and two runs' worth does
            # not: three runs pass only if each restarts the window.
            guard = db.make_guard(memory_limit_pages=once)
            for _ in range(3):
                run(guard)
            with pytest.raises(MemoryLimitExceeded):
                run(db.make_guard(memory_limit_pages=once - 1))

    def test_analyzed_queries_are_counted(self, db):
        sql = "select wid, sum(inv) from invest group by wid"
        before = db.metrics_snapshot()
        report = db.explain_analyze(sql)
        after = db.metrics_snapshot()
        assert after.get("queries.total", status="ok") == (
            before.get("queries.total", status="ok") + 1
        )
        considered = after.get("optimizer.plans_considered")
        assert considered == report.optimization.plans_considered > 0
        db.explain_query(sql)
        assert db.metrics_snapshot().get(
            "optimizer.plans_considered"
        ) == 2 * considered

    def test_profile_trace_carries_the_planned_event(self, db):
        profile = db.profile("select wid, sum(inv) from invest group by wid")
        assert [e["name"] for e in profile.trace.events] == ["planned"]
        assert [c.name for c in profile.trace.children] == ["execute"]
