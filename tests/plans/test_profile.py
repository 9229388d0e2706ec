"""Tests for the execution profile ``EXPLAIN ANALYZE`` reports."""

import pytest

from repro import Database
from repro.data import complete_relation, var
from repro.obs.export import iostats_dict
from repro.semiring import SUM_PRODUCT

SQL = "select a, sum(f) from v group by a"


def _database(rng, pool=None):
    db = Database(pool=pool)
    db.register(complete_relation([var("a", 6), var("b", 5)], rng=rng,
                                  name="s1"))
    db.register(complete_relation([var("b", 5), var("c", 4)], rng=rng,
                                  name="s2"))
    db.create_view("v", ("s1", "s2"))
    return db


@pytest.fixture
def db(rng):
    return _database(rng)


def _analyze(db, **options):
    return db.explain_analyze(SQL, calibrate=False, **options)


class TestProfile:
    def test_result_matches_plain_execution(self, db):
        profile = _analyze(db).profile
        expected = db.execute(SQL).result
        assert profile.result.equals(expected, SUM_PRODUCT)

    def test_one_entry_per_operator(self, db):
        report = _analyze(db)
        profile = report.profile
        assert len(profile.operators) == (
            report.optimization.plan.count_nodes()
        )
        labels = [op.label for op in profile.operators]
        assert labels[-1].startswith("GroupBy")  # root finishes last
        assert labels[0].startswith("Scan")

    def test_deltas_sum_to_total(self, db):
        profile = _analyze(db).profile
        assert sum(op.tuples for op in profile.operators) == (
            profile.total.tuples_processed
        )
        assert sum(op.page_reads for op in profile.operators) == (
            profile.total.page_reads
        )
        assert sum(op.elapsed for op in profile.operators) == pytest.approx(
            profile.total.elapsed()
        )

    def test_scans_carry_the_reads(self, db):
        profile = _analyze(db).profile
        for op in profile.operators:
            if op.label.startswith("Scan"):
                assert op.page_reads >= 1
            else:
                assert op.page_reads == 0


class TestProfileReporting:
    """The ANALYZE document's operator rows and totals carry buffer
    hits, memo hits and retries, as IOStats tracks all three."""

    @staticmethod
    def _execution(report):
        return report.to_explain_dict()["execution"]

    def test_buffer_hits_column(self, db):
        _analyze(db)  # warm
        execution = self._execution(_analyze(db))
        assert execution["totals"]["buffer_hits"] > 0
        scans = [
            row for row in execution["operators"]
            if row["label"].startswith("Scan")
        ]
        assert sum(row["buffer_hits"] for row in scans) == (
            execution["totals"]["buffer_hits"]
        )

    def test_memo_hits_footer(self, db):
        from repro.obs import QueryTracer
        from repro.plans import GroupBy, ProductJoin, Scan, lower
        from repro.plans.profile import ExecutionProfile
        from repro.plans.runtime import ExecutionContext, evaluate_dag

        plan = GroupBy(ProductJoin(Scan("s1"), Scan("s2")), ["a"])
        tracer = QueryTracer()
        ctx = ExecutionContext(db.catalog, SUM_PRODUCT, tracer=tracer)
        tracer.bind_stats(ctx.stats)
        evaluate_dag(lower(plan), ctx)
        (result,) = evaluate_dag(lower(plan), ctx)  # served from memo
        profile = ExecutionProfile(
            result=result, operators=tracer.operators, total=ctx.stats
        )
        assert iostats_dict(profile.total)["memo_hits"] == 1
        rows = [op.to_dict() for op in profile.operators]
        assert [row["label"] for row in rows if row["memoized"]] == [
            "GroupBy(a)"
        ]

    def test_retries_column_and_footer(self, rng):
        from repro.storage import BufferPool, Faults, PageId

        faults = Faults()
        db = _database(rng, pool=BufferPool(faults=faults))
        heapfile = db.catalog.heapfile("s1")
        for page_no in range(heapfile.n_pages):
            faults.target(
                "page.read", "transient",
                PageId(heapfile.file_id, page_no), times=1,
            )
        execution = self._execution(
            _analyze(db, guard=db.make_guard(retry_budget=1000))
        )
        assert execution["totals"]["retries"] == heapfile.n_pages
        assert execution["totals"]["retry_wait"] > 0
        scan_rows = [
            row for row in execution["operators"]
            if row["label"] == "Scan(s1)"
        ]
        assert scan_rows[0]["retries"] == heapfile.n_pages

    def test_to_dict_round_trips(self, db):
        import json

        report = _analyze(db)
        profile = report.profile
        operators = [op.to_dict() for op in profile.operators]
        trace = profile.trace.to_dict()
        assert json.loads(json.dumps(operators)) == operators
        assert json.loads(json.dumps(trace)) == trace
        assert len(operators) == report.optimization.plan.count_nodes()
        assert sum(op["elapsed"] for op in operators) == pytest.approx(
            profile.total.elapsed()
        )
        assert trace["name"] == "query"
