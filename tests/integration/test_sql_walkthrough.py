"""End-to-end SQL walkthrough: every Section 3.1 example as SQL.

The paper's decision-support narrative, replayed statement by
statement against the engine, with oracle verification for each.
"""

from functools import reduce

import pytest

from repro import Database
from repro.algebra import marginalize, product_join, restrict, restrict_range
from repro.cost import IOCostModel
from repro.semiring import MIN_PRODUCT, SUM_PRODUCT

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
def setting(tiny_supply_chain):
    db = Database()
    for t in tiny_supply_chain.tables:
        db.register(tiny_supply_chain.catalog.relation(t))
    db.execute(CREATE_INVEST)

    def joint(semiring):
        return reduce(
            lambda a, b: product_join(a, b, semiring),
            [
                tiny_supply_chain.catalog.relation(t)
                for t in tiny_supply_chain.tables
            ],
        )

    return db, joint


class TestSection31Queries:
    def test_minimum_investment_per_part(self, setting):
        """'What is the minimum investment on each part?'"""
        db, joint = setting
        got = db.execute(
            "select pid, min(inv) from invest group by pid"
        ).result
        expected = marginalize(joint(MIN_PRODUCT), ["pid"], MIN_PRODUCT)
        assert got.equals(expected, MIN_PRODUCT)

    def test_warehouse_offline_cost(self, setting):
        """'How much would it cost for warehouse w1 to go off-line?'"""
        db, joint = setting
        got = db.execute(
            "select wid, sum(inv) from invest where wid = 1 group by wid"
        ).result
        expected = restrict(
            marginalize(joint(SUM_PRODUCT), ["wid"], SUM_PRODUCT),
            {"wid": 1},
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_contractor_loss_if_transporter_offline(self, setting):
        """'How much money would each contractor lose if transporter t1
        went off-line?'"""
        db, joint = setting
        got = db.execute(
            "select cid, sum(inv) from invest where tid = 1 group by cid"
        ).result
        expected = marginalize(
            restrict(joint(SUM_PRODUCT), {"tid": 1}), ["cid"], SUM_PRODUCT
        )
        assert got.equals(expected, SUM_PRODUCT, ignore_zero_rows=True)

    def test_constrained_range(self, setting):
        db, joint = setting
        base = marginalize(joint(SUM_PRODUCT), ["wid"], SUM_PRODUCT)
        # Pick a threshold strictly between two result values so that
        # last-ulp summation-order differences between plans cannot
        # flip a borderline row's membership.
        ordered = sorted(base.measure)
        mid = base.ntuples // 2
        threshold = 0.5 * (float(ordered[mid - 1]) + float(ordered[mid]))
        got = db.execute(
            "select wid, sum(inv) from invest group by wid "
            f"having f >= {threshold:.10f}"
        ).result
        expected = restrict_range(base, ">=", threshold)
        assert got.equals(expected, SUM_PRODUCT)


class TestIndexedEvidencePath:
    def test_index_accelerates_constrained_domain(self, setting):
        """Under the IO cost model, indexing ctdeals(tid) turns the
        evidence selection into an index probe — same answer."""
        db, joint = setting
        reference = db.execute(
            "select cid, sum(inv) from invest where tid = 1 group by cid"
        ).result

        io_db = Database(cost_model=IOCostModel())
        for t in ("contracts", "warehouses", "transporters", "location",
                  "ctdeals"):
            io_db.register(db.catalog.relation(t))
        io_db.execute(CREATE_INVEST)
        io_db.execute("create index on ctdeals(tid)")
        io_db.execute("create index on transporters(tid)")
        report = io_db.execute(
            "select cid, sum(inv) from invest where tid = 1 group by cid",
            strategy="cs+nonlinear",
        )
        assert report.result.equals(
            reference, SUM_PRODUCT, ignore_zero_rows=True
        )
        assert "IndexScan" in report.plan_text


class TestWorkloadRoundTrip:
    def test_cache_then_hypothetical(self, setting, tiny_supply_chain):
        """Build a cache via SQL-registered tables, pose the Section 6
        evidence query and a Section 3.1 hypothetical, checking both."""
        from repro.algebra import alter_measure

        db, joint = setting
        sql = "select wid, sum(inv) from invest where tid = 1 group by wid"
        cache = db.build_cache(db.bind(sql).view)
        cached = cache.absorb_evidence({"tid": 1}).answer("wid")
        direct = db.execute(sql).result
        assert cached.equals(direct, SUM_PRODUCT, ignore_zero_rows=True)

        from repro.query import MPFQuery, MPFView

        view = MPFView("invest", tiny_supply_chain.tables, SUM_PRODUCT)
        query = MPFQuery(view, ("wid",))
        report = db.run_hypothetical(
            query, measure_updates={"transporters": ({"tid": 0}, 9.0)}
        )
        patched = [
            alter_measure(db.catalog.relation(t), {"tid": 0}, 9.0)
            if t == "transporters" else db.catalog.relation(t)
            for t in tiny_supply_chain.tables
        ]
        expected = marginalize(
            reduce(lambda a, b: product_join(a, b, SUM_PRODUCT), patched),
            ["wid"],
            SUM_PRODUCT,
        )
        assert report.result.equals(expected, SUM_PRODUCT)
