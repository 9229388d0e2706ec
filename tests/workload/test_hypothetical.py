"""Hypothetical (alternate measure / alternate domain) query tests.

Section 3.1 lists these as MPF query variants whose optimization the
paper leaves as future work; we implement both the naive rewrite path
(patch relations, re-evaluate) and the incremental VE-cache path
(patch one calibrated table, re-propagate) and verify they agree.
"""

from functools import reduce

import pytest

from repro.algebra import (
    alter_domain,
    alter_measure,
    apply_patch,
    marginalize,
    measure_ratio_relation,
    product_join,
)
from repro.data import FunctionalRelation, var
from repro.errors import SchemaError, WorkloadError
from repro.semiring import SUM_PRODUCT
from repro.workload import build_ve_cache


def _joint(relations):
    return reduce(
        lambda a, b: product_join(a, b, SUM_PRODUCT), relations
    )


class TestAlterMeasure:
    def test_single_row(self):
        a = var("a", 3)
        rel = FunctionalRelation.from_rows(
            [a], [(0, 1.0), (1, 2.0), (2, 3.0)], name="r"
        )
        out = alter_measure(rel, {"a": 1}, 9.0)
        assert out.value_at({"a": 1}) == 9.0
        assert out.value_at({"a": 0}) == 1.0
        # Original untouched.
        assert rel.value_at({"a": 1}) == 2.0

    def test_partial_key_updates_all_matches(self):
        a, b = var("a", 2), var("b", 2)
        rel = FunctionalRelation.from_rows(
            [a, b],
            [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)],
            name="r",
        )
        out = alter_measure(rel, {"a": 0}, 5.0)
        assert out.value_at({"a": 0, "b": 0}) == 5.0
        assert out.value_at({"a": 0, "b": 1}) == 5.0
        assert out.value_at({"a": 1, "b": 0}) == 3.0

    def test_no_match_raises(self):
        a = var("a", 3)
        rel = FunctionalRelation.from_rows([a], [(0, 1.0)], name="r")
        with pytest.raises(SchemaError):
            alter_measure(rel, {"a": 2}, 9.0)

    def test_unknown_variable(self):
        a = var("a", 3)
        rel = FunctionalRelation.from_rows([a], [(0, 1.0)], name="r")
        with pytest.raises(SchemaError):
            alter_measure(rel, {"z": 0}, 9.0)

    def test_empty_assignment_rejected(self):
        a = var("a", 3)
        rel = FunctionalRelation.from_rows([a], [(0, 1.0)], name="r")
        with pytest.raises(SchemaError):
            alter_measure(rel, {}, 9.0)


class TestAlterDomain:
    def test_transfer_without_collision(self):
        c, t = var("cid", 2), var("tid", 3)
        deals = FunctionalRelation.from_rows(
            [c, t], [(0, 0, 0.9), (1, 1, 0.8)], name="deals"
        )
        out = alter_domain(deals, {"cid": 0, "tid": 0}, {"tid": 2},
                           SUM_PRODUCT)
        assert out.value_at({"cid": 0, "tid": 2}) == 0.9
        with pytest.raises(KeyError):
            out.value_at({"cid": 0, "tid": 0})

    def test_transfer_with_collision_plus_merges(self):
        c, t = var("cid", 2), var("tid", 2)
        deals = FunctionalRelation.from_rows(
            [c, t], [(0, 0, 0.9), (0, 1, 0.5)], name="deals"
        )
        out = alter_domain(deals, {"cid": 0, "tid": 0}, {"tid": 1},
                           SUM_PRODUCT)
        assert out.ntuples == 1
        assert out.value_at({"cid": 0, "tid": 1}) == pytest.approx(1.4)

    def test_no_match_raises(self):
        c = var("cid", 2)
        rel = FunctionalRelation.from_rows([c], [(0, 1.0)], name="r")
        with pytest.raises(SchemaError):
            alter_domain(rel, {"cid": 1}, {"cid": 0}, SUM_PRODUCT)


class TestPatch:
    def test_ratio_relation(self):
        a = var("a", 3)
        rel = FunctionalRelation.from_rows(
            [a], [(0, 2.0), (1, 4.0)], name="r"
        )
        patch = measure_ratio_relation(rel, {"a": 1}, 8.0, SUM_PRODUCT)
        assert patch.ntuples == 1
        assert patch.value_at({"a": 1}) == pytest.approx(2.0)

    def test_apply_patch_left_outer(self):
        a, b = var("a", 2), var("b", 2)
        target = FunctionalRelation.from_rows(
            [a, b], [(0, 0, 1.0), (0, 1, 2.0), (1, 0, 3.0)], name="t"
        )
        patch = FunctionalRelation.from_rows([a], [(0, 10.0)], name="p")
        out = apply_patch(target, patch, SUM_PRODUCT)
        assert out.value_at({"a": 0, "b": 0}) == 10.0
        assert out.value_at({"a": 0, "b": 1}) == 20.0
        assert out.value_at({"a": 1, "b": 0}) == 3.0  # untouched

    def test_patch_vars_must_be_subset(self):
        a, b = var("a", 2), var("b", 2)
        target = FunctionalRelation.from_rows([a], [(0, 1.0)], name="t")
        patch = FunctionalRelation.from_rows(
            [a, b], [(0, 0, 2.0)], name="p"
        )
        with pytest.raises(SchemaError):
            apply_patch(target, patch, SUM_PRODUCT)


class TestIncrementalCacheUpdate:
    def test_matches_rebuild(self, tiny_supply_chain):
        """The incremental alternate-measure path equals rebuilding the
        cache from the patched base relation."""
        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        cache = build_ve_cache(relations, SUM_PRODUCT)

        contracts = sc.catalog.relation("contracts")
        pid0 = int(contracts.columns["pid"][0])
        sid0 = int(contracts.columns["sid"][0])
        assignment = {"pid": pid0, "sid": sid0}

        updated = cache.with_alternate_measure(
            "contracts", assignment, 777.0
        )
        patched = [
            alter_measure(r, assignment, 777.0)
            if r.name == "contracts" else r
            for r in relations
        ]
        rebuilt = build_ve_cache(
            patched, SUM_PRODUCT, order=list(cache.elimination_order)
        )
        for v in ("pid", "sid", "wid", "cid", "tid"):
            assert updated.answer(v).equals(
                rebuilt.answer(v), SUM_PRODUCT, ignore_zero_rows=True
            ), v

    def test_matches_joint_oracle(self, tiny_supply_chain):
        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        contracts = sc.catalog.relation("contracts")
        pid0 = int(contracts.columns["pid"][0])
        sid0 = int(contracts.columns["sid"][0])
        assignment = {"pid": pid0, "sid": sid0}

        updated = cache.with_alternate_measure("contracts", assignment, 3.5)
        patched = [
            alter_measure(r, assignment, 3.5)
            if r.name == "contracts" else r
            for r in relations
        ]
        expected = marginalize(_joint(patched), ["wid"], SUM_PRODUCT)
        assert updated.answer("wid").equals(
            expected, SUM_PRODUCT, ignore_zero_rows=True
        )

    def test_composes_with_evidence(self, tiny_supply_chain):
        from repro.algebra import restrict

        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        contracts = sc.catalog.relation("contracts")
        pid0 = int(contracts.columns["pid"][0])
        sid0 = int(contracts.columns["sid"][0])
        assignment = {"pid": pid0, "sid": sid0}

        updated = cache.with_alternate_measure("contracts", assignment, 2.0)
        conditioned = updated.absorb_evidence({"tid": 1})
        patched = [
            alter_measure(r, assignment, 2.0)
            if r.name == "contracts" else r
            for r in relations
        ]
        expected = marginalize(
            restrict(_joint(patched), {"tid": 1}), ["cid"], SUM_PRODUCT
        )
        assert conditioned.answer("cid").equals(
            expected, SUM_PRODUCT, ignore_zero_rows=True
        )

    def test_successive_updates_compose(self, tiny_supply_chain):
        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        transporters = sc.catalog.relation("transporters")
        first = cache.with_alternate_measure(
            "transporters", {"tid": 0}, 5.0
        )
        second = first.with_alternate_measure(
            "transporters", {"tid": 1}, 6.0
        )
        patched = [
            alter_measure(
                alter_measure(r, {"tid": 0}, 5.0), {"tid": 1}, 6.0
            )
            if r.name == "transporters" else r
            for r in relations
        ]
        expected = marginalize(_joint(patched), ["cid"], SUM_PRODUCT)
        assert second.answer("cid").equals(
            expected, SUM_PRODUCT, ignore_zero_rows=True
        )

    def test_unknown_base_table(self, tiny_supply_chain):
        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        with pytest.raises(WorkloadError):
            cache.with_alternate_measure("ghost", {"tid": 0}, 1.0)

    def test_original_cache_unchanged(self, tiny_supply_chain):
        sc = tiny_supply_chain
        relations = [sc.catalog.relation(t) for t in sc.tables]
        cache = build_ve_cache(relations, SUM_PRODUCT)
        before = cache.answer("tid")
        cache.with_alternate_measure("transporters", {"tid": 0}, 99.0)
        after = cache.answer("tid")
        assert before.equals(after, SUM_PRODUCT)


class TestEngineHypothetical:
    @pytest.fixture
    def db(self, tiny_supply_chain):
        from repro import Database

        database = Database()
        for t in tiny_supply_chain.tables:
            database.register(tiny_supply_chain.catalog.relation(t))
        database.create_view("invest", tiny_supply_chain.tables)
        return database

    def _query(self, db, group_by):
        from repro.query import MPFQuery, MPFView

        view = MPFView("invest", db._views["invest"].view_tables,
                       SUM_PRODUCT)
        return MPFQuery(view, (group_by,))

    def test_alternate_measure_query(self, db, tiny_supply_chain):
        sc = tiny_supply_chain
        contracts = sc.catalog.relation("contracts")
        pid0 = int(contracts.columns["pid"][0])
        sid0 = int(contracts.columns["sid"][0])
        query = self._query(db, "wid")
        hypothetical = db.run_hypothetical(
            query,
            measure_updates={
                "contracts": ({"pid": pid0, "sid": sid0}, 1234.5)
            },
        )
        factual = db.run_query(query)
        # The hypothetical repricing must change the answer...
        assert not hypothetical.result.equals(factual.result, SUM_PRODUCT)
        # ...and match the oracle over patched relations.
        patched = [
            alter_measure(
                sc.catalog.relation(t), {"pid": pid0, "sid": sid0}, 1234.5
            )
            if t == "contracts" else sc.catalog.relation(t)
            for t in sc.tables
        ]
        expected = marginalize(_joint(patched), ["wid"], SUM_PRODUCT)
        assert hypothetical.result.equals(expected, SUM_PRODUCT)

    def test_alternate_domain_query(self, db, tiny_supply_chain):
        sc = tiny_supply_chain
        deals = sc.catalog.relation("ctdeals")
        cid0 = int(deals.columns["cid"][0])
        tid0 = int(deals.columns["tid"][0])
        new_tid = (tid0 + 1) % sc.catalog.variable("tid").size
        query = self._query(db, "cid")
        hypothetical = db.run_hypothetical(
            query,
            domain_updates={
                "ctdeals": ({"cid": cid0, "tid": tid0}, {"tid": new_tid})
            },
        )
        patched = [
            alter_domain(
                sc.catalog.relation(t),
                {"cid": cid0, "tid": tid0},
                {"tid": new_tid},
                SUM_PRODUCT,
            )
            if t == "ctdeals" else sc.catalog.relation(t)
            for t in sc.tables
        ]
        expected = marginalize(_joint(patched), ["cid"], SUM_PRODUCT)
        assert hypothetical.result.equals(
            expected, SUM_PRODUCT, ignore_zero_rows=True
        )

    def test_real_catalog_untouched(self, db, tiny_supply_chain):
        sc = tiny_supply_chain
        query = self._query(db, "wid")
        before = db.run_query(query).result
        db.run_hypothetical(
            query,
            measure_updates={"transporters": ({"tid": 0}, 99.0)},
        )
        after = db.run_query(query).result
        assert before.equals(after, SUM_PRODUCT)

    def test_update_on_foreign_table_rejected(self, db):
        from repro.errors import QueryError

        query = self._query(db, "wid")
        with pytest.raises(QueryError):
            db.run_hypothetical(
                query, measure_updates={"ghost": ({"tid": 0}, 1.0)}
            )

    def test_plans_and_finishes_like_run_query(self, tiny_supply_chain):
        """The shared plan step honours the injected clock and counts
        the optimizer's work; the shared finish reports linearity."""
        from repro import Database

        ticks = iter(range(1_000))
        db = Database(clock=lambda: float(next(ticks)))
        for t in tiny_supply_chain.tables:
            db.register(tiny_supply_chain.catalog.relation(t))
        db.create_view("invest", tiny_supply_chain.tables)
        query = self._query(db, "wid")
        report = db.run_hypothetical(
            query, measure_updates={"transporters": ({"tid": 0}, 99.0)}
        )
        # Two reads of the injected clock, one tick apart.
        assert report.optimization.planning_seconds == 1.0
        assert report.linearity == db.run_query(query).linearity
        assert report.linearity.variable == "wid"
        snap = db.metrics_snapshot()
        assert snap.get("queries.total", status="ok") == 2
        assert snap.get("optimizer.plans_considered") == (
            2 * report.optimization.plans_considered
        )
