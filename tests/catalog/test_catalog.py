"""Unit tests for the catalog and table statistics."""

import pytest

from repro.catalog import Catalog, TableStats
from repro.data import complete_relation, random_relation, var
from repro.errors import CatalogError, SchemaError


class TestTableStats:
    def test_from_relation_exact(self, rng):
        rel = random_relation([var("a", 10), var("b", 5)], 0.5, rng, name="r")
        stats = TableStats.from_relation(rel)
        assert stats.cardinality == rel.ntuples
        assert stats.domain_size("a") == 10
        assert stats.distinct_count("a") <= 10

    def test_complete_relation_stats(self):
        rel = complete_relation([var("a", 4), var("b", 3)], name="r")
        stats = TableStats.from_relation(rel)
        assert stats.is_complete()
        assert stats.distinct_count("a") == 4

    def test_distinct_cannot_exceed_domain(self):
        with pytest.raises(CatalogError):
            TableStats("bad", 10, {"a": 3}, {"a": 5.0})

    def test_var_sets_must_agree(self):
        with pytest.raises(CatalogError):
            TableStats("bad", 10, {"a": 3}, {})
        with pytest.raises(CatalogError, match=r"disagree on \['b', 'c'\]"):
            TableStats("bad", 10, {"a": 3, "b": 2}, {"c": 1.0, "a": 1.0})

    def test_var_sets_agree_in_any_key_order(self):
        stats = TableStats("r", 10, {"a": 3, "b": 2}, {"b": 2.0, "a": 3.0})
        assert stats.variables == ("a", "b")

    def test_unknown_variable_lookup(self):
        stats = TableStats("r", 10, {"a": 3}, {"a": 3.0})
        with pytest.raises(CatalogError):
            stats.domain_size("z")
        with pytest.raises(CatalogError):
            stats.distinct_count("z")

    def test_renamed(self):
        stats = TableStats("r", 10, {"a": 3}, {"a": 3.0})
        assert stats.renamed("q").name == "q"


class TestCatalog:
    def test_register_and_lookup(self):
        cat = Catalog()
        rel = complete_relation([var("a", 3)], name="r")
        cat.register(rel)
        assert "r" in cat
        assert cat.relation("r").ntuples == 3
        assert cat.stats("r").cardinality == 3
        assert cat.heapfile("r").ntuples == 3

    def test_register_requires_name(self):
        cat = Catalog()
        rel = complete_relation([var("a", 3)])
        with pytest.raises(CatalogError):
            cat.register(rel)
        assert cat.register(rel, name="explicit") == "explicit"

    def test_duplicate_name_rejected(self):
        cat = Catalog()
        rel = complete_relation([var("a", 3)], name="r")
        cat.register(rel)
        with pytest.raises(CatalogError):
            cat.register(rel)

    def test_conflicting_domain_rejected(self):
        cat = Catalog()
        cat.register(complete_relation([var("a", 3)], name="r1"))
        with pytest.raises(SchemaError):
            cat.register(complete_relation([var("a", 5)], name="r2"))

    def test_unknown_table(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.relation("nope")

    def test_tables_with_variable(self, tiny_supply_chain):
        cat = tiny_supply_chain.catalog
        assert set(cat.tables_with_variable("pid")) == {
            "contracts", "location",
        }
        assert set(cat.tables_with_variable("tid")) == {
            "transporters", "ctdeals",
        }

    def test_smallest_table_with_variable(self, tiny_supply_chain):
        cat = tiny_supply_chain.catalog
        smallest = cat.smallest_table_with_variable("tid")
        assert smallest.name == "transporters"

    def test_no_table_with_variable(self):
        cat = Catalog()
        with pytest.raises(CatalogError):
            cat.smallest_table_with_variable("ghost")

    def test_environment_returns_all(self, tiny_supply_chain):
        env = tiny_supply_chain.catalog.environment()
        assert set(env) == set(tiny_supply_chain.tables)

    def test_variable_lookup(self, tiny_supply_chain):
        cat = tiny_supply_chain.catalog
        assert cat.variable("cid").size >= 5
        with pytest.raises(CatalogError):
            cat.variable("ghost")
