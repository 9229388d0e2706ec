"""The system catalog: named base relations, their stats, and heap files.

Optimizers consult only the catalog (never the data) — exactly the
setting of the paper, where plan choice is driven by catalog
cardinalities and domain sizes.  Executors additionally fetch the
relations themselves and their heap files for IO accounting.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.catalog.statistics import TableStats
from repro.data.domain import Variable
from repro.data.relation import FunctionalRelation
from repro.errors import CatalogError, SchemaError
from repro.storage.heapfile import HeapFile
from repro.storage.index import HashIndex
from repro.storage.page import DEFAULT_PAGE_SIZE
from repro.storage.partition import PartitionSpec, Sharded, shard_major

__all__ = ["Catalog"]


class Catalog:
    """Registry of base functional relations.

    Registration validates that variables shared across relations refer
    to the same domain, mirroring the schema-level consistency an RDBMS
    enforces through foreign keys.
    """

    def __init__(self, page_size: int = DEFAULT_PAGE_SIZE):
        self._relations: dict[str, FunctionalRelation] = {}
        self._stats: dict[str, TableStats] = {}
        self._heapfiles: dict[str, HeapFile] = {}
        self._indexes: dict[tuple[str, str], HashIndex] = {}
        self._partitions: dict[str, PartitionSpec] = {}
        self._sharded: dict[str, Sharded] = {}
        self._shard_files: dict[str, list[HeapFile]] = {}
        self._variables: dict[str, Variable] = {}
        self._page_size = page_size
        self._next_file_id = 1
        self._epoch = 0

    @property
    def stats_epoch(self) -> int:
        """Version counter for catalog statistics.

        Bumped whenever plan-relevant catalog state changes — a table
        registered, reloaded (:meth:`replace`), or indexed.  Plan
        caches key on it so a plan chosen against stale statistics is
        never served after the catalog moves on.
        """
        return self._epoch

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------
    def register(self, relation: FunctionalRelation, name: str | None = None) -> str:
        """Add a base relation; returns its catalog name."""
        name = name or relation.name
        if not name:
            raise CatalogError("relation must have a name to be registered")
        if name in self._relations:
            raise CatalogError(f"table {name!r} already registered")
        for v in relation.variables:
            known = self._variables.get(v.name)
            if known is not None and (
                known.domain.name != v.domain.name
                or known.domain.size != v.domain.size
            ):
                raise SchemaError(
                    f"variable {v.name!r} in table {name!r} conflicts with "
                    f"existing domain {known.domain!r}"
                )
        relation = relation.with_name(name)
        self._relations[name] = relation
        self._stats[name] = TableStats.from_relation(relation)
        self._heapfiles[name] = HeapFile.for_relation(
            self._next_file_id, relation, self._page_size
        )
        self._next_file_id += 1
        for v in relation.variables:
            self._variables.setdefault(v.name, v)
        self._epoch += 1
        return name

    def replace(self, relation: FunctionalRelation, name: str | None = None) -> str:
        """Reload a registered table: new data, fresh statistics.

        The heap file is rebuilt under a fresh file id (stale buffered
        pages of the old file simply age out of the pool), indexes on
        the table are dropped (they describe the old rows), and the
        statistics epoch advances so stats-keyed plan caches stop
        serving plans costed against the old data.
        """
        name = name or relation.name
        if name not in self._relations:
            raise CatalogError(
                f"cannot replace unregistered table {name!r}"
            )
        for v in relation.variables:
            known = self._variables.get(v.name)
            if known is None or (
                known.domain.name == v.domain.name
                and known.domain.size == v.domain.size
            ):
                continue
            shared = any(
                v.name in rel.variables
                for other, rel in self._relations.items()
                if other != name
            )
            if shared:
                raise SchemaError(
                    f"variable {v.name!r} in table {name!r} conflicts with "
                    f"existing domain {known.domain!r}"
                )
        relation = relation.with_name(name)
        self._relations[name] = relation
        self._stats[name] = TableStats.from_relation(relation)
        self._heapfiles[name] = HeapFile.for_relation(
            self._next_file_id, relation, self._page_size
        )
        self._next_file_id += 1
        for key in [k for k in self._indexes if k[0] == name]:
            del self._indexes[key]
        for v in relation.variables:
            self._variables[v.name] = v
        spec = self._partitions.pop(name, None)
        self._sharded.pop(name, None)
        self._shard_files.pop(name, None)
        self._epoch += 1
        if spec is not None:
            # Reloaded data keeps the table's declared partitioning.
            self.partition_table(name, spec.key, spec.shards)
        return name

    def register_all(self, relations: Iterable[FunctionalRelation]) -> list[str]:
        return [self.register(r) for r in relations]

    def create_index(self, table: str, variable: str) -> HashIndex:
        """Build a hash index on ``table(variable)``.

        The equality access path of Section 5.4's discussion: with an
        index, a constrained-domain selection can probe instead of
        scanning.
        """
        relation = self.relation(table)
        key = (table, variable)
        if key in self._indexes:
            raise CatalogError(f"index on {table}({variable}) exists")
        index = HashIndex(self._next_file_id, relation, variable)
        self._next_file_id += 1
        self._indexes[key] = index
        self._epoch += 1
        return index

    def index_on(self, table: str, variable: str) -> HashIndex | None:
        """The hash index on ``table(variable)``, if one was created."""
        return self._indexes.get((table, variable))

    # ------------------------------------------------------------------
    # Partitioning
    # ------------------------------------------------------------------
    def partition_table(
        self, name: str, key: str, shards: int
    ) -> PartitionSpec:
        """Hash-partition a registered table by one of its variables.

        The table's rows are split into ``shards`` co-located heap
        files by the deterministic bucket function of
        :mod:`repro.storage.partition`, and held once more in
        shard-major order for the runtime (:meth:`sharded`); the
        full-table heap file is kept (unsharded consumers and the
        optimizer still see one table).  Re-partitioning replaces the
        previous decomposition.
        The statistics epoch advances: physical layout is plan-relevant
        to the runtime's shard-wise execution.
        """
        relation = self.relation(name)
        if key not in relation.columns:
            raise CatalogError(
                f"partitioning key {key!r} is not a variable of table "
                f"{name!r} (has {list(relation.var_names)})"
            )
        spec = PartitionSpec(key, shards)
        sharded = Sharded(spec, *shard_major(relation, key, shards))
        files = []
        for n in sharded.sizes:
            files.append(
                HeapFile(self._next_file_id, n, relation.arity, self._page_size)
            )
            self._next_file_id += 1
        self._partitions[name] = spec
        self._sharded[name] = sharded
        self._shard_files[name] = files
        self._epoch += 1
        return spec

    def snapshot_view(self) -> "Catalog":
        """A frozen shallow clone of the catalog at the current epoch.

        Serving-side snapshot isolation (``repro.serve``): the clone
        shares every immutable component — relations, statistics, heap
        files, indexes, shard decompositions — so taking one is O(number
        of tables), and readers holding it keep seeing the pre-reload
        data after :meth:`replace` swaps new objects into *this*
        catalog.  Safe because reloads never mutate the old objects:
        ``replace`` installs a fresh heap file under a fresh file id
        (the checkpoint manifest relies on the same contract), so stale
        pages of the cloned catalog's files stay readable through the
        shared buffer pool until the clone is dropped.
        """
        clone = Catalog(self._page_size)
        clone._relations = dict(self._relations)
        clone._stats = dict(self._stats)
        clone._heapfiles = dict(self._heapfiles)
        clone._indexes = dict(self._indexes)
        clone._partitions = dict(self._partitions)
        clone._sharded = dict(self._sharded)
        clone._shard_files = {k: list(v) for k, v in self._shard_files.items()}
        clone._variables = dict(self._variables)
        clone._next_file_id = self._next_file_id
        clone._epoch = self._epoch
        return clone

    def partition_spec(self, name: str) -> PartitionSpec | None:
        """The table's :class:`PartitionSpec`, or ``None`` if unpartitioned."""
        return self._partitions.get(name)

    @property
    def partitioned_tables(self) -> tuple[str, ...]:
        return tuple(self._partitions)

    @property
    def has_partitions(self) -> bool:
        return bool(self._partitions)

    def sharded(self, name: str) -> Sharded:
        """The table's rows in shard-major order, with shard offsets."""
        try:
            return self._sharded[name]
        except KeyError:
            raise CatalogError(f"table {name!r} is not partitioned") from None

    def shard_heapfiles(self, name: str) -> list[HeapFile]:
        try:
            return self._shard_files[name]
        except KeyError:
            raise CatalogError(f"table {name!r} is not partitioned") from None

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(self._relations)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation(self, name: str) -> FunctionalRelation:
        try:
            return self._relations[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def stats(self, name: str) -> TableStats:
        try:
            return self._stats[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def heapfile(self, name: str) -> HeapFile:
        try:
            return self._heapfiles[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def variable(self, name: str) -> Variable:
        try:
            return self._variables[name]
        except KeyError:
            raise CatalogError(f"unknown variable {name!r}") from None

    @property
    def variable_names(self) -> tuple[str, ...]:
        return tuple(self._variables)

    def tables_with_variable(self, var_name: str) -> tuple[str, ...]:
        """``rels(v)`` in Algorithm 2: tables containing the variable."""
        return tuple(
            name
            for name, rel in self._relations.items()
            if var_name in rel.variables
        )

    def smallest_table_with_variable(self, var_name: str) -> TableStats:
        """``σ̂_X``: stats of the smallest base relation containing X."""
        candidates = [
            self._stats[name] for name in self.tables_with_variable(var_name)
        ]
        if not candidates:
            raise CatalogError(f"no table contains variable {var_name!r}")
        return min(candidates, key=lambda s: s.cardinality)

    def environment(self) -> Mapping[str, FunctionalRelation]:
        """Name → relation mapping for the plan executor."""
        return dict(self._relations)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Catalog(tables={list(self._relations)})"
