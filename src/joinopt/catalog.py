"""Schema statistics and join-graph query representation.

Catalog files and workload files are JSON documents.  A catalog file carries
the top-level keys ``tables``, ``selectivities`` and ``default_selectivity``;
a workload file carries the top-level key ``queries``.  The exact field names
are part of this repo's contract and are validated on load.
"""

from __future__ import annotations

import json
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

__all__ = [
    "TableStats",
    "Catalog",
    "Query",
    "CatalogError",
    "WorkloadError",
    "load_catalog",
    "load_workload",
    "catalog_from_doc",
    "workload_from_doc",
    "edge_key",
]


class CatalogError(ValueError):
    """Raised when a catalog file is malformed or violates an invariant."""


class WorkloadError(ValueError):
    """Raised when a workload file is malformed or violates an invariant."""


def edge_key(a: str, b: str) -> tuple[str, str]:
    """Canonical unordered key for a join edge between two tables."""
    return (a, b) if a <= b else (b, a)


@dataclass(frozen=True)
class TableStats:
    name: str
    row_count: int
    row_width_bytes: int
    filter_selectivity: float = 1.0

    def __post_init__(self):
        if not self.name:
            raise CatalogError("table name must be nonempty")
        if self.row_count < 1:
            raise CatalogError(f"table {self.name!r}: row_count must be >= 1")
        if self.row_width_bytes < 1:
            raise CatalogError(f"table {self.name!r}: row_width_bytes must be >= 1")
        if not (0.0 < self.filter_selectivity <= 1.0):
            raise CatalogError(
                f"table {self.name!r}: filter selectivity out of range (0, 1]"
            )

    @property
    def base_rows(self) -> float:
        """Rows surviving the per-table base predicate."""
        return self.row_count * self.filter_selectivity


@dataclass(frozen=True)
class Catalog:
    """Immutable schema statistics: tables plus per-edge join selectivities."""

    tables: tuple[TableStats, ...]
    join_selectivities: Mapping[tuple[str, str], float]
    default_selectivity: float = 0.1

    def __post_init__(self):
        names = [t.name for t in self.tables]
        seen = set()
        for name in names:
            if name in seen:
                raise CatalogError(f"duplicate table {name!r}")
            seen.add(name)
        if not (0.0 < self.default_selectivity <= 1.0):
            raise CatalogError("default selectivity out of range (0, 1]")
        normalized = {}
        for pair, sel in dict(self.join_selectivities).items():
            a, b = pair
            if a not in seen or b not in seen:
                raise CatalogError(f"selectivity references unknown table in {pair!r}")
            if a == b:
                raise CatalogError(f"self-join selectivity not allowed: {pair!r}")
            if not (0.0 < sel <= 1.0):
                raise CatalogError(f"selectivity out of range (0, 1] for pair {pair!r}")
            normalized[edge_key(a, b)] = float(sel)
        object.__setattr__(self, "join_selectivities", normalized)
        object.__setattr__(
            self, "_by_name", {t.name: t for t in self.tables}
        )

    def table(self, name: str) -> TableStats:
        try:
            return self._by_name[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}") from None

    def edge_selectivity(self, a: str, b: str) -> float:
        return self.join_selectivities.get(edge_key(a, b), self.default_selectivity)

    @property
    def table_names(self) -> tuple[str, ...]:
        return tuple(t.name for t in self.tables)


@dataclass(frozen=True)
class Query:
    """A join query: relations, join edges, and pre-tokenized operator/operand
    bags used for complexity scoring.  No SQL is parsed anywhere."""

    id: str
    relations: tuple[str, ...]
    join_edges: frozenset[tuple[str, str]]
    operator_tokens: Mapping[str, int] = field(default_factory=dict)
    operand_tokens: Mapping[str, int] = field(default_factory=dict)
    predicate_count: int = 0

    def __post_init__(self):
        if len(self.relations) < 2:
            raise WorkloadError(f"query {self.id!r}: needs at least 2 relations")
        if len(set(self.relations)) != len(self.relations):
            raise WorkloadError(f"query {self.id!r}: duplicate relation")
        rels = set(self.relations)
        edges = frozenset(edge_key(a, b) for a, b in self.join_edges)
        for a, b in edges:
            if a == b:
                raise WorkloadError(f"query {self.id!r}: self-join edge {a!r}")
            if a not in rels or b not in rels:
                raise WorkloadError(
                    f"query {self.id!r}: edge ({a!r}, {b!r}) references a "
                    "relation outside the query"
                )
        object.__setattr__(self, "join_edges", edges)
        if not _connected(self.relations, edges):
            raise WorkloadError(f"query {self.id!r}: disconnected join graph")
        for bag, label in ((self.operator_tokens, "operator"), (self.operand_tokens, "operand")):
            if not bag:
                raise WorkloadError(f"query {self.id!r}: empty {label} token bag")
            for tok, count in bag.items():
                if count < 1:
                    raise WorkloadError(
                        f"query {self.id!r}: {label} token {tok!r} has count {count}"
                    )
        object.__setattr__(self, "operator_tokens", dict(self.operator_tokens))
        object.__setattr__(self, "operand_tokens", dict(self.operand_tokens))
        if self.predicate_count < 0:
            raise WorkloadError(f"query {self.id!r}: negative predicate_count")

    def edges_between(self, left: Iterable[str], right: Iterable[str]) -> bool:
        """True when at least one join edge runs between the two relation sets."""
        left, right = set(left), set(right)
        return any(
            (a in left and b in right) or (a in right and b in left)
            for a, b in self.join_edges
        )


def _connected(relations: Iterable[str], edges: frozenset[tuple[str, str]]) -> bool:
    rels = list(relations)
    adjacency = {r: set() for r in rels}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)
    seen = {rels[0]}
    frontier = [rels[0]]
    while frontier:
        for nxt in adjacency[frontier.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return len(seen) == len(rels)


def _load_json(path, error_cls):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise error_cls(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise error_cls(
            f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}"
        ) from None


def _require(doc: Mapping, key: str, where, error_cls):
    if key not in doc:
        raise error_cls(f"{where}: missing required key {key!r}")
    return doc[key]


def load_catalog(path) -> Catalog:
    """Load and validate a catalog file (see ``catalog_from_doc``)."""
    return catalog_from_doc(_load_json(path, CatalogError), path)


def catalog_from_doc(doc, where) -> Catalog:
    """Build and validate a catalog from its JSON document.

    Raises CatalogError, prefixed with ``where``, with the offending field
    named when the document is malformed or an invariant (unique names,
    selectivity ranges) is violated.
    """
    if not isinstance(doc, dict):
        raise CatalogError(f"{where}: top level must be an object")
    tables_raw = _require(doc, "tables", where, CatalogError)
    sel_raw = _require(doc, "selectivities", where, CatalogError)
    tables = []
    for i, entry in enumerate(tables_raw):
        try:
            tables.append(
                TableStats(
                    name=str(entry["name"]),
                    row_count=int(entry["row_count"]),
                    row_width_bytes=int(entry["row_width_bytes"]),
                    filter_selectivity=float(entry.get("filter_selectivity", 1.0)),
                )
            )
        except KeyError as exc:
            raise CatalogError(f"{where}: tables[{i}]: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"{where}: tables[{i}]: {exc}") from None
    selectivities = {}
    for i, entry in enumerate(sel_raw):
        try:
            a, b = entry["tables"]
            selectivities[edge_key(str(a), str(b))] = float(entry["selectivity"])
        except KeyError as exc:
            raise CatalogError(
                f"{where}: selectivities[{i}]: missing field {exc.args[0]!r}"
            ) from None
        except (TypeError, ValueError) as exc:
            raise CatalogError(f"{where}: selectivities[{i}]: {exc}") from None
    try:
        return Catalog(
            tables=tuple(tables),
            join_selectivities=selectivities,
            default_selectivity=float(doc.get("default_selectivity", 0.1)),
        )
    except CatalogError as exc:
        raise CatalogError(f"{where}: {exc}") from None


def load_workload(path, catalog: Catalog) -> list[Query]:
    """Load a workload file against a catalog (see ``workload_from_doc``)."""
    return workload_from_doc(_load_json(path, WorkloadError), catalog, path)


def workload_from_doc(doc, catalog: Catalog, where) -> list[Query]:
    """Build a workload from its JSON document against a catalog.

    Every referenced table must exist in the catalog; query ids must be
    unique and each join graph connected.  Raises WorkloadError prefixed
    with ``where``.
    """
    if not isinstance(doc, dict):
        raise WorkloadError(f"{where}: top level must be an object")
    queries_raw = _require(doc, "queries", where, WorkloadError)
    known = set(catalog.table_names)
    queries = []
    ids = set()
    for i, entry in enumerate(queries_raw):
        try:
            qid = str(entry["id"])
            relations = tuple(str(r) for r in entry["relations"])
            edges = frozenset(
                edge_key(str(a), str(b)) for a, b in entry["join_edges"]
            )
            query = Query(
                id=qid,
                relations=relations,
                join_edges=edges,
                operator_tokens={str(k): int(v) for k, v in entry["operator_tokens"].items()},
                operand_tokens={str(k): int(v) for k, v in entry["operand_tokens"].items()},
                predicate_count=int(entry.get("predicate_count", 0)),
            )
        except KeyError as exc:
            raise WorkloadError(f"{where}: queries[{i}]: missing field {exc.args[0]!r}") from None
        except (TypeError, ValueError) as exc:
            raise WorkloadError(f"{where}: queries[{i}]: {exc}") from None
        if query.id in ids:
            raise WorkloadError(f"{where}: duplicate query id {query.id!r}")
        ids.add(query.id)
        for rel in query.relations:
            if rel not in known:
                raise WorkloadError(
                    f"{where}: query {query.id!r}: unknown table {rel!r}"
                )
        queries.append(query)
    return queries
