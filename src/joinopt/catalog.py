"""Schema statistics and join-graph query representation.

Catalog files and workload files are JSON documents.  A catalog file carries
the top-level keys ``tables``, ``selectivities`` and ``default_selectivity``;
a workload file carries the top-level key ``queries``.  The exact field names
are part of this repo's contract and are validated on load.

``_build`` is the one JSON-document builder: run configs, catalogs and
workloads all go through it, so one set of rules holds for every input file.
Unknown keys are refused, each value's JSON type is checked against its
dataclass field (an integer field takes only a JSON integer, and a number
field only a finite number, never NaN or Infinity; either refuses an
integer above 2**53 in magnitude), and then the dataclass's own checks
run.  Every failure is one error line naming the file, the entry
(``tables[3]``, ``queries[0]``) and the key.
"""

from __future__ import annotations

import dataclasses
import json
import math
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


def _is_int(value) -> bool:
    """A JSON integer that float64 holds exactly: the program computes row
    counts, costs and features in float64, where a larger one overflows or
    rounds."""
    return isinstance(value, int) and not isinstance(value, bool) and abs(value) <= 2**53


def _shown(value) -> str:
    """``value`` as JSON for an error message; an integer of more than 20
    digits, alone or anywhere inside a list or object, is shortened to its
    first and last digits and its digit count."""
    if isinstance(value, list):
        return f"[{', '.join(map(_shown, value))}]"
    if isinstance(value, dict):
        return "{" + ", ".join(f"{json.dumps(k)}: {_shown(v)}" for k, v in value.items()) + "}"
    text = json.dumps(value)
    digits = len(text.lstrip("-"))
    if isinstance(value, int) and digits > 20:
        return f"{text[:8]}...{text[-4:]} ({digits} digits)"
    return text


def _is_names(value) -> bool:
    return isinstance(value, list) and all(isinstance(x, str) for x in value)


def _is_pair(value) -> bool:
    return _is_names(value) and len(value) == 2


# JSON value accepted for each annotated field type: (description, check).
# The builder turns an accepted list into a tuple.
_FIELD_TYPES = {
    "int": ("an integer", _is_int),
    "float": (
        "a finite number",
        lambda v: _is_int(v) or isinstance(v, float) and math.isfinite(v),
    ),
    "bool": ("a boolean", lambda v: isinstance(v, bool)),
    "str": ("a string", lambda v: isinstance(v, str)),
    "str | None": ("a string or null", lambda v: v is None or isinstance(v, str)),
    "tuple[int, ...]": (
        "a list of positive integers",
        lambda v: isinstance(v, list) and all(_is_int(x) and x >= 1 for x in v),
    ),
    "tuple[str, ...]": ("a list of strings", _is_names),
    "tuple[str, str]": ("a pair of table names", _is_pair),
    "frozenset[tuple[str, str]]": (
        "a list of table-name pairs",
        lambda v: isinstance(v, list) and all(_is_pair(x) for x in v),
    ),
    "Mapping[str, int]": (
        "an object of integer counts",
        lambda v: isinstance(v, dict) and all(_is_int(x) for x in v.values()),
    ),
}


def _entries(cls):
    """A field read from a JSON list whose every item is an object that
    ``_build`` turns into ``cls``."""
    return field(metadata={"entries": cls})


def _build(cls, doc, where: str, error, base=None):
    """``cls`` from its JSON object: unknown keys, then each value's JSON
    type, then the dataclass's own checks; every failure raises ``error``
    prefixed with ``where``.  A field whose default is a dataclass is a
    section, and a field made by ``_entries`` a list of entries; both are
    built the same way from their own objects.  A field spelled by a ``key``
    in its metadata is a path, resolved against the directory ``base``."""
    if not isinstance(doc, dict):
        raise error(f"{where}: must be an object, got {_shown(doc)}")
    fields = {f.metadata.get("key", f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(doc) - set(fields))
    if unknown:
        raise error(f"{where}: unknown key {unknown[0]!r}")
    kwargs = {}
    for key, f in fields.items():
        if key not in doc:
            if f.default is dataclasses.MISSING:
                raise error(f"{where}: missing required key {key!r}")
            continue
        value = doc[key]
        if dataclasses.is_dataclass(f.default):
            if not isinstance(value, dict):
                raise error(f"{where}: section {key!r} must be an object")
            value = _build(type(f.default), value, f"{where}: {key}", error, base)
        elif "entries" in f.metadata:
            if not isinstance(value, list):
                raise error(f"{where}: {key!r} must be a list, got {_shown(value)}")
            value = tuple(
                _build(f.metadata["entries"], item, f"{where}: {key}[{i}]", error)
                for i, item in enumerate(value)
            )
        else:
            expected, accepts = _FIELD_TYPES[f.type]
            if not accepts(value):
                raise error(f"{where}: {key!r} must be {expected}, got {_shown(value)}")
            if "key" in f.metadata:
                value = str((base / value).resolve())
            elif isinstance(value, list):
                value = tuple(value)
        kwargs[f.name] = value
    try:
        return cls(**kwargs)
    except ValueError as exc:
        raise error(f"{where}: {exc}") from None


def _load_json(path, error):
    """The JSON object in the file at ``path``; ``error`` otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise error(f"{path}: file not found") from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}:{exc.lineno}:{exc.colno}: invalid JSON: {exc.msg}") from None
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except ValueError as exc:
        # An integer literal longer than Python converts (4300 digits).
        raise error(f"{path}: invalid JSON: {exc}") from None
    if not isinstance(doc, dict):
        raise error(f"{path}: top level must be an object")
    return doc


@dataclass(frozen=True)
class _Selectivity:
    """One entry of a catalog file's ``selectivities``."""

    tables: tuple[str, str]
    selectivity: float


@dataclass(frozen=True)
class _CatalogDoc:
    tables: tuple[TableStats, ...] = _entries(TableStats)
    selectivities: tuple[_Selectivity, ...] = _entries(_Selectivity)
    default_selectivity: float = 0.1


@dataclass(frozen=True)
class _WorkloadDoc:
    queries: tuple[Query, ...] = _entries(Query)


def load_catalog(path) -> Catalog:
    """Load and validate a catalog file (see ``catalog_from_doc``)."""
    return catalog_from_doc(_load_json(path, CatalogError), path)


def catalog_from_doc(doc, where) -> Catalog:
    """Build and validate a catalog from its JSON document.

    Raises CatalogError, prefixed with ``where``, with the offending entry
    and key named when the document is malformed or an invariant (unique
    names, one selectivity per table pair in either order, selectivity
    ranges) is violated.
    """
    doc = _build(_CatalogDoc, doc, where, CatalogError)
    pairs = [edge_key(*entry.tables) for entry in doc.selectivities]
    for i, pair in enumerate(pairs):
        if pairs.index(pair) < i:
            raise CatalogError(f"{where}: selectivities[{i}]: duplicate selectivity for {pair!r}")
    try:
        return Catalog(
            tables=doc.tables,
            join_selectivities={p: s.selectivity for p, s in zip(pairs, doc.selectivities)},
            default_selectivity=doc.default_selectivity,
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
    queries = _build(_WorkloadDoc, doc, where, WorkloadError).queries
    known = set(catalog.table_names)
    ids = set()
    for query in queries:
        if query.id in ids:
            raise WorkloadError(f"{where}: duplicate query id {query.id!r}")
        ids.add(query.id)
        for rel in query.relations:
            if rel not in known:
                raise WorkloadError(
                    f"{where}: query {query.id!r}: unknown table {rel!r}"
                )
    return list(queries)
