import copy
import math

import pytest

from joinopt.catalog import (
    Catalog,
    CatalogError,
    Query,
    TableStats,
    WorkloadError,
    load_catalog,
    load_workload,
)

from conftest import write_json


STAR3 = {
    "tables": [
        {"name": "fact", "row_count": 1000, "row_width_bytes": 32},
        {"name": "dim1", "row_count": 100, "row_width_bytes": 16, "filter_selectivity": 0.5},
        {"name": "dim2", "row_count": 200, "row_width_bytes": 16},
    ],
    "selectivities": [
        {"tables": ["fact", "dim1"], "selectivity": 0.01},
        {"tables": ["fact", "dim2"], "selectivity": 0.005},
    ],
    "default_selectivity": 0.1,
}


def test_load_catalog_round_trip(tmp_path):
    path = write_json(tmp_path / "catalog.json", STAR3)
    catalog = load_catalog(path)
    assert len(catalog.tables) == 3
    assert len(catalog.join_selectivities) == 2
    assert catalog.table("dim1").filter_selectivity == 0.5
    assert catalog.edge_selectivity("dim1", "fact") == 0.01
    # unordered lookup and default fallback
    assert catalog.edge_selectivity("dim1", "dim2") == 0.1


def test_load_catalog_selectivity_out_of_range(tmp_path):
    doc = {
        "tables": STAR3["tables"],
        "selectivities": [{"tables": ["fact", "dim1"], "selectivity": 0.0}],
    }
    path = write_json(tmp_path / "catalog.json", doc)
    with pytest.raises(CatalogError, match="selectivity out of range"):
        load_catalog(path)


def test_load_catalog_duplicate_table(tmp_path):
    doc = {
        "tables": STAR3["tables"] + [{"name": "fact", "row_count": 5, "row_width_bytes": 8}],
        "selectivities": [],
    }
    path = write_json(tmp_path / "catalog.json", doc)
    with pytest.raises(CatalogError, match="duplicate table"):
        load_catalog(path)


def test_load_catalog_missing_file(tmp_path):
    with pytest.raises(CatalogError, match="not found"):
        load_catalog(tmp_path / "nope.json")


def test_load_catalog_bad_json_has_line_info(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_text('{"tables": [,]}')
    with pytest.raises(CatalogError, match=r"catalog\.json:1:\d+"):
        load_catalog(path)


def test_load_catalog_integer_past_the_digit_limit_names_file(tmp_path):
    """json refuses an integer literal of more than 4300 digits with a bare
    ValueError, which used to reach the command line without the file."""
    path = tmp_path / "catalog.json"
    path.write_text('{"default_selectivity": ' + "1" * 5000 + "}")
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    message = str(exc.value)
    assert message.startswith(f"{path}: invalid JSON: Exceeds the limit") and "\n" not in message


def test_load_catalog_not_utf8_names_file(tmp_path):
    path = tmp_path / "catalog.json"
    path.write_bytes(b'{"tables": "\xff"}')
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}: not UTF-8 text: invalid start byte at byte 12"


def test_table_stats_validation():
    with pytest.raises(CatalogError, match="row_count"):
        TableStats("t", 0, 8)
    with pytest.raises(CatalogError, match="selectivity out of range"):
        TableStats("t", 10, 8, filter_selectivity=1.5)


def test_catalog_rejects_unknown_pair():
    with pytest.raises(CatalogError, match="unknown table"):
        Catalog(
            tables=(TableStats("a", 1, 1),),
            join_selectivities={("a", "ghost"): 0.5},
        )


def _workload_doc(queries):
    return {"queries": queries}


def _query_entry(qid, relations, edges, **extra):
    entry = {
        "id": qid,
        "relations": relations,
        "join_edges": edges,
        "operator_tokens": {"SELECT": 1, "FROM": 1, "JOIN": len(edges)},
        "operand_tokens": {r: 1 for r in relations},
    }
    entry.update(extra)
    return entry


def test_load_workload_ten_queries(tmp_path):
    catalog = load_catalog(write_json(tmp_path / "catalog.json", STAR3))
    queries = [
        _query_entry(f"q{i}", ["fact", "dim1"], [["fact", "dim1"]]) for i in range(10)
    ]
    path = write_json(tmp_path / "workload.json", _workload_doc(queries))
    loaded = load_workload(path, catalog)
    assert len(loaded) == 10
    assert len({q.id for q in loaded}) == 10


def test_load_workload_two_relation_query(tmp_path):
    catalog = load_catalog(write_json(tmp_path / "catalog.json", STAR3))
    path = write_json(
        tmp_path / "w.json",
        _workload_doc([_query_entry("q0", ["fact", "dim2"], [["fact", "dim2"]])]),
    )
    (query,) = load_workload(path, catalog)
    assert len(query.relations) == 2
    assert query.join_edges == frozenset({("dim2", "fact")})


def test_load_workload_unknown_table(tmp_path):
    catalog = load_catalog(write_json(tmp_path / "catalog.json", STAR3))
    path = write_json(
        tmp_path / "w.json",
        _workload_doc([_query_entry("q0", ["fact", "ghost"], [["fact", "ghost"]])]),
    )
    with pytest.raises(WorkloadError, match="unknown table"):
        load_workload(path, catalog)


def test_load_workload_duplicate_id(tmp_path):
    catalog = load_catalog(write_json(tmp_path / "catalog.json", STAR3))
    entry = _query_entry("q0", ["fact", "dim1"], [["fact", "dim1"]])
    path = write_json(tmp_path / "w.json", _workload_doc([entry, entry]))
    with pytest.raises(WorkloadError, match="duplicate query id"):
        load_workload(path, catalog)


# (file, where the bad value goes, the value, the error after the file name)
MALFORMED = [
    ("catalog", ["tables"], 5, "'tables' must be a list, got 5"),
    ("catalog", ["selectivities"], {}, "'selectivities' must be a list, got {}"),
    ("workload", ["queries"], 7, "'queries' must be a list, got 7"),
    ("catalog", ["tables", 1], "dim1", 'tables[1]: must be an object, got "dim1"'),
    ("workload", ["queries", 0], ["q0"], 'queries[0]: must be an object, got ["q0"]'),
    (
        "workload", ["queries", 0, "operator_tokens"], [1, 2],
        "queries[0]: 'operator_tokens' must be an object of integer counts, got [1, 2]",
    ),
    (
        "workload", ["queries", 0, "join_edges"], [["fact"]],
        "queries[0]: 'join_edges' must be a list of table-name pairs, got [[\"fact\"]]",
    ),
    (
        "catalog", ["selectivities", 0, "tables"], ["fact"],
        "selectivities[0]: 'tables' must be a pair of table names, got [\"fact\"]",
    ),
    ("catalog", ["default_selectivity"], "x", "'default_selectivity' must be a finite number, got \"x\""),
    (
        "catalog", ["tables", 0, "filter_selectivity"], math.nan,
        "tables[0]: 'filter_selectivity' must be a finite number, got NaN",
    ),
    ("catalog", ["tables", 0, "row_count"], 12.7, "tables[0]: 'row_count' must be an integer, got 12.7"),
    ("catalog", ["tables", 0, "row_count"], True, "tables[0]: 'row_count' must be an integer, got true"),
    (
        "catalog", ["tables", 0, "row_count"], "1000",
        "tables[0]: 'row_count' must be an integer, got \"1000\"",
    ),
    (
        "catalog", ["tables", 0, "row_count"], 2**53 + 1,
        "tables[0]: 'row_count' must be an integer, got 9007199254740993",
    ),
    (
        "catalog", ["default_selectivity"], -(2**53) - 1,
        "'default_selectivity' must be a finite number, got -9007199254740993",
    ),
    ("catalog", ["comment"], "x", "unknown key 'comment'"),
    ("catalog", ["tables", 2, "rows"], 200, "tables[2]: unknown key 'rows'"),
    ("workload", ["comment"], "x", "unknown key 'comment'"),
    ("workload", ["queries", 0, "sql"], "SELECT 1", "queries[0]: unknown key 'sql'"),
    (
        "catalog", ["selectivities", 1, "tables"], ["dim1", "fact"],
        "selectivities[1]: duplicate selectivity for ('dim1', 'fact')",
    ),
    (
        "catalog", ["selectivities", 1], {"tables": ["fact", "dim1"], "selectivity": 0.5},
        "selectivities[1]: duplicate selectivity for ('dim1', 'fact')",
    ),
]


@pytest.mark.parametrize(
    "kind, path, value, message",
    MALFORMED,
    ids=[f"{k}:{'.'.join(map(str, p))}:{type(v).__name__}" for k, p, v, _ in MALFORMED],
)
def test_malformed_document_names_entry_and_key(tmp_path, kind, path, value, message):
    docs = {
        "catalog": copy.deepcopy(STAR3),
        "workload": _workload_doc([_query_entry("q0", ["fact", "dim1"], [["fact", "dim1"]])]),
    }
    target = docs[kind]
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    catalog_path = write_json(tmp_path / "catalog.json", docs["catalog"])
    workload_path = write_json(tmp_path / "workload.json", docs["workload"])
    bad_path, error = {
        "catalog": (catalog_path, CatalogError),
        "workload": (workload_path, WorkloadError),
    }[kind]
    with pytest.raises(error) as exc:
        load_workload(workload_path, load_catalog(catalog_path))
    assert str(exc.value) == f"{bad_path}: {message}"


@pytest.mark.parametrize(
    "value, shown",
    [
        (10**19, "10000000000000000000"),
        (10**20, "10000000...0000 (21 digits)"),
        (-(10**25) - 7, "-1000000...0007 (26 digits)"),
        (10**400, "10000000...0000 (401 digits)"),
    ],
    ids=["20-digits", "21-digits", "negative-26-digits", "401-digits"],
)
def test_an_integer_of_more_than_20_digits_is_shortened_in_the_error(tmp_path, value, shown):
    """The refusal of an integer float64 cannot hold shows one of more than
    20 digits by its first and last digits and its digit count, not in
    full."""
    doc = copy.deepcopy(STAR3)
    doc["tables"][0]["row_count"] = value
    path = write_json(tmp_path / "catalog.json", doc)
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}: tables[0]: 'row_count' must be an integer, got {shown}"


@pytest.mark.parametrize(
    "value, shown",
    [
        ([10**60], "[10000000...0000 (61 digits)]"),
        (
            [1, {"rows": -(10**30), "name": "a"}, [10**19]],
            '[1, {"rows": -1000000...0000 (31 digits), "name": "a"}, [10000000000000000000]]',
        ),
        ([], "[]"),
    ],
    ids=["in-a-list", "in-an-object-in-a-list", "empty-list"],
)
def test_an_integer_of_more_than_20_digits_is_shortened_inside_a_refused_value(
    tmp_path, value, shown
):
    """An over-long integer is shortened wherever it sits in the refused
    value; the rest of the value is shown as JSON, as before."""
    doc = copy.deepcopy(STAR3)
    doc["tables"][1] = value
    path = write_json(tmp_path / "catalog.json", doc)
    with pytest.raises(CatalogError) as exc:
        load_catalog(path)
    assert str(exc.value) == f"{path}: tables[1]: must be an object, got {shown}"


def test_query_requires_connected_graph():
    with pytest.raises(WorkloadError, match="disconnected"):
        Query(
            id="q",
            relations=("a", "b", "c"),
            join_edges=frozenset({("a", "b")}),
            operator_tokens={"SELECT": 1},
            operand_tokens={"a": 1},
        )


def test_query_requires_two_relations():
    with pytest.raises(WorkloadError, match="at least 2"):
        Query(
            id="q",
            relations=("a",),
            join_edges=frozenset(),
            operator_tokens={"SELECT": 1},
            operand_tokens={"a": 1},
        )


def test_query_requires_token_bags():
    with pytest.raises(WorkloadError, match="empty operator token bag"):
        Query(
            id="q",
            relations=("a", "b"),
            join_edges=frozenset({("a", "b")}),
            operator_tokens={},
            operand_tokens={"a": 1},
        )
