"""Synthetic desk-scale catalogs and workloads.

Schemas are star, chain, or snowflake shaped; row counts are log-uniform in
[1e3, 1e6] and join selectivities log-uniform in [1e-4, 0.5].  Queries sample
connected subgraphs of the schema and carry SQL-ish operator/operand token
bags derived from the join structure.  Candidate workloads are regenerated
(deterministically) until all four partitioning policies induce pairwise
distinct query orderings, so partition-policy comparisons are never
degenerate.  Everything is deterministic per seed.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np

__all__ = ["GenError", "generate", "write_files", "SHAPES"]

SHAPES = ("star", "chain", "snowflake")

_AGGREGATES = ("COUNT", "MIN", "MAX", "SUM", "AVG")

_MAX_ATTEMPTS = 200


class GenError(ValueError):
    """Raised for invalid generator parameters."""


def _log_uniform(rng, low, high):
    return math.exp(rng.uniform(math.log(low), math.log(high)))


def _schema(n_tables: int, shape: str):
    """Table names and schema join edges for the requested shape."""
    if shape == "star":
        names = ["fact"] + [f"dim{i}" for i in range(1, n_tables)]
        edges = [("fact", d) for d in names[1:]]
    elif shape == "chain":
        names = [f"t{i}" for i in range(1, n_tables + 1)]
        edges = [(a, b) for a, b in zip(names, names[1:])]
    elif shape == "snowflake":
        n_dims = max(1, (n_tables - 1) // 2)
        names = ["fact"] + [f"dim{i}" for i in range(1, n_dims + 1)]
        edges = [("fact", d) for d in names[1:]]
        sub = 0
        while len(names) < n_tables:
            parent = f"dim{sub % n_dims + 1}"
            child = f"sub{sub + 1}"
            names.append(child)
            edges.append((parent, child))
            sub += 1
    else:
        raise GenError(f"unknown schema shape {shape!r}; expected one of {SHAPES}")
    return names, edges


def _connected_subset(rng, start_pool, adjacency, size):
    """Grow a random connected relation set of the requested size."""
    current = {start_pool[int(rng.integers(len(start_pool)))]}
    while len(current) < size:
        frontier = sorted(
            {n for r in current for n in adjacency[r]} - current
        )
        current.add(frontier[int(rng.integers(len(frontier)))])
    return sorted(current)


def _tokens(rng, relations, internal_edges, predicate_count):
    """SQL-ish operator and operand bags for a join query over the relations."""
    m = len(relations)
    operators = {"SELECT": 1, "FROM": 1}
    if m > 1:
        operators["JOIN"] = m - 1
        operators["ON"] = m - 1
    operators["="] = len(internal_edges) + predicate_count
    if predicate_count:
        operators["WHERE"] = 1
        if predicate_count > 1:
            operators["AND"] = predicate_count - 1
    if rng.random() < 0.5:
        operators[_AGGREGATES[int(rng.integers(len(_AGGREGATES)))]] = 1
    if rng.random() < 0.3:
        operators["GROUP BY"] = 1

    operands: dict[str, int] = {}

    def add(token, count=1):
        operands[token] = operands.get(token, 0) + count

    degree = {r: 0 for r in relations}
    for a, b in internal_edges:
        degree[a] += 1
        degree[b] += 1
    for rel in relations:
        add(rel, 1 + degree[rel])
    for a, b in internal_edges:
        add(f"{a}.key")
        add(f"{b}.key")
    pred_tables = [relations[int(rng.integers(m))] for _ in range(predicate_count)]
    for j, rel in enumerate(pred_tables):
        add(f"{rel}.attr{int(rng.integers(1, 4))}")
        add(f"lit{j}")
    return operators, operands


def _distinct_policy_orderings(catalog_doc, train_doc) -> bool:
    """True when every pair of partitioning policies ranks the train queries
    differently (Spearman correlation of ranks < 1).  The documents are read
    as ``load_catalog`` and ``load_workload`` read the written files."""
    from .catalog import catalog_from_doc, workload_from_doc
    from .simulator import CostModelConfig, QueryContext
    from .transfer import PartitioningPolicy, policy_score

    cfg = CostModelConfig(noise_rel_sigma=0.0)
    catalog = catalog_from_doc(catalog_doc, "generated catalog")
    queries = workload_from_doc(train_doc, catalog, "generated train workload")
    contexts = [QueryContext(q, catalog, cfg) for q in queries]
    scores = {
        policy: np.array([policy_score(c, policy) for c in contexts])
        for policy in PartitioningPolicy
    }
    if any(len(set(v.round(12))) < 2 for v in scores.values()):
        return False
    for a, b in itertools.combinations(PartitioningPolicy, 2):
        ra = np.argsort(np.argsort(scores[a]))
        rb = np.argsort(np.argsort(scores[b]))
        if float(np.corrcoef(ra, rb)[0, 1]) > 1.0 - 1e-12:
            return False
    return True


def generate(
    n_tables: int,
    shape: str,
    n_train: int,
    n_test: int,
    seed: int,
    min_relations: int = 2,
    max_relations: int | None = None,
):
    """Returns (catalog_doc, train_doc, test_doc) as plain dicts."""
    if n_tables < 2:
        raise GenError("need at least 2 tables")
    if n_train < 1 or n_test < 0:
        raise GenError("need at least 1 train query and a nonnegative test count")
    names, edges = _schema(n_tables, shape)
    if max_relations is None:
        max_relations = n_tables
    if not (2 <= min_relations <= max_relations <= n_tables):
        raise GenError("relation bounds must satisfy 2 <= min <= max <= n_tables")

    adjacency = {n: set() for n in names}
    for a, b in edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    def make_query(qrng, qid):
        size = int(qrng.integers(min_relations, max_relations + 1))
        relations = _connected_subset(qrng, names, adjacency, size)
        relset = set(relations)
        internal = sorted(
            (a, b) if a <= b else (b, a)
            for a, b in edges
            if a in relset and b in relset
        )
        predicate_count = int(qrng.integers(0, 4))
        operators, operands = _tokens(qrng, relations, internal, predicate_count)
        return {
            "id": qid,
            "relations": relations,
            "join_edges": [list(e) for e in internal],
            "predicate_count": predicate_count,
            "operator_tokens": operators,
            "operand_tokens": operands,
        }

    # Draw catalog and queries together, retrying deterministically until no
    # two policies rank the train queries identically (some catalogs make
    # expert cost a monotone function of output rows, which no query resample
    # can fix, so the catalog is redrawn as well).
    for attempt in range(_MAX_ATTEMPTS):
        rng = np.random.default_rng(np.random.SeedSequence((seed, attempt)))
        tables = [
            {
                "name": name,
                "row_count": int(round(_log_uniform(rng, 1e3, 1e6))),
                "row_width_bytes": int(rng.integers(8, 257)),
                "filter_selectivity": round(_log_uniform(rng, 0.1, 1.0), 6),
            }
            for name in names
        ]
        selectivities = [
            {"tables": [a, b], "selectivity": round(_log_uniform(rng, 1e-4, 0.5), 8)}
            for a, b in edges
        ]
        catalog_doc = {
            "tables": tables,
            "selectivities": selectivities,
            "default_selectivity": 0.1,
        }
        queries = [make_query(rng, f"q{i + 1:02d}") for i in range(n_train + n_test)]
        train_doc = {"queries": queries[:n_train]}
        # Schemas with < 3 tables or tiny train sets cannot support four
        # distinct orderings; accept the first draw there.
        trivial = n_tables < 3 or n_train < 4
        if trivial or _distinct_policy_orderings(catalog_doc, train_doc):
            break
    else:
        raise GenError(
            "could not generate a workload with distinct policy orderings; "
            "try more queries or a different seed"
        )
    return catalog_doc, train_doc, {"queries": queries[n_train:]}


def write_files(out_dir, catalog_doc, train_doc, test_doc):
    """Write catalog.json / train.json / test.json; returns the three paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = []
    for name, doc in (
        ("catalog.json", catalog_doc),
        ("train.json", train_doc),
        ("test.json", test_doc),
    ):
        path = out / name
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        paths.append(path)
    return tuple(paths)
