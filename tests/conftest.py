import json

import numpy as np
import pytest

from joinopt.catalog import Catalog, Query, TableStats
from joinopt.model import ModelParams, batch_grad, predict_batch
from joinopt.simulator import CostModelConfig


def make_catalog(specs, selectivities=None, default_selectivity=0.1):
    """specs: list of (name, rows, width, filter_sel) tuples."""
    tables = tuple(TableStats(*spec) for spec in specs)
    return Catalog(
        tables=tables,
        join_selectivities=selectivities or {},
        default_selectivity=default_selectivity,
    )


def make_query(qid, relations, edges, operators=None, operands=None, predicates=0):
    return Query(
        id=qid,
        relations=tuple(relations),
        join_edges=frozenset(tuple(sorted(e)) for e in edges),
        operator_tokens=operators or {"SELECT": 1, "FROM": 1},
        operand_tokens=operands or {r: 1 for r in relations},
        predicate_count=predicates,
    )


@pytest.fixture
def chain3_catalog():
    return make_catalog(
        [("a", 100, 16, 1.0), ("b", 100, 16, 1.0), ("c", 100, 16, 1.0)],
        {("a", "b"): 0.1, ("b", "c"): 0.05},
    )


@pytest.fixture
def chain3_query():
    return make_query("chain3", ["a", "b", "c"], [("a", "b"), ("b", "c")])


@pytest.fixture
def pair_catalog():
    return make_catalog(
        [("r", 100, 16, 1.0), ("s", 200, 16, 1.0)],
        {("r", "s"): 0.01},
    )


@pytest.fixture
def pair_query():
    return make_query("pair", ["r", "s"], [("r", "s")])


@pytest.fixture
def unit_cost():
    """All coefficients 1, latency unit 1, noiseless."""
    return CostModelConfig(
        cpu_cost_per_row=1.0,
        hash_build_cost_per_row=1.0,
        nlj_cost_per_row_pair=1.0,
        merge_sort_cost_per_row_log_row=1.0,
        scan_cost_per_row=1.0,
        latency_per_cost_unit=1.0,
        noise_rel_sigma=0.0,
    )


@pytest.fixture
def default_cost():
    return CostModelConfig()


def random_tree_catalog_and_query(rng, n_rels, qid="rq"):
    """Random catalog plus a connected query over n_rels relations with a
    random spanning-tree join graph and a few extra edges."""
    names = [f"t{i}" for i in range(n_rels)]
    specs = [
        (
            name,
            int(rng.integers(10, 10_000)),
            int(rng.integers(8, 128)),
            float(rng.uniform(0.2, 1.0)),
        )
        for name in names
    ]
    edges = set()
    for i in range(1, n_rels):
        j = int(rng.integers(0, i))
        edges.add(tuple(sorted((names[i], names[j]))))
    for _ in range(int(rng.integers(0, 2))):
        i, j = rng.choice(n_rels, size=2, replace=False)
        edges.add(tuple(sorted((names[int(i)], names[int(j)]))))
    selectivities = {e: float(10 ** rng.uniform(-3, -0.3)) for e in edges}
    catalog = make_catalog(specs, selectivities)
    query = make_query(qid, names, edges)
    return catalog, query


def batch_loss(params, features, labels):
    """Mean squared error of ``params``' predictions on the rows against
    ``labels``: the loss whose gradient ``batch_grad`` writes."""
    diff = predict_batch(params, features) - labels
    return float(np.mean(diff * diff))


def gradient(params, features, labels):
    """A fresh gradient: ``batch_grad`` of ``params`` on the rows, written
    into a new ``ModelParams``."""
    grad = ModelParams(params.layer_sizes, np.empty_like(params.vector))
    batch_grad(params, features, labels, grad)
    return grad


def stepped(params, grad, lr):
    """New parameters one SGD step from ``params``, computed as new arrays
    in ``sgd_step``'s order of operations: ``vector - (grad * lr)``."""
    return ModelParams(params.layer_sizes, params.vector - grad.vector * lr)


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
