import itertools
import json

import numpy as np
import pytest

from joinopt.catalog import load_catalog, load_workload
from joinopt.simulator import CostModelConfig
from joinopt.simulator import QueryContext
from joinopt.transfer import PartitioningPolicy, policy_score
from joinopt.workload_gen import GenError, generate, write_files


def test_generation_deterministic(tmp_path):
    a = generate(6, "star", 13, 0, seed=1)
    b = generate(6, "star", 13, 0, seed=1)
    assert a == b
    dir_a, dir_b = tmp_path / "a", tmp_path / "b"
    write_files(dir_a, *a)
    write_files(dir_b, *b)
    for name in ("catalog.json", "train.json", "test.json"):
        assert (dir_a / name).read_bytes() == (dir_b / name).read_bytes()


def test_generation_seed_sensitivity():
    assert generate(6, "star", 5, 2, seed=1) != generate(6, "star", 5, 2, seed=2)


def test_two_table_chain_queries_join_both(tmp_path):
    catalog_doc, train_doc, test_doc = generate(2, "chain", 6, 2, seed=3)
    paths = write_files(tmp_path, catalog_doc, train_doc, test_doc)
    catalog = load_catalog(paths[0])
    for path in paths[1:]:
        for query in load_workload(path, catalog):
            assert len(query.relations) == 2


def test_generated_files_load_cleanly(tmp_path):
    for shape in ("star", "chain", "snowflake"):
        out = tmp_path / shape
        write_files(out, *generate(7, shape, 10, 3, seed=5))
        catalog = load_catalog(out / "catalog.json")
        train = load_workload(out / "train.json", catalog)
        test = load_workload(out / "test.json", catalog)
        assert len(train) == 10
        assert len(test) == 3
        ids = [q.id for q in train + test]
        assert len(set(ids)) == 13


def test_row_and_selectivity_ranges():
    catalog_doc, _, _ = generate(8, "snowflake", 5, 0, seed=9)
    for table in catalog_doc["tables"]:
        assert 1e3 * 0.99 <= table["row_count"] <= 1e6 * 1.01
        assert 0 < table["filter_selectivity"] <= 1.0
    for entry in catalog_doc["selectivities"]:
        assert 1e-4 * 0.99 <= entry["selectivity"] <= 0.5 * 1.01


def test_relation_bounds_respected(tmp_path):
    write_files(tmp_path, *generate(6, "star", 20, 0, seed=4, min_relations=3, max_relations=4))
    catalog = load_catalog(tmp_path / "catalog.json")
    for query in load_workload(tmp_path / "train.json", catalog):
        assert 3 <= len(query.relations) <= 4


def test_policy_scores_not_rank_identical(tmp_path):
    """All four policies must produce non-identical query orderings: pairwise
    Spearman rank correlation < 1 for at least one pair per policy."""
    write_files(tmp_path, *generate(6, "star", 13, 0, seed=1))
    catalog = load_catalog(tmp_path / "catalog.json")
    workload = load_workload(tmp_path / "train.json", catalog)
    cfg = CostModelConfig()
    scores = {
        policy: np.array(
            [policy_score(QueryContext(q, catalog, cfg), policy) for q in workload]
        )
        for policy in PartitioningPolicy
    }
    for policy, values in scores.items():
        assert len(set(values.round(12))) > 1, f"{policy} produced constant scores"

    def rank_corr(a, b):
        ra = np.argsort(np.argsort(a))
        rb = np.argsort(np.argsort(b))
        return float(np.corrcoef(ra, rb)[0, 1])

    for a, b in itertools.combinations(PartitioningPolicy, 2):
        assert rank_corr(scores[a], scores[b]) < 1.0 - 1e-12, f"{a} == {b} ordering"


def test_invalid_parameters():
    with pytest.raises(GenError):
        generate(1, "star", 5, 0, seed=0)
    with pytest.raises(GenError):
        generate(4, "ring", 5, 0, seed=0)
    with pytest.raises(GenError):
        generate(4, "star", 0, 0, seed=0)
    with pytest.raises(GenError):
        generate(4, "star", 5, 0, seed=0, min_relations=5)
