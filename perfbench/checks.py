"""Correctness checks on one workload's outputs, computed independently.

Nothing here imports the program.  The cost model is rewritten from its
definition (module docstrings of ``joinopt.simulator`` and the README):

- a relation set's cardinality is the product of its tables' filtered rows
  (``row_count * filter_selectivity``) times the selectivity of every query
  join edge inside the set (the catalog's pair selectivity, else the
  catalog default);
- a scan costs ``scan_cost_per_row * row_count`` (unfiltered rows);
- a join adds, for left rows l, right rows r and output rows o:
  hash ``hash_build * l + cpu * (l + r + o)``, nested loop ``nlj * l * r``,
  merge ``merge_sort * (l log2(1 + l) + r log2(1 + r)) + cpu * o``;
- noiseless latency is cost times ``latency_per_cost_unit``.

Each ``check_*`` function returns a list of error strings, empty on a pass.
"""

import itertools
import json
import math

REL_TOL = 1e-9


class Model:
    """Catalog statistics plus cost constants, read from the input files."""

    def __init__(self, catalog_doc, cost_doc):
        self.rows = {t["name"]: float(t["row_count"]) for t in catalog_doc["tables"]}
        self.filtered = {
            t["name"]: float(t["row_count"]) * float(t.get("filter_selectivity", 1.0))
            for t in catalog_doc["tables"]
        }
        self.selectivity = {
            frozenset(s["tables"]): float(s["selectivity"])
            for s in catalog_doc["selectivities"]
        }
        self.default_selectivity = float(catalog_doc.get("default_selectivity", 0.1))
        self.cost = cost_doc

    def cardinality(self, relset, edges):
        rows = 1.0
        for rel in relset:
            rows *= self.filtered[rel]
        for a, b in edges:
            if a in relset and b in relset:
                rows *= self.selectivity.get(frozenset((a, b)), self.default_selectivity)
        return rows

    def scan(self, table):
        return self.cost["scan_cost_per_row"] * self.rows[table]

    def join(self, op, left, right, out):
        c = self.cost
        if op == "hash":
            return c["hash_build_cost_per_row"] * left + c["cpu_cost_per_row"] * (
                left + right + out
            )
        if op == "nested_loop":
            return c["nlj_cost_per_row_pair"] * left * right
        if op == "merge":
            return c["merge_sort_cost_per_row_log_row"] * (
                left * math.log2(1.0 + left) + right * math.log2(1.0 + right)
            ) + c["cpu_cost_per_row"] * out
        raise ValueError(f"unknown join operator {op!r}")

    def latency(self, cost):
        return cost * self.cost["latency_per_cost_unit"]


def load_model(catalog_path, cost_doc):
    with open(catalog_path, encoding="utf-8") as fh:
        return Model(json.load(fh), cost_doc)


def _close(a, b):
    return math.isclose(a, b, rel_tol=REL_TOL)


def dp_latency(model, relations, edges):
    """Minimal noiseless latency over cross-product-free bushy plans, by a
    bitmask DP over connected relation subsets."""
    rels = sorted(relations)
    n = len(rels)
    bit = {r: 1 << i for i, r in enumerate(rels)}
    adjacent = [0] * n
    for a, b in edges:
        adjacent[rels.index(a)] |= bit[b]
        adjacent[rels.index(b)] |= bit[a]
    full = (1 << n) - 1
    neighbours = [0] * (full + 1)
    card = [0.0] * (full + 1)
    best = [math.inf] * (full + 1)
    for mask in range(1, full + 1):
        low = (mask & -mask).bit_length() - 1
        neighbours[mask] = neighbours[mask & (mask - 1)] | adjacent[low]
        card[mask] = model.cardinality({rels[i] for i in range(n) if mask >> i & 1}, edges)
    for i, rel in enumerate(rels):
        best[1 << i] = model.scan(rel)
    for mask in range(1, full + 1):
        if mask & (mask - 1) == 0:
            continue
        low = mask & -mask
        out = card[mask]
        sub = (mask - 1) & mask
        while sub:
            # Each unordered split once: the part holding the lowest bit.
            if sub & low:
                rest = mask ^ sub
                if best[sub] < math.inf and best[rest] < math.inf and neighbours[sub] & rest:
                    base = best[sub] + best[rest]
                    for left, right in ((sub, rest), (rest, sub)):
                        for op in ("hash", "merge", "nested_loop"):
                            cost = base + model.join(op, card[left], card[right], out)
                            if cost < best[mask]:
                                best[mask] = cost
            sub = (sub - 1) & mask
    return model.latency(best[full])


def plan_latency(model, plan, edges):
    """(noiseless latency, relation list) of a plan given as nested lists;
    relations are listed once per scan, so a repeated table shows."""

    def walk(node):
        if isinstance(node, str):
            return model.scan(node), [node]
        op, left, right = node
        lcost, lrels = walk(left)
        rcost, rrels = walk(right)
        out = model.cardinality(set(lrels) | set(rrels), edges)
        increment = model.join(
            op, model.cardinality(set(lrels), edges), model.cardinality(set(rrels), edges), out
        )
        return lcost + rcost + increment, lrels + rrels

    cost, rels = walk(plan)
    return model.latency(cost), rels


def check_expert_optimal(dp, expert_noiseless):
    """The program's expert plan latency equals the independent DP minimum."""
    return [
        f"{qid}: expert_plan latency {expert_noiseless.get(qid)!r} != DP minimum {want!r}"
        for qid, want in dp.items()
        if qid not in expert_noiseless or not _close(expert_noiseless[qid], want)
    ]


def check_plan_shape(queries, served):
    """Every served plan covers its query's relations exactly once and only
    joins fragments linked by a join edge."""
    errors = []
    for qid, query in queries.items():
        if qid not in served:
            errors.append(f"{qid}: no plan served")
            continue
        edges = [tuple(e) for e in query["join_edges"]]

        def walk(node):
            if isinstance(node, str):
                return [node]
            _, left, right = node
            lrels, rrels = walk(left), walk(right)
            if not any(
                (a in lrels and b in rrels) or (a in rrels and b in lrels) for a, b in edges
            ):
                errors.append(f"{qid}: joins {sorted(lrels)} and {sorted(rrels)} without an edge")
            return lrels + rrels

        rels = walk(served[qid]["plan"])
        if sorted(rels) != sorted(query["relations"]):
            errors.append(f"{qid}: plan scans {sorted(rels)}, query has {sorted(query['relations'])}")
    return errors


def check_plan_cost(model, queries, served):
    """An independent cost function reproduces each served plan's noiseless
    latency."""
    errors = []
    for qid, entry in served.items():
        edges = [tuple(e) for e in queries[qid]["join_edges"]]
        want, _ = plan_latency(model, entry["plan"], edges)
        if not _close(entry["noiseless_latency"], want):
            errors.append(
                f"{qid}: noiseless_latency {entry['noiseless_latency']!r} != recomputed {want!r}"
            )
    return errors


def check_latency_bound(dp, records):
    """Every evaluated latency is at least the DP latency of its query."""
    return [
        f"iteration {rec['iteration']}: {qid} latency {latency!r} < DP {dp[qid]!r}"
        for rec in records
        for qid, latency in rec["latencies"].items()
        if latency < dp[qid] * (1.0 - REL_TOL)
    ]


def check_buffer_sizes(records, capacity, per_iteration):
    """buffer_size is min(capacity, t * sum(|q| - 1)) at every evaluation,
    with the sum over train queries: one experience per join node."""
    return [
        f"iteration {rec['iteration']}: buffer_size {rec['buffer_size']} != "
        f"{min(capacity, rec['iteration'] * per_iteration)}"
        for rec in records
        if rec["buffer_size"] != min(capacity, rec["iteration"] * per_iteration)
    ]


def deterministic_rows(csv_text):
    """(header, rows keyed by iteration) of a run.csv without its
    wall-clock column; None when the header has no such column."""
    header, *rows = csv_text.strip().split("\n")
    columns = header.split(",")
    if "wall_clock_ms" not in columns:
        return None
    wall = columns.index("wall_clock_ms")
    kept = [row.split(",") for row in [header] + rows]
    kept = [",".join(cells[:wall] + cells[wall + 1 :]) for cells in kept]
    return kept[0], {row.split(",", 1)[0]: row for row in kept[1:]}


def check_repeatable(csv_texts):
    """Runs of one seed agree on every deterministic run.csv column at each
    iteration that both evaluated, and every run after the first evaluated
    past iteration 0."""
    runs = [deterministic_rows(text) for text in csv_texts]
    if None in runs:
        return ["run.csv has no wall_clock_ms column"]
    errors = []
    for (i, (head_i, rows_i)), (j, (head_j, rows_j)) in itertools.combinations(
        enumerate(runs), 2
    ):
        if head_i != head_j:
            errors.append(f"runs {i} and {j}: run.csv headers differ")
        for iteration in sorted(rows_i.keys() & rows_j.keys()):
            if rows_i[iteration] != rows_j[iteration]:
                errors.append(f"runs {i} and {j}: run.csv rows for iteration {iteration} differ")
    for n, (_, rows) in enumerate(runs[1:], 1):
        if len(rows) < 2:
            errors.append(f"run {n}: evaluated only iterations {sorted(rows)}")
    return errors
