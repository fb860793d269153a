"""Deterministic cost-model execution environment standing in for the DBMS.

Cardinalities follow the textbook independence model: base rows scaled by
per-table filter selectivities, multiplied by the selectivity of every join
edge internal to the relation set.  Execution latency is cost times a
configurable unit, perturbed by seeded multiplicative Gaussian noise floored
at 1% so latency stays positive.  The expert optimizer is an exhaustive
dynamic program over connected relation subsets, minimizing this same cost
model.  It visits each split of a connected set into two connected parts
linked by a join edge once (DPccp enumeration), scores both child orders
by all three operators (one cost call per child order), and breaks exact
cost ties by the left then the right part's sorted relation names, compared
by mask, and then the operator rank, so results are reproducible.  Its work
grows with the number of such splits: for n relations, (n^3 - n) / 6 for a
chain, (n - 1) * 2^(n - 2) for a star and (3^n - 2^(n+1) + 1) / 2 for a
clique, the worst case.

A ``QueryContext`` compiles one (query, catalog, cost config) once, when
it is made.  Every relation set is a bitmask over the query's sorted
relation names, and names are read back only for error messages.  The
context holds the relation index and adjacency masks, each relation's
filtered rows, row width, catalog slot and scan summary (its ``scans``, the
start of every plan) and each join edge as a (two-bit mask, selectivity)
pair; cardinalities and log sizes are products and sums over those,
memoized by mask.  Only the expert DP runs on first use, and its plan is
then kept.
Callers hand a context to what reads it: ``expert_plan`` runs the DP on
the context it is given, and ``trainer.plan_search`` searches one; so a run's
set-up, training and evaluation share one compile per query.  A
``FragmentInfo`` summarizes one plan fragment (mask, rows, cost, depth,
operator counts) and composes bottom-up: ``plan_infos`` is the one walk that
summarizes every node of a plan tree, and plan cost, experience extraction
and meta-task features all read it; ``execute`` takes a plan's cost, not
the plan, so it walks nothing.  A partial plan is a tuple of
disjoint fragment summaries in fragment order (by lowest relation bit),
starting from the context's ``scans``; ``legal_pairs`` enumerates the
fragment pairs it may join (each by any of the three operators).
``join_columns`` summarizes every join of a list of fragment pairs as
columns, one summary per pair and ``join_cost_increments`` call for its
three operators, without building a fragment per join, for scoring a whole
search frontier at once.  ``JoinColumns.joined`` is the one step of the
partial-plan MDP: it applies one of those joins, from its summary alone.
Plan search and random rollouts both step through it.  ``join_columns`` and
``join_info`` compose a join's summary from its children's through one
helper, and the cost model's join operators have one definition,
``join_cost_increments``.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .catalog import Catalog, Query
from .plans import JOIN_OPS, Join, JoinOp, PlanNode, Scan

__all__ = [
    "CostModelConfig",
    "ExpertBaseline",
    "SimulatorError",
    "QueryContext",
    "FragmentInfo",
    "JoinColumns",
    "scan_cost",
    "join_cost_increments",
    "join_info",
    "plan_infos",
    "legal_pairs",
    "join_columns",
    "execute",
    "noiseless_latency",
    "expert_plan",
    "expert_baseline",
]

DEFAULT_DP_LIMIT = 12


class SimulatorError(ValueError):
    """Raised for plan/query mismatches and exceeded DP limits."""


@dataclass(frozen=True)
class CostModelConfig:
    cpu_cost_per_row: float = 0.2
    hash_build_cost_per_row: float = 0.3
    nlj_cost_per_row_pair: float = 0.001
    merge_sort_cost_per_row_log_row: float = 0.05
    scan_cost_per_row: float = 0.1
    latency_per_cost_unit: float = 0.001  # milliseconds per cost unit
    noise_rel_sigma: float = 0.05

    def __post_init__(self):
        for name in (
            "cpu_cost_per_row",
            "hash_build_cost_per_row",
            "nlj_cost_per_row_pair",
            "merge_sort_cost_per_row_log_row",
            "scan_cost_per_row",
            "noise_rel_sigma",
        ):
            if getattr(self, name) < 0:
                raise SimulatorError(f"{name} must be >= 0")
        if self.latency_per_cost_unit <= 0:
            raise SimulatorError("latency_per_cost_unit must be > 0")


@dataclass(frozen=True)
class ExpertBaseline:
    """Expert-plan latency statistics; tolerance is the 2-sigma band width."""

    query_id: str
    mean_latency_ms: float
    std_latency_ms: float
    tolerance_ms: float
    n_runs: int


def scan_cost(base_rows: float, cfg: CostModelConfig) -> float:
    """Scans are charged for every base row; filtering happens afterwards."""
    return cfg.scan_cost_per_row * base_rows


def join_cost_increments(
    left_rows: float, right_rows: float, out_rows: float, cfg: CostModelConfig
) -> tuple[float, float, float]:
    """Cost added by one join node on top of its children's costs, by each
    operator in ``JOIN_OPS`` order: hash, merge, nested loop."""
    hash_join = cfg.hash_build_cost_per_row * left_rows + cfg.cpu_cost_per_row * (
        left_rows + right_rows + out_rows
    )
    sort = cfg.merge_sort_cost_per_row_log_row * (
        left_rows * math.log2(1.0 + left_rows) + right_rows * math.log2(1.0 + right_rows)
    )
    nested_loop = cfg.nlj_cost_per_row_pair * left_rows * right_rows
    return hash_join, sort + cfg.cpu_cost_per_row * out_rows, nested_loop


class QueryContext:
    """One query compiled against a catalog and cost config.

    Relation ``i`` of the sorted relation names is bit ``1 << i``, so a
    mask's names come out sorted.  The context is compiled when it is made:
    construction reads the query and the catalog and builds the relations'
    statistics, join edges and ``scans``.  Cardinalities, log sizes and
    neighbour masks are memoized per mask on first use, and the DP runs on
    first use: ``expert()`` runs it once, on this context, and keeps its
    plan.

    ``shape`` keys what plan search reads from the context: the catalog
    object (by identity), the cost config, the relation names and the join
    edges with their selectivities.  Queries of one shape are searched over
    the same feature rows, so ``trainer.plan_search`` lets them share
    scored steps under one model.
    """

    def __init__(self, query: Query, catalog: Catalog, cfg: CostModelConfig):
        self.query = query
        # The query's id: perfbench's tracer counts expert_plan calls by it.
        self.id = query.id
        self.catalog = catalog
        self.cfg = cfg
        self.relations = tuple(sorted(query.relations))
        self.bit = {r: 1 << i for i, r in enumerate(self.relations)}
        self.full_mask = (1 << len(self.relations)) - 1
        adjacency = dict.fromkeys(self.relations, 0)
        for a, b in query.join_edges:
            adjacency[a] |= self.bit[b]
            adjacency[b] |= self.bit[a]
        self.adjacency = tuple(adjacency[r] for r in self.relations)
        tables = [catalog.table(r) for r in self.relations]
        # Filtered base rows and row width of each relation, in bit order.
        self._base_rows = tuple(t.base_rows for t in tables)
        self._widths = tuple(t.row_width_bytes for t in tables)
        # Each join edge as (two-bit mask, selectivity), in sorted edge order.
        self._edges = tuple(
            (self.bit[a] | self.bit[b], catalog.edge_selectivity(a, b))
            for a, b in sorted(query.join_edges)
        )
        # Everything plan search reads from the context; the catalog by
        # identity, which stays valid while the context holds the catalog.
        self.shape = (id(catalog), cfg, self.relations, self._edges)
        # Catalog position of each relation, in bit order.
        order = {name: i for i, name in enumerate(catalog.table_names)}
        self.relation_slots = np.array([order[r] for r in self.relations])
        self._card: dict[int, float] = {}
        self._log_size: dict[int, tuple[float, float]] = {}
        self._neighbors: dict[int, int] = {}
        self._expert: PlanNode | None = None
        # One Scan fragment per relation, in bit order: the start of every
        # plan and the leaves of every walk.
        self.scans = tuple(
            FragmentInfo(Scan(r), 1 << i, self.cardinality(1 << i), scan_cost(t.row_count, cfg),
                         depth=0, op_counts=(0, 0, 0))
            for i, (r, t) in enumerate(zip(self.relations, tables))
        )

    def names(self, mask: int) -> tuple[str, ...]:
        """Sorted relation names of a mask."""
        return tuple(r for i, r in enumerate(self.relations) if mask >> i & 1)

    def cardinality(self, mask: int) -> float:
        """Estimated rows of a relation set: the product of its relations'
        filtered base rows, in bit order, times the selectivity of every
        join edge inside it, in sorted edge order."""
        got = self._card.get(mask)
        if got is None:
            got = 1.0
            for i, rows in enumerate(self._base_rows):
                if mask >> i & 1:
                    got *= rows
            for edge, selectivity in self._edges:
                if mask & edge == edge:
                    got *= selectivity
            self._card[mask] = got
        return got

    def log_size(self, mask: int) -> tuple[float, float]:
        """log1p of the mask's estimated rows and of its data volume, rows
        times the mean row width of its relations."""
        got = self._log_size.get(mask)
        if got is None:
            widths = [w for i, w in enumerate(self._widths) if mask >> i & 1]
            rows = self.cardinality(mask)
            got = self._log_size[mask] = (
                math.log1p(rows),
                math.log1p(rows * (sum(widths) / len(widths))),
            )
        return got

    def neighbors(self, mask: int) -> int:
        """Union of the adjacency masks of the mask's relations."""
        got = self._neighbors.get(mask)
        if got is None:
            got = 0
            for i, adjacent in enumerate(self.adjacency):
                if mask >> i & 1:
                    got |= adjacent
            self._neighbors[mask] = got
        return got

    def expert(self) -> PlanNode:
        """The expert DP plan, computed by the first call."""
        if self._expert is None:
            self._expert = expert_plan(self)
        return self._expert

    def cost(self, plan: PlanNode) -> float:
        """Deterministic cost of a complete plan for the query."""
        root = plan_infos(plan, self)[-1]
        if root.mask != self.full_mask:
            raise SimulatorError(
                f"plan covers {list(self.names(root.mask))} but query "
                f"{self.query.id!r} requires {list(self.relations)}"
            )
        return root.cost

    def latency(self, plan: PlanNode) -> float:
        """Noiseless latency of a complete plan: cost times the latency unit."""
        return self.cost(plan) * self.cfg.latency_per_cost_unit


@dataclass(frozen=True)
class FragmentInfo:
    """Summary of one plan fragment, composable bottom-up so that search
    never re-walks subtrees."""

    node: PlanNode
    mask: int
    rows: float
    cost: float
    depth: int
    op_counts: tuple[int, int, int]  # hash, merge, nested loop


def _join_summaries(
    left: FragmentInfo, right: FragmentInfo, ctx: QueryContext
) -> tuple[int, float, list[float], list[tuple[int, int, int]], int]:
    """The joins of ``left`` and ``right`` by each operator, in ``JOIN_OPS``
    order: their relation-set mask and rows, their costs, their operator
    counts and their depth.  This is how a join's summary composes from its
    children's."""
    mask = left.mask | right.mask
    rows = ctx.cardinality(mask)
    children = left.cost + right.cost
    hash_join, merge, nested_loop = join_cost_increments(left.rows, right.rows, rows, ctx.cfg)
    costs = [children + hash_join, children + merge, children + nested_loop]
    # Operator counts are in JOIN_OPS order; each join adds its own.
    h, m, n = map(operator.add, left.op_counts, right.op_counts)
    counts = [(h + 1, m, n), (h, m + 1, n), (h, m, n + 1)]
    return mask, rows, costs, counts, 1 + max(left.depth, right.depth)


def join_info(
    left: FragmentInfo, right: FragmentInfo, op: JoinOp, ctx: QueryContext
) -> FragmentInfo:
    mask, rows, costs, counts, depth = _join_summaries(left, right, ctx)
    k = JOIN_OPS.index(op)
    return FragmentInfo(Join(left.node, right.node, op), mask, rows, costs[k], depth, counts[k])


def plan_infos(plan: PlanNode, ctx: QueryContext) -> list[FragmentInfo]:
    """Summary of every node of a plan tree, children before parents and
    left before right, so the root's is last.  Leaves are the context's
    ``scans``, shared by every walk; each Join is copied, its children being
    the nodes of its children's summaries.  A scan of a relation outside the
    query raises ``SimulatorError``."""
    infos = []

    def walk(node):
        if isinstance(node, Scan):
            mask = ctx.bit.get(node.table)
            if mask is None:
                raise SimulatorError(
                    f"relation {node.table!r} is not part of query {ctx.query.id!r}"
                )
            info = ctx.scans[mask.bit_length() - 1]
        else:
            left = walk(node.left)
            right = walk(node.right)
            if left.mask & right.mask:
                raise SimulatorError("plan joins overlapping relation sets")
            info = join_info(left, right, node.op, ctx)
        infos.append(info)
        return info

    walk(plan)
    return infos


def legal_pairs(
    fragments: tuple[FragmentInfo, ...], ctx: QueryContext, left_deep_only: bool
) -> list[tuple[int, int]]:
    """Every fragment pair a partial plan may join, as (left index, right
    index): ordered pairs linked by a join edge, so cross products are never
    proposed.  Empty once one fragment remains.  With ``left_deep_only`` the
    right side is always a scan, and the left side is the composite fragment
    once one exists."""
    reach = [ctx.neighbors(f.mask) for f in fragments]
    composite = [f.depth > 0 for f in fragments]
    pinned = left_deep_only and any(composite)
    pairs = []
    for i in range(len(fragments)):
        if pinned and not composite[i]:
            continue
        for j, right in enumerate(fragments):
            if i == j or (left_deep_only and composite[j]):
                continue
            if reach[i] & right.mask:
                pairs.append((i, j))
    return pairs


def _replace_pair(
    fragments: tuple[FragmentInfo, ...], i: int, j: int, joined: FragmentInfo
) -> tuple[FragmentInfo, ...]:
    """The partial plan with fragments i and j replaced by their join, in
    fragment order: by each fragment's lowest relation bit, which is the
    order of sorted relation names.  The join's lowest bit is the lower
    fragment's, so the join takes that fragment's place."""
    low, high = min(i, j), max(i, j)
    return fragments[:low] + (joined,) + fragments[low + 1 : high] + fragments[high + 1 :]


class JoinColumns(NamedTuple):
    """Summaries of the joins of many fragment pairs as columns: what
    ``join_info`` would return for each join, less the plan nodes.  Each
    pair gives one relation-set mask, row estimate and depth and, for its
    three operators in ``JOIN_OPS`` order, three operator counts and costs;
    join ``k`` is pair ``k // 3`` by operator ``JOIN_OPS[k % 3]``."""

    masks: list[int]  # one per pair
    rows: list[float]  # one per pair
    depths: list[int]  # one per pair
    op_counts: list[tuple[int, int, int]]  # 3 * pairs: hash, merge, nested loop
    costs: list[float]  # 3 * pairs

    def joined(
        self,
        fragments: tuple[FragmentInfo, ...],
        k: int,
        i: int,
        j: int,
    ) -> tuple[FragmentInfo, tuple[FragmentInfo, ...]]:
        """Join ``k``, fragment i (left) with fragment j (right) of its
        pair's partial plan, read from the columns: the join's summary and
        the next partial plan, in fragment order.  The pair is one that
        ``legal_pairs`` gave, and nothing is recomputed."""
        p = k // 3
        left, right = fragments[i], fragments[j]
        joined = FragmentInfo(
            Join(left.node, right.node, JOIN_OPS[k % 3]),
            self.masks[p],
            self.rows[p],
            self.costs[k],
            self.depths[p],
            self.op_counts[k],
        )
        return joined, _replace_pair(fragments, i, j, joined)


def join_columns(
    pairs: list[tuple[FragmentInfo, FragmentInfo]], ctx: QueryContext
) -> JoinColumns:
    """The joins of each (left, right) fragment pair, by every operator."""
    masks, rows, depths, counts, costs = [], [], [], [], []
    for left, right in pairs:
        mask, pair_rows, op_costs, op_counts, depth = _join_summaries(left, right, ctx)
        masks.append(mask)
        rows.append(pair_rows)
        depths.append(depth)
        counts += op_counts
        costs += op_costs
    return JoinColumns(masks, rows, depths, counts, costs)


def execute(cost: float, cfg: CostModelConfig, rng_seed: int | np.random.Generator) -> float:
    """Simulated execution latency in milliseconds of a plan of this cost
    (``QueryContext.cost``, which checks that the plan covers its query).

    Multiplicative Gaussian noise with relative sigma ``noise_rel_sigma``,
    floored at 1% of the noiseless latency.  ``rng_seed`` is anything
    ``np.random.default_rng`` takes: a seed, or a ``Generator``, which draws
    from its current state.  The same seed, or generator state, always
    yields the same latency.  Taking the cost, not the plan, lets a caller
    that executes one plan many times walk it once.
    """
    if cfg.noise_rel_sigma > 0:
        eps = float(np.random.default_rng(rng_seed).normal(0.0, cfg.noise_rel_sigma))
    else:
        eps = 0.0
    return cost * cfg.latency_per_cost_unit * max(0.01, 1.0 + eps)


def noiseless_latency(
    plan: PlanNode, query: Query, catalog: Catalog, cfg: CostModelConfig
) -> float:
    """Latency with the noise term removed: cost times the latency unit."""
    return QueryContext(query, catalog, cfg).latency(plan)


def _connected_splits(ctx: QueryContext) -> dict[int, list[int]]:
    """Every split of a connected relation set into two connected, disjoint
    parts linked by a join edge, each unordered pair once: the set's mask
    maps to the masks of one part of each of its splits, the other part
    being the rest.

    This is DPccp's enumeration (Moerkotte and Neumann, VLDB 2006).  Each
    first part grows from its lowest relation through neighbours above it.
    Each second part grows from one neighbour of the first part above that
    part's lowest relation, its start, and never takes in the first part, a
    relation below the first part's lowest, or a neighbour of the first
    part below its start.  So no pair is produced twice, and only splits
    that exist are produced."""
    splits: dict[int, list[int]] = {}
    neighbors = ctx.neighbors

    def grown(start: int, excluded: int, out: list[int]) -> list[int]:
        # Appends to ``out`` every connected set that adds to ``start``
        # relations outside ``excluded`` (which holds ``start``), each once.
        frontier = neighbors(start) & ~excluded
        if frontier:
            additions = []
            sub = frontier
            while sub:
                additions.append(start | sub)
                sub = (sub - 1) & frontier
            out += additions
            for bigger in additions:
                grown(bigger, excluded | frontier, out)
        return out

    for i in range(len(ctx.relations)):
        lowest = 1 << i
        below = (lowest << 1) - 1
        for first in grown(lowest, below, [lowest]):
            excluded = first | below
            frontier = neighbors(first) & ~excluded
            rest = frontier
            while rest:
                start = rest & -rest
                rest ^= start
                # The second part starts at ``start`` and avoids the first
                # part's neighbours up to it, which start splits of their own.
                avoided = excluded | frontier & ((start << 1) - 1)
                for second in grown(start, avoided, [start]):
                    splits.setdefault(first | second, []).append(first)
    return splits


def _names_before(a: int, b: int) -> bool:
    """Whether mask ``a``'s sorted relation names come before mask ``b``'s,
    as tuples, read from the bits: below the lowest bit of ``a ^ b`` the two
    agree, and the set holding that bit comes first unless the other set
    has no bit above it, and so is a prefix of it."""
    low = (a ^ b) & -(a ^ b)
    above = -(low << 1)  # every bit above ``low``
    if a & low:
        return bool(b & above)
    return bool(low) and not a & above


def expert_plan(ctx: QueryContext) -> PlanNode:
    """Cost-minimal cross-product-free bushy plan of the context's query by
    exhaustive DP.

    Considers every split of a connected relation set into two connected
    parts linked by a join edge (``_connected_splits``, each unordered pair
    once), both child orders of each split, and all three join operators;
    sets are solved in increasing size, so both parts are final before
    either is used.  Ties are broken by the lexicographically smallest
    (left, right) pair of sorted relation-name tuples, then by operator rank
    Hash < Merge < NLJ; the tuples are compared by their masks
    (``_names_before``), so no name is read.
    These are the candidates and the key of a scan of every submask of every
    set, so the plan is that scan's, child order and operators included.
    The work grows with the number of splits, which a clique maximizes.
    Queries of more than ``DEFAULT_DP_LIMIT`` relations are refused.
    ``catalog.Query`` refuses a disconnected join graph, so the DP always
    reaches the whole query.  The DP's cardinalities are memoized in the
    context.  ``QueryContext.expert`` calls this once per context and keeps
    the plan.
    """
    n = len(ctx.relations)
    if n > DEFAULT_DP_LIMIT:
        raise SimulatorError(
            f"query {ctx.id!r} joins {n} relations, above the DP limit {DEFAULT_DP_LIMIT}"
        )

    # cost[mask] is the best plan's cost and choice[mask] its (left mask,
    # right mask, operator); only connected masks ever gain an entry.
    cost = {scan.mask: scan.cost for scan in ctx.scans}
    choice: dict[int, tuple[int, int, JoinOp]] = {}
    cardinality, cfg = ctx.cardinality, ctx.cfg
    splits = _connected_splits(ctx)
    for mask in sorted(splits, key=int.bit_count):
        out_rows = cardinality(mask)
        chosen_cost = chosen = None
        for part in splits[mask]:
            other = mask ^ part
            base = cost[part] + cost[other]
            part_rows = cardinality(part)
            other_rows = cardinality(other)
            for left, right, left_rows, right_rows in (
                (part, other, part_rows, other_rows),
                (other, part, other_rows, part_rows),
            ):
                increments = join_cost_increments(left_rows, right_rows, out_rows, cfg)
                for op, increment in zip(JOIN_OPS, increments):
                    c = base + increment
                    # A tie with the same left part is one with the same
                    # right part and an operator of no lower rank, which
                    # keeps the chosen one: JOIN_OPS is in rank order.
                    if (
                        chosen is None
                        or c < chosen_cost
                        or c == chosen_cost
                        and _names_before(left, chosen[0])
                    ):
                        chosen_cost, chosen = c, (left, right, op)
        cost[mask] = chosen_cost
        choice[mask] = chosen

    def build(mask):
        if mask not in choice:
            return ctx.scans[mask.bit_length() - 1].node
        left, right, op = choice[mask]
        return Join(build(left), build(right), op)

    return build(ctx.full_mask)


def expert_baseline(
    ctx: QueryContext,
    n_runs: int = 10,
    base_seed: int = 0,
) -> ExpertBaseline:
    """Execute the context's expert plan ``n_runs`` times (seeds base_seed +
    i) and summarize latency variability; tolerance is twice the sample
    std.  A latency, mean or tolerance that is not a positive finite number
    (zero costs, or a latency unit large enough to overflow), and a
    noiseless latency below the smallest normal float (a latency unit so
    small that latencies are denormal), raise ``SimulatorError`` naming the
    query.  So every latency a run executes or evaluates is above 0: a plan
    costs at least the expert's."""
    cost = ctx.cost(ctx.expert())
    latencies = np.array(
        [execute(cost, ctx.cfg, base_seed + i) for i in range(n_runs)]
    )
    mean = float(latencies.mean())
    std = float(latencies.std(ddof=1))
    if not (latencies.min() > 0 and math.isfinite(mean) and math.isfinite(2.0 * std)):
        raise SimulatorError(
            f"query {ctx.query.id!r}: expert latencies must be positive and finite, "
            f"got mean {mean} ms and std {std} ms"
        )
    noiseless = cost * ctx.cfg.latency_per_cost_unit
    if noiseless < sys.float_info.min:
        raise SimulatorError(
            f"query {ctx.query.id!r}: the expert's noiseless latency must be at least "
            f"{sys.float_info.min} ms, got {noiseless} ms"
        )
    return ExpertBaseline(
        query_id=ctx.query.id,
        mean_latency_ms=mean,
        std_latency_ms=std,
        tolerance_ms=2.0 * std,
        n_runs=n_runs,
    )
