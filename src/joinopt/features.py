"""Fixed-length featurization of join-rooted plan fragments.

Layout, for a catalog with T tables (dimension d = T + 8):

    [0:T]   multi-hot relation membership, catalog table order
    [T+0]   hash join count in the fragment
    [T+1]   merge join count
    [T+2]   nested loop join count
    [T+3]   log1p(estimated cardinality)
    [T+4]   log1p(estimated data volume) -- rows times average row width
    [T+5]   log1p(estimated cost of the fragment)
    [T+6]   fragment depth (scans are depth 0)
    [T+7]   normalized recency, 0 at extraction, filled at sampling time

The recency slot index is exposed as ``RECENCY_SLOT`` (negative, from the
end).  ``feature_matrix`` is the one builder of this layout: it takes the
fragments as columns (relation-set masks, depths, operator counts, costs),
reads the membership columns straight from the mask bits and the two size
slots from the ``simulator.QueryContext``'s per-mask memo, so plan search
featurizes a whole frontier of ``simulator.join_columns`` at once.  Such a
frontier gives one operator-count tuple per pair and three rows per pair's
mask, one per operator, and each row adds its own operator's join to the
pair's counts.  ``fragment_rows`` feeds it ``simulator.FragmentInfo``
summaries, one row each, with their own counts.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .catalog import Catalog
from .plans import JOIN_OPS
from .simulator import FragmentInfo, QueryContext

__all__ = [
    "RECENCY_SLOT",
    "feature_dim",
    "feature_matrix",
    "fragment_rows",
]

RECENCY_SLOT = -1


def feature_dim(catalog: Catalog) -> int:
    return len(catalog.tables) + 8


def _mask_bits(masks: list[int], width: int) -> np.ndarray:
    """[n, width] matrix of the low ``width`` bits of each mask, lowest first."""
    return (np.array(masks)[:, None] >> np.arange(width)) & 1


@functools.cache
def _operator_units(t: int) -> np.ndarray:
    """Read-only [3, t + 8] rows, for a catalog of ``t`` tables, that are 0
    but for one join by each operator, in ``JOIN_OPS`` order."""
    units = np.zeros((len(JOIN_OPS), t + 8))
    units[:, t : t + 3] = np.eye(len(JOIN_OPS))
    units.flags.writeable = False
    return units


def feature_matrix(
    ctx: QueryContext,
    masks: list[int],
    depths: list[int],
    op_counts,
    costs: list[float],
) -> np.ndarray:
    """One feature row per cost, the recency slot 0.  The rows come in
    equal runs, one run per relation-set mask, depth and operator-count
    tuple; ``costs`` gives each row's own.  With one cost per mask, each
    row is a fragment with its own counts.  Otherwise each run is three
    rows, a pair's joins by each operator in ``JOIN_OPS`` order: the counts
    are the pair's children's, and row ``k`` of the run adds one join by
    ``JOIN_OPS[k]``."""
    t = len(ctx.catalog.tables)
    per_mask = np.zeros((len(masks), t + 8))
    per_mask[:, ctx.relation_slots] = _mask_bits(masks, len(ctx.relations))
    per_mask[:, t : t + 3] = op_counts
    per_mask[:, t + 3 : t + 5] = ctx.log_sizes(masks)
    per_mask[:, t + 6] = depths
    if len(costs) == len(masks):
        out = per_mask
    else:
        # Each pair's row once per operator, plus that operator's join: the
        # counts are small integers and every other slot adds 0, so the sum
        # is exact.
        out = (per_mask[:, None, :] + _operator_units(t)).reshape(len(costs), t + 8)
    # math.log1p, one value at a time: np.log1p differs in the last bit on
    # some inputs.
    out[:, t + 5] = list(map(math.log1p, costs))
    return out


def fragment_rows(infos: list[FragmentInfo], ctx: QueryContext) -> np.ndarray:
    """``feature_matrix`` of fragment summaries, one row each."""
    return feature_matrix(
        ctx,
        [info.mask for info in infos],
        [info.depth for info in infos],
        [info.op_counts for info in infos],
        [info.cost for info in infos],
    )

