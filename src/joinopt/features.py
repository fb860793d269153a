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
featurizes a whole frontier of ``simulator.join_columns`` at once.
``fragment_rows`` feeds it ``simulator.FragmentInfo`` summaries, one row
each.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Catalog
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


def feature_matrix(
    ctx: QueryContext,
    masks: list[int],
    depths: list[int],
    op_counts,
    costs: list[float],
) -> np.ndarray:
    """One feature row per cost.  The rows come in equal runs, one run per
    relation-set mask and depth; ``op_counts`` ([rows, 3]) and ``costs``
    give each row's own.  The recency slot is 0."""
    t = len(ctx.catalog.tables)
    per_mask = np.zeros((len(masks), t + 8))
    per_mask[:, ctx.relation_slots] = _mask_bits(masks, len(ctx.relations))
    per_mask[:, t + 3 : t + 5] = list(map(ctx.log_size, masks))
    per_mask[:, t + 6] = depths
    out = np.repeat(per_mask, len(costs) // max(len(masks), 1), axis=0)
    out[:, t : t + 3] = op_counts
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

