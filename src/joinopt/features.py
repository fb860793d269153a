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
end).  A fragment is featurized from its ``simulator.FragmentInfo`` summary
and the query's ``simulator.QueryContext``, so search featurizes each
successor from its children's summaries without re-walking a subtree.
"""

from __future__ import annotations

import math

import numpy as np

from .catalog import Catalog
from .simulator import FragmentInfo, QueryContext

__all__ = [
    "RECENCY_SLOT",
    "feature_dim",
    "fragment_features",
]

RECENCY_SLOT = -1


def feature_dim(catalog: Catalog) -> int:
    return len(catalog.tables) + 8


def fragment_features(
    info: FragmentInfo, ctx: QueryContext, recency: float = 0.0
) -> np.ndarray:
    catalog = ctx.catalog
    vec = np.zeros(feature_dim(catalog))
    names = ctx.names(info.mask)
    for rel in names:
        vec[ctx.catalog_slots[rel]] = 1.0
    widths = [catalog.table(r).row_width_bytes for r in names]
    avg_width = sum(widths) / len(widths)
    t = len(catalog.tables)
    vec[t + 0] = info.op_counts[0]
    vec[t + 1] = info.op_counts[1]
    vec[t + 2] = info.op_counts[2]
    vec[t + 3] = math.log1p(info.rows)
    vec[t + 4] = math.log1p(info.rows * avg_width)
    vec[t + 5] = math.log1p(info.cost)
    vec[t + 6] = info.depth
    vec[t + 7] = recency
    return vec
