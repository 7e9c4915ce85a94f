"""Pre-execution query features.

Mirrors the feature families of the predictor in [21]: term features
(IDF / document-frequency statistics of each keyword) and query
features (keyword count, aggregate posting volume).  Everything here is
known *before* the query runs — posting-list lengths are index
metadata.  What is deliberately absent is the number of documents that
will actually match (the intersection size), which drives the scoring
phase's cost: that gap is the structural source of prediction error.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from ..search.index import InvertedIndex
from ..search.query import Query, keyword_groups

__all__ = ["QUERY_FEATURE_NAMES", "query_features", "query_feature_matrix"]

#: Ordered names of the feature vector produced by :func:`query_features`.
QUERY_FEATURE_NAMES: tuple[str, ...] = (
    "num_keywords",
    "log_total_postings",
    "log_min_df",
    "log_max_df",
    "log_second_max_df",
    "mean_idf",
    "min_idf",
    "sum_idf",
)


def query_features(query: Query, index: InvertedIndex) -> np.ndarray:
    """Feature vector of one query (see :data:`QUERY_FEATURE_NAMES`)."""
    return query_feature_matrix([query], index)[0]


def query_feature_matrix(queries: Sequence[Query], index: InvertedIndex) -> np.ndarray:
    """Stacked feature matrix for a query list, one row per query.

    Computed per keyword-count group on its (queries, k) term matrix.
    The row reductions run along the contiguous term axis, where numpy
    sums each row as it sums a lone 1-D array, so every value equals
    the one-query computation bit for bit.
    """
    features = np.empty((len(queries), len(QUERY_FEATURE_NAMES)))
    for rows, terms in keyword_groups(queries):
        k = terms.shape[1]
        idfs = index.idf_array(terms)
        dfs = index.df_array(terms).astype(np.float64)
        sorted_dfs = np.sort(dfs, axis=1)
        features[rows, 0] = float(k)
        features[rows, 1] = np.log1p(dfs.sum(axis=1))
        features[rows, 2] = np.log1p(sorted_dfs[:, 0])
        features[rows, 3] = np.log1p(sorted_dfs[:, -1])
        # The second-largest df; a one-keyword query repeats its only one.
        features[rows, 4] = np.log1p(sorted_dfs[:, max(k - 2, 0)])
        features[rows, 5] = idfs.mean(axis=1)
        features[rows, 6] = idfs.min(axis=1)
        features[rows, 7] = idfs.sum(axis=1)
    return features
