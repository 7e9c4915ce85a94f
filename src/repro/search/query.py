"""Query model and query-log generator.

Real query logs mix mostly-short queries (few keywords, arbitrary
popularity) with a minority of expensive ones (many keywords over
popular terms — the paper notes ten-keyword queries run roughly an
order of magnitude longer than two-keyword ones, Section 2.3).  The
generator reproduces that mixture with two components:

* **easy** queries: 1-4 keywords sampled from the full Zipf-ranked
  vocabulary by query popularity;
* **hard** queries: 4-10 keywords drawn from the most popular ranks,
  whose long posting lists make traversal expensive.
"""

from __future__ import annotations

from collections.abc import Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SearchWorkloadConfig
from ..errors import WorkloadError
from .corpus import (
    _choice_cdf,
    _choice_without_replacement,
    zipf_probabilities,
)

__all__ = ["Query", "QueryGenerator", "keyword_groups"]


@dataclass(frozen=True)
class Query:
    """A keyword query against one index fragment."""

    qid: int
    term_ids: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.term_ids:
            raise WorkloadError("query must contain at least one term")

    @property
    def num_keywords(self) -> int:
        """Keyword count (a strong latency predictor, Section 2.3)."""
        return len(self.term_ids)


def keyword_groups(queries: Sequence[Query]) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The queries grouped by keyword count, in increasing count order.

    Yields ``(rows, terms)``: the group's positions in ``queries`` and
    its (len(rows), k) int64 matrix of term ids, one query per row.
    """
    counts = np.fromiter(
        (q.num_keywords for q in queries), dtype=np.int64, count=len(queries)
    )
    for k in np.unique(counts):
        rows = np.flatnonzero(counts == k)
        terms = np.array([queries[i].term_ids for i in rows], dtype=np.int64)
        yield rows, terms


class QueryGenerator:
    """Samples queries per the two-component mixture above."""

    def __init__(
        self, config: SearchWorkloadConfig, rng: np.random.Generator
    ) -> None:
        self.config = config
        self._rng = rng
        # Query-side term popularity is flatter than corpus frequency
        # and skips the stopword head: users rarely search bare
        # stopwords, and mid-frequency terms dominate real query logs.
        self._easy_offset = config.easy_skip_top
        self._easy_probs = zipf_probabilities(
            config.vocabulary_size - config.easy_skip_top,
            config.query_zipf_exponent,
        )
        # Hard queries draw from the most popular ranks, whose long
        # posting lists make traversal expensive (corpus-Zipf weighted).
        pool = min(config.hard_term_pool, config.vocabulary_size)
        hard_weights = zipf_probabilities(config.vocabulary_size, config.zipf_exponent)[:pool]
        self._hard_probs = hard_weights / hard_weights.sum()
        self._hard_pool = pool
        # First-round CDFs, built once instead of once per query.
        self._easy_cdf = _choice_cdf(self._easy_probs)
        self._hard_cdf = _choice_cdf(self._hard_probs)
        self._next_qid = 0

    def generate(self, n: int) -> list[Query]:
        """Generate ``n`` queries following the configured mixture."""
        if n < 1:
            raise WorkloadError(f"n must be >= 1, got {n}")
        queries = []
        hard_draws = self._rng.random(n) < self.config.hard_query_fraction
        for is_hard in hard_draws:
            queries.append(self._generate_one(bool(is_hard)))
        return queries

    def _generate_one(self, is_hard: bool) -> Query:
        cfg = self.config
        if is_hard:
            lo, hi = cfg.hard_keywords
            k = int(self._rng.integers(lo, hi + 1))
            k = min(k, self._hard_pool)
            terms = _choice_without_replacement(
                self._rng, self._hard_probs, self._hard_cdf, k
            )
        else:
            lo, hi = cfg.easy_keywords
            k = int(self._rng.integers(lo, hi + 1))
            terms = self._easy_offset + _choice_without_replacement(
                self._rng, self._easy_probs, self._easy_cdf, k
            )
        query = Query(self._next_qid, tuple(int(t) for t in sorted(terms)))
        self._next_qid += 1
        return query

