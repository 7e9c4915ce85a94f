"""Sequential query execution against the inverted index.

Execution mirrors an ISN's two phases (Section 2.1):

1. **Traversal/matching** — walk the posting list of every keyword and
   count, per document, how many keywords it contains.  Documents
   matching at least half the keywords survive (a simple stand-in for
   conjunctive processing with dynamic pruning).  Cost: 1 work unit per
   posting entry traversed.
2. **Scoring** — BM25-score every surviving (document, term) hit and
   keep the top-k.  Cost: ``score_cost_per_hit`` units per scored hit.

A query's *service demand* is the total work units performed; the
traversal part is computable from pre-execution features (posting
lengths), while the scoring part depends on how many documents actually
match — information unavailable before execution, which is what makes
execution-time prediction realistically imperfect (Section 2.5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SearchWorkloadConfig
from .index import InvertedIndex
from .query import Query
from .scoring import bm25_scores, top_k_documents

__all__ = ["QueryExecution", "SearchEngine"]


@dataclass(frozen=True)
class QueryExecution:
    """Measured outcome of one sequential query execution."""

    qid: int
    num_keywords: int
    total_postings: int
    matched_documents: int
    scored_hits: int
    traversal_units: float
    scoring_units: float
    serial_units: float
    results: tuple[tuple[int, float], ...] | None

    @property
    def parallel_units(self) -> float:
        """Work units belonging to the parallelizable phase."""
        return self.traversal_units + self.scoring_units

    @property
    def total_units(self) -> float:
        """Total sequential work units (serial + parallelizable)."""
        return self.serial_units + self.parallel_units


class SearchEngine:
    """Executes queries against one index fragment and meters the work."""

    def __init__(
        self, index: InvertedIndex, config: SearchWorkloadConfig
    ) -> None:
        self.index = index
        self.config = config

    def execute(self, query: Query, compute_results: bool = False) -> QueryExecution:
        """Run one query; optionally materialise the top-k results.

        ``compute_results=False`` still performs the matching for real
        (so costs are measured, not estimated) but skips building the
        ranked result list — useful when generating large traces.
        """
        term_ids = np.asarray(query.term_ids, dtype=np.int64)
        k = len(term_ids)
        min_match = 1 if k == 1 else (k + 1) // 2

        posting_docs = []
        posting_tfs = []
        for term in term_ids:
            docs, tfs = self.index.postings(int(term))
            posting_docs.append(docs)
            posting_tfs.append(tfs)
        all_docs = (
            np.concatenate(posting_docs) if posting_docs else np.empty(0, np.int32)
        )
        total_postings = int(all_docs.size)

        # Per-document keyword counts; integer counts are exact.
        hits = np.bincount(all_docs)
        keep = hits >= min_match
        matched = int(np.count_nonzero(keep))
        scored_hits = int(hits @ keep)

        results: tuple[tuple[int, float], ...] | None = None
        if compute_results:
            results = ()
            if matched:
                order = np.argsort(all_docs, kind="stable")
                sorted_docs = all_docs[order]
                posting_terms = [
                    np.full(len(docs), term, dtype=np.int64)
                    for docs, term in zip(posting_docs, term_ids)
                ]
                results = self._score_survivors(
                    order,
                    keep[sorted_docs],
                    sorted_docs,
                    posting_tfs,
                    posting_terms,
                )

        traversal_units = float(total_postings)
        scoring_units = float(scored_hits) * self.config.score_cost_per_hit
        return QueryExecution(
            qid=query.qid,
            num_keywords=k,
            total_postings=total_postings,
            matched_documents=matched,
            scored_hits=scored_hits,
            traversal_units=traversal_units,
            scoring_units=scoring_units,
            serial_units=float(self.config.serial_work_units),
            results=results,
        )

    def _score_survivors(
        self,
        order: np.ndarray,
        hit_mask: np.ndarray,
        sorted_docs: np.ndarray,
        posting_tfs: list[np.ndarray],
        posting_terms: list[np.ndarray],
    ) -> tuple[tuple[int, float], ...]:
        all_tfs = np.concatenate(posting_tfs)[order]
        all_terms = np.concatenate(posting_terms)[order]
        docs = sorted_docs[hit_mask]
        tfs = all_tfs[hit_mask]
        terms = all_terms[hit_mask]
        idfs = self.index.idf_array(terms)
        lengths = self.index.doc_lengths[docs].astype(np.float64)
        scores = bm25_scores(tfs, idfs, lengths, self.index.avg_doc_length)
        return tuple(top_k_documents(docs, scores, self.config.top_k))
