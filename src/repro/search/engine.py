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

The per-document keyword counts are kept bit-sliced: every term's
posting list is packed into a document bitset, and a query's bitsets
are ripple-added into binary counter planes (plane ``p`` holds bit
``p`` of every document's count).  Whole batches of queries with the
same keyword count are metered in a few array passes this way, and
every count is an exact integer.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from ..config import SearchWorkloadConfig
from .index import InvertedIndex
from .query import Query, keyword_groups
from .scoring import bm25_scores, top_k_documents

__all__ = ["BatchExecution", "QueryExecution", "SearchEngine"]

#: Postings packed per step when building the term bitsets (512 KB per
#: int64 temporary).  Chunks of 2**14 and 2**18 both raised the peak RSS
#: of some canonical builds (DESIGN §10, "Bulk metering pass").
_PACK_CHUNK = 1 << 16
#: Bitset words per counter array in a metering chunk (256 KB).
_CHUNK_WORDS = 1 << 15
#: SWAR popcount masks: bit pairs, nibbles, bytes; and the byte summer.
_M1 = np.uint64(0x5555555555555555)
_M2 = np.uint64(0x3333333333333333)
_M4 = np.uint64(0x0F0F0F0F0F0F0F0F)
_H01 = np.uint64(0x0101010101010101)


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


@dataclass(frozen=True)
class BatchExecution:
    """Measured work of a batch of queries, one int64 entry per query."""

    total_postings: np.ndarray
    matched_documents: np.ndarray
    scored_hits: np.ndarray
    serial_units: float
    score_cost_per_hit: float

    @property
    def total_units(self) -> np.ndarray:
        """Total sequential work units, as :class:`QueryExecution` sums them."""
        traversal = self.total_postings.astype(np.float64)
        scoring = self.scored_hits.astype(np.float64) * self.score_cost_per_hit
        return self.serial_units + (traversal + scoring)


class SearchEngine:
    """Executes queries against one index fragment and meters the work.

    Construction packs every term's posting list into a document bitset
    (``vocabulary_size x ceil(num_documents / 64)`` uint64 words); the
    bitsets live as long as the engine.
    """

    def __init__(self, index: InvertedIndex, config: SearchWorkloadConfig) -> None:
        self.index = index
        self.config = config
        self._bits = _term_bitsets(index)

    def execute(self, query: Query, compute_results: bool = False) -> QueryExecution:
        """Run one query; optionally materialise the top-k results.

        ``compute_results=False`` still performs the matching for real
        (so costs are measured, not estimated) but skips building the
        ranked result list — useful when generating large traces.
        """
        terms = np.array([query.term_ids], dtype=np.int64)
        total_postings = int(self.index.df_array(terms).sum())
        matched, scored_hits, survivors = self._count(terms)
        matched_documents = int(matched[0])

        results: tuple[tuple[int, float], ...] | None = None
        if compute_results:
            results = ()
            if matched_documents:
                results = self._ranked_results(terms[0], survivors[0])

        return QueryExecution(
            qid=query.qid,
            num_keywords=terms.shape[1],
            total_postings=total_postings,
            matched_documents=matched_documents,
            scored_hits=int(scored_hits[0]),
            traversal_units=float(total_postings),
            scoring_units=float(scored_hits[0]) * self.config.score_cost_per_hit,
            serial_units=float(self.config.serial_work_units),
            results=results,
        )

    def execute_batch(self, queries: Sequence[Query]) -> BatchExecution:
        """Meter every query of ``queries``; the counts :meth:`execute` gives.

        Queries are grouped by keyword count and metered a chunk at a
        time, so that each counter array stays at ``_CHUNK_WORDS`` words.
        """
        n = len(queries)
        total_postings = np.zeros(n, dtype=np.int64)
        matched = np.zeros(n, dtype=np.int64)
        scored_hits = np.zeros(n, dtype=np.int64)
        rows_per_chunk = max(1, _CHUNK_WORDS // max(1, self._bits.shape[1]))
        for rows, terms in keyword_groups(queries):
            total_postings[rows] = self.index.df_array(terms).sum(axis=1)
            for start in range(0, len(rows), rows_per_chunk):
                chunk = slice(start, start + rows_per_chunk)
                counts = self._count(terms[chunk])
                matched[rows[chunk]] = counts[0]
                scored_hits[rows[chunk]] = counts[1]
        return BatchExecution(
            total_postings=total_postings,
            matched_documents=matched,
            scored_hits=scored_hits,
            serial_units=float(self.config.serial_work_units),
            score_cost_per_hit=self.config.score_cost_per_hit,
        )

    def _count(self, terms: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(matched documents, scored hits, survivor bitsets) per row.

        ``terms`` is a range-checked (queries, k) matrix of term ids.  A
        document survives when at least ``min_match`` of the k terms
        (counted with multiplicity) contain it; its scored hits are that
        count.
        """
        k = terms.shape[1]
        min_match = 1 if k == 1 else (k + 1) // 2
        # Ripple-add the k bitsets: after j terms no count exceeds j,
        # so a carry out of the top plane is possible only when j
        # reaches a power of two, and it becomes the next plane.
        planes: list[np.ndarray] = []
        for j in range(k):
            carry = self._bits[terms[:, j]]
            for plane in planes:
                overflow = plane & carry
                plane ^= carry
                carry = overflow
            if (j + 1) >> len(planes):
                planes.append(carry)
        # count >= min_match, decided from the top plane down: "above"
        # marks counts already greater, "equal" those tied so far.
        above = np.zeros_like(planes[0])
        equal = np.full_like(planes[0], np.iinfo(np.uint64).max)
        for p in reversed(range(len(planes))):
            if min_match >> p & 1:
                equal &= planes[p]
            else:
                above |= equal & planes[p]
                equal &= ~planes[p]
        survivors = above | equal
        matched = _popcounts(survivors)
        scored_hits = np.zeros_like(matched)
        for p, plane in enumerate(planes):
            plane &= survivors
            scored_hits += _popcounts(plane) << p
        return matched, scored_hits, survivors

    def _ranked_results(
        self, term_ids: np.ndarray, survivors: np.ndarray
    ) -> tuple[tuple[int, float], ...]:
        """BM25 top-k over every posting of a surviving document."""
        num_docs = self.index.num_documents
        keep = np.unpackbits(survivors.view(np.uint8), bitorder="little")
        keep = keep[:num_docs].astype(bool)
        postings = [self.index.postings(int(term)) for term in term_ids]
        all_docs = np.concatenate([docs for docs, _ in postings])
        all_tfs = np.concatenate([tfs for _, tfs in postings])
        all_terms = np.repeat(term_ids, [len(docs) for docs, _ in postings])
        order = np.argsort(all_docs, kind="stable")
        sorted_docs = all_docs[order]
        hit_mask = keep[sorted_docs]
        docs = sorted_docs[hit_mask]
        tfs = all_tfs[order][hit_mask]
        terms = all_terms[order][hit_mask]
        idfs = self.index.idf_array(terms)
        lengths = self.index.doc_lengths[docs].astype(np.float64)
        scores = bm25_scores(tfs, idfs, lengths, self.index.avg_doc_length)
        return tuple(top_k_documents(docs, scores, self.config.top_k))


def _term_bitsets(index: InvertedIndex) -> np.ndarray:
    """Document bitset of every term: bit ``d % 64`` of word ``d // 64``."""
    words = -(-index.num_documents // 64)
    bits = np.zeros(index.vocabulary_size * words, dtype=np.uint64)
    posting_terms, posting_docs = index.posting_pairs()
    for start in range(0, len(posting_docs), _PACK_CHUNK):
        stop = start + _PACK_CHUNK
        docs = posting_docs[start:stop].astype(np.int64)
        word = posting_terms[start:stop].astype(np.int64) * words
        word += docs >> 6
        bit = np.left_shift(np.uint64(1), (docs & 63).astype(np.uint64))
        # Postings are sorted by (term, doc), so each word's bits form
        # one run, and distinct bits sum to their OR.  A run cut by a
        # chunk boundary is OR-ed in twice, which is still exact.
        runs = np.flatnonzero(np.diff(word, prepend=-1))
        bits[word[runs]] |= np.add.reduceat(bit, runs)
    return bits.reshape(index.vocabulary_size, words)


def _popcounts(words: np.ndarray) -> np.ndarray:
    """Set bits per row of a (rows, words) uint64 array, as int64.

    The SWAR popcount: sum bits in pairs, then nibbles, then bytes, and
    gather the eight byte sums into the top byte with one multiply.
    """
    v = words - ((words >> np.uint64(1)) & _M1)
    v = (v & _M2) + ((v >> np.uint64(2)) & _M2)
    v += v >> np.uint64(4)
    v &= _M4
    v *= _H01
    v >>= np.uint64(56)
    return v.sum(axis=1).astype(np.int64)
