"""In-memory inverted index (document-sharded, like one ISN's fragment).

For every term the index stores the sorted document ids containing it
and the corresponding term frequencies.  Posting-list *lengths* (the
document frequencies) are the primary cost driver for query execution
and, because they are known before a query runs, the primary feature of
the execution-time predictor.
"""

from __future__ import annotations

import numpy as np

from ..errors import WorkloadError
from .corpus import Corpus

__all__ = ["InvertedIndex"]

#: Tokens per step when building the fused sort key (8 MB of int64).
_KEY_CHUNK = 1 << 20


class InvertedIndex:
    """Term -> (doc ids, term frequencies) over one index fragment."""

    def __init__(self, corpus: Corpus) -> None:
        self._num_documents = corpus.num_documents
        self._vocabulary_size = corpus.vocabulary_size
        self._doc_lengths = np.diff(corpus.doc_offsets).astype(np.int32)

        # Sort (term, doc) pairs as one fused int64 key,
        # ``term * num_docs + doc``: equal pairs give equal keys, so any
        # sort yields the one order ``lexsort`` would.
        num_docs = self._num_documents
        key = _fused_keys(corpus.doc_term_ids, self._doc_lengths, num_docs)
        key.sort()
        # Collapse duplicate (term, doc) runs into tf counts. Each large
        # temporary is dropped as soon as the next step is done with it.
        num_tokens = len(key)
        boundary = np.ones(num_tokens, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=boundary[1:])
        starts = np.flatnonzero(boundary)
        del boundary
        pairs = key[starts]
        del key
        self._posting_tfs = np.diff(starts, append=num_tokens).astype(np.int32)
        del starts
        self._posting_terms = (pairs // num_docs).astype(
            corpus.doc_term_ids.dtype
        )
        self._posting_docs = (pairs % num_docs).astype(np.int32)
        del pairs

        # CSR offsets per term id.
        counts = np.bincount(
            self._posting_terms, minlength=self._vocabulary_size
        )
        self._term_offsets = np.zeros(self._vocabulary_size + 1, dtype=np.int64)
        np.cumsum(counts, out=self._term_offsets[1:])
        self._document_frequencies = counts.astype(np.int64)

        avg_len = self._doc_lengths.mean() if self._num_documents else 0.0
        self._avg_doc_length = float(avg_len)

    @property
    def num_documents(self) -> int:
        """Documents in this index fragment."""
        return self._num_documents

    @property
    def vocabulary_size(self) -> int:
        """Number of distinct terms the index knows."""
        return self._vocabulary_size

    @property
    def doc_lengths(self) -> np.ndarray:
        """Token count per document (for BM25 normalisation)."""
        return self._doc_lengths

    @property
    def avg_doc_length(self) -> float:
        """Mean document length."""
        return self._avg_doc_length

    @property
    def document_frequencies(self) -> np.ndarray:
        """Document frequency of every term (posting-list lengths)."""
        return self._document_frequencies

    def document_frequency(self, term_id: int) -> int:
        """Posting-list length of one term."""
        self._check_term(term_id)
        return int(self._document_frequencies[term_id])

    def idf(self, term_id: int) -> float:
        """Robertson-Sparck-Jones IDF of one term."""
        df = self.document_frequency(term_id)
        return float(
            np.log1p((self._num_documents - df + 0.5) / (df + 0.5))
        )

    def df_array(self, term_ids: np.ndarray | list[int]) -> np.ndarray:
        """Vectorised document frequencies, in the shape of ``term_ids``."""
        ids = np.asarray(term_ids, dtype=np.int64)
        # Fancy indexing would wrap a negative id round silently.
        if ids.size and (ids.min() < 0 or ids.max() >= self._vocabulary_size):
            raise WorkloadError("term id out of range")
        return self._document_frequencies[ids]

    def idf_array(self, term_ids: np.ndarray | list[int]) -> np.ndarray:
        """Vectorised IDF for several terms."""
        df = self.df_array(term_ids).astype(np.float64)
        return np.log1p((self._num_documents - df + 0.5) / (df + 0.5))

    def postings(self, term_id: int) -> tuple[np.ndarray, np.ndarray]:
        """(sorted doc ids, term frequencies) of one term."""
        self._check_term(term_id)
        lo = self._term_offsets[term_id]
        hi = self._term_offsets[term_id + 1]
        return self._posting_docs[lo:hi], self._posting_tfs[lo:hi]

    def posting_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """(term id, doc id) of every posting, sorted by term, then doc."""
        return self._posting_terms, self._posting_docs

    def total_postings(self, term_ids: np.ndarray | list[int]) -> int:
        """Sum of posting-list lengths (the traversal cost driver)."""
        return int(self.df_array(term_ids).sum())

    def _check_term(self, term_id: int) -> None:
        if not 0 <= term_id < self._vocabulary_size:
            raise WorkloadError(
                f"term id {term_id} outside [0, {self._vocabulary_size})"
            )

    def __repr__(self) -> str:
        return (
            f"InvertedIndex(docs={self._num_documents}, "
            f"terms={self._vocabulary_size}, "
            f"postings={len(self._posting_docs)})"
        )


def _fused_keys(
    tokens: np.ndarray, doc_lengths: np.ndarray, num_docs: int
) -> np.ndarray:
    """``term * num_docs + doc`` for every token, in corpus order.

    Built in place on top of the token -> doc expansion, ``_KEY_CHUNK``
    tokens at a time, so the only full-size array is the key itself.
    Building it whole (``tokens.astype(np.int64) * num_docs + repeat``)
    holds a second full-size int64 array and raises the canonical
    build's peak RSS by about 11 MB.
    """
    key = np.repeat(np.arange(num_docs, dtype=np.int64), doc_lengths)
    for start in range(0, len(key), _KEY_CHUNK):
        stop = start + _KEY_CHUNK
        term_part = tokens[start:stop].astype(np.int64)
        term_part *= num_docs
        key[start:stop] += term_part
    return key
