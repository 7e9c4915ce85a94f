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

#: Tokens per step when building the fused sort key (4 MB of uint32).
_KEY_CHUNK = 1 << 20


class InvertedIndex:
    """Term -> (doc ids, term frequencies) over one index fragment."""

    def __init__(self, corpus: Corpus) -> None:
        self._num_documents = corpus.num_documents
        self._vocabulary_size = corpus.vocabulary_size
        self._doc_lengths = np.diff(corpus.doc_offsets).astype(np.int32)

        # Sort (term, doc) pairs as one fused key, ``term * num_docs +
        # doc``: equal pairs give equal keys, so any sort yields the one
        # order ``lexsort`` would.
        num_docs = self._num_documents
        key = _fused_keys(
            corpus.doc_term_ids, self._doc_lengths, num_docs, self._vocabulary_size
        )
        key.sort()
        # Collapse duplicate (term, doc) runs into tf counts. Each large
        # temporary is dropped as soon as the next step is done with it.
        num_tokens = len(key)
        boundary = np.ones(num_tokens, dtype=bool)
        np.not_equal(key[1:], key[:-1], out=boundary[1:])
        pairs = key[boundary]
        del key
        starts = np.flatnonzero(boundary)
        del boundary
        # Run lengths straight into int32, with no int64 ``np.diff`` copy.
        self._posting_tfs = np.empty(len(starts), dtype=np.int32)
        np.subtract(
            starts[1:], starts[:-1], out=self._posting_tfs[:-1], casting="unsafe"
        )
        self._posting_tfs[-1:] = num_tokens - starts[-1:]
        del starts
        terms, docs = np.divmod(pairs, pairs.dtype.type(num_docs))
        del pairs
        self._posting_terms = terms.astype(corpus.doc_term_ids.dtype)
        del terms
        self._posting_docs = docs.astype(np.int32)
        del docs

        # CSR offsets per term id, searched in the sorted terms' own
        # dtype: ``bincount`` would cast them to a full-size int64 copy.
        self._term_offsets = np.searchsorted(
            self._posting_terms,
            np.arange(self._vocabulary_size + 1, dtype=self._posting_terms.dtype),
        ).astype(np.int64, copy=False)
        self._document_frequencies = np.diff(self._term_offsets)

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
    tokens: np.ndarray, doc_lengths: np.ndarray, num_docs: int, vocabulary_size: int
) -> np.ndarray:
    """``term * num_docs + doc`` for every token, in corpus order.

    The key takes the smallest unsigned dtype that holds
    ``vocabulary_size * num_docs``, one past the largest key and never
    less than the multiplier ``num_docs``: uint32 for the canonical
    6 000 terms x 24 000 documents, wider only when a fragment needs it.
    It is built in place on top of the token -> doc expansion,
    ``_KEY_CHUNK`` tokens at a time, so the only full-size array is the
    key itself.  An int64 key would double the sort's array, and
    building it whole (``tokens.astype(...) * num_docs + repeat``)
    would hold a second full-size key on top.
    """
    dtype = np.min_scalar_type(vocabulary_size * num_docs)
    key = np.repeat(np.arange(num_docs, dtype=dtype), doc_lengths)
    multiplier = dtype.type(num_docs)
    for start in range(0, len(key), _KEY_CHUNK):
        stop = start + _KEY_CHUNK
        term_part = tokens[start:stop].astype(dtype)
        term_part *= multiplier
        key[start:stop] += term_part
    return key
