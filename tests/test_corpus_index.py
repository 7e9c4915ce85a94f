"""Tests for the corpus generator and inverted index."""

import math

import numpy as np
import pytest

from repro.config import SearchWorkloadConfig
from repro.errors import WorkloadError
from repro.search.corpus import build_corpus, zipf_probabilities
from repro.search.index import InvertedIndex


@pytest.fixture(scope="module")
def small_corpus():
    cfg = SearchWorkloadConfig(
        num_documents=400, vocabulary_size=300, mean_doc_length=60
    )
    return build_corpus(cfg, np.random.default_rng(5))


@pytest.fixture(scope="module")
def small_index(small_corpus):
    return InvertedIndex(small_corpus)


class TestZipf:
    def test_probabilities_sum_to_one(self):
        probs = zipf_probabilities(1000, 1.1)
        assert probs.sum() == pytest.approx(1.0)

    def test_probabilities_decrease_with_rank(self):
        probs = zipf_probabilities(100, 1.0)
        assert all(b < a for a, b in zip(probs, probs[1:]))

    def test_head_dominates(self):
        probs = zipf_probabilities(10_000, 1.1)
        assert probs[:100].sum() > 0.4

    def test_rejects_bad_inputs(self):
        with pytest.raises(WorkloadError):
            zipf_probabilities(0, 1.0)
        with pytest.raises(WorkloadError):
            zipf_probabilities(10, 0.0)


class TestCorpus:
    def test_dimensions(self, small_corpus):
        assert small_corpus.num_documents == 400
        assert small_corpus.vocabulary_size == 300
        assert small_corpus.total_tokens == len(small_corpus.doc_term_ids)

    def test_document_access(self, small_corpus):
        # CSR layout: document i owns doc_term_ids[offsets[i]:offsets[i + 1]].
        offsets = small_corpus.doc_offsets
        assert offsets[0] == 0
        assert (np.diff(offsets) >= 8).all()  # the minimum document length
        for doc_id in (0, 100, 399):
            terms = small_corpus.doc_term_ids[offsets[doc_id] : offsets[doc_id + 1]]
            assert terms.min() >= 0
            assert terms.max() < 300

    def test_mean_length_near_configured(self, small_corpus):
        lengths = np.diff(small_corpus.doc_offsets)
        assert np.mean(lengths) == pytest.approx(60, rel=0.25)

    def test_reproducible_for_same_seed(self):
        cfg = SearchWorkloadConfig(
            num_documents=50, vocabulary_size=80, mean_doc_length=30
        )
        a = build_corpus(cfg, np.random.default_rng(3))
        b = build_corpus(cfg, np.random.default_rng(3))
        np.testing.assert_array_equal(a.doc_term_ids, b.doc_term_ids)


class TestInvertedIndex:
    def test_postings_are_sorted_unique_docs(self, small_index):
        for term in range(0, 300, 37):
            docs, tfs = small_index.postings(term)
            assert len(docs) == len(tfs)
            assert all(b > a for a, b in zip(docs, docs[1:]))
            assert (tfs >= 1).all()

    def test_document_frequency_matches_postings(self, small_index):
        for term in (0, 10, 299):
            docs, _ = small_index.postings(term)
            assert small_index.document_frequencies[term] == len(docs)

    def test_postings_reconstruct_corpus_counts(self, small_corpus, small_index):
        """The tf of (term, doc) in the index equals the term's count in
        the document — the index is lossless."""
        doc_id = 7
        lo, hi = small_corpus.doc_offsets[doc_id : doc_id + 2]
        terms, counts = np.unique(
            small_corpus.doc_term_ids[lo:hi], return_counts=True
        )
        for term, count in zip(terms, counts):
            docs, tfs = small_index.postings(int(term))
            pos = np.searchsorted(docs, doc_id)
            assert docs[pos] == doc_id
            assert tfs[pos] == count

    def test_popular_terms_have_longer_postings(self, small_index):
        dfs = small_index.document_frequencies
        assert dfs[:10].mean() > dfs[-100:].mean()

    def test_idf_decreases_with_df(self, small_index):
        # rank 0 is most frequent -> smallest IDF.
        low, high = small_index.idf_array([0, 299])
        assert low < high

    def test_idf_array_matches_scalar(self, small_index):
        # The Robertson-Sparck-Jones IDF, one term at a time.
        ids = [0, 5, 100]
        arr = small_index.idf_array(ids)
        n = small_index.num_documents
        for i, term in enumerate(ids):
            df = len(small_index.postings(term)[0])
            assert arr[i] == pytest.approx(math.log1p((n - df + 0.5) / (df + 0.5)))

    def test_total_postings_sums_dfs(self, small_index):
        ids = [1, 2, 3]
        expected = sum(small_index.document_frequencies[t] for t in ids)
        assert small_index.total_postings(ids) == expected

    def test_term_out_of_range_rejected(self, small_index):
        with pytest.raises(WorkloadError):
            small_index.postings(300)
        with pytest.raises(WorkloadError):
            small_index.idf_array([300])

    def test_doc_lengths_and_average(self, small_index, small_corpus):
        assert len(small_index.doc_lengths) == 400
        assert small_index.avg_doc_length == pytest.approx(
            np.mean(np.diff(small_corpus.doc_offsets))
        )
