"""Differential tests of the workload-build stages against numpy itself.

The corpus draw and query sampling re-implement ``Generator.choice``
(with and without replacement) so that a CDF is built once and the
draw runs in chunks, and the inverted index replaces a two-array
``lexsort`` with a fused-key sort. All three promise identical output.
These tests hold them to it against the originals: ``Generator.choice``
itself, and the ``lexsort`` index build kept verbatim below. If numpy
ever changes how ``choice`` consumes its stream, they fail loudly here
rather than as an unexplained golden mismatch.
"""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.search.corpus import (
    Corpus,
    _choice_cdf,
    _choice_without_replacement,
    _draw_with_replacement,
    zipf_probabilities,
)
from repro.search.index import InvertedIndex


def _random_probs(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Zipf vector over ``n`` terms, sometimes with zeroed entries."""
    probs = zipf_probabilities(n, float(rng.uniform(0.3, 2.5)))
    if n > 1 and rng.random() < 0.5:
        zeroed = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
        probs[zeroed] = 0.0
        probs /= probs.sum()
    return probs


def _state(rng: np.random.Generator):
    return rng.bit_generator.state


class TestChoiceWithoutReplacement:
    @pytest.mark.parametrize("block", range(10))
    def test_matches_generator_choice(self, block):
        """100 seeds a block, five successive draws per generator."""
        for seed in range(block * 100, (block + 1) * 100):
            setup = np.random.default_rng([seed, 1])
            n = int(setup.integers(1, 400))
            probs = _random_probs(setup, n)
            cdf = _choice_cdf(probs)
            drawable = int(np.count_nonzero(probs))
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for _ in range(5):
                k = int(setup.integers(1, min(drawable, 12) + 1))
                got = _choice_without_replacement(ours, probs, cdf, k)
                want = theirs.choice(n, size=k, replace=False, p=probs)
                np.testing.assert_array_equal(got, want)
                assert got.dtype == want.dtype
                assert _state(ours) == _state(theirs)

    @pytest.mark.parametrize("exponent", [0.8, 1.1, 3.0])
    def test_drawing_every_term_matches(self, exponent):
        # k equal to the number of drawable terms forces many rounds
        # of zeroing and CDF rebuilds on a steep distribution.
        probs = zipf_probabilities(40, exponent)
        cdf = _choice_cdf(probs)
        for seed in range(20):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            got = _choice_without_replacement(ours, probs, cdf, 40)
            want = theirs.choice(40, size=40, replace=False, p=probs)
            np.testing.assert_array_equal(got, want)
            assert _state(ours) == _state(theirs)

    def test_too_few_drawable_terms_raises(self):
        probs = np.array([0.5, 0.0, 0.5, 0.0])
        with pytest.raises(WorkloadError):
            _choice_without_replacement(
                np.random.default_rng(0), probs, _choice_cdf(probs), 3
            )


class TestChoiceWithReplacement:
    @pytest.mark.parametrize("chunk", [3, 64, 1000, 1 << 20])
    def test_matches_generator_choice(self, chunk, monkeypatch):
        monkeypatch.setattr("repro.search.corpus._DRAW_CHUNK", chunk)
        for seed in range(60):
            setup = np.random.default_rng([seed, 2])
            n = int(setup.integers(1, 3000))
            probs = _random_probs(setup, n)
            cdf = _choice_cdf(probs)
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            for _ in range(3):
                size = int(setup.integers(1, 5000))
                got = _draw_with_replacement(ours, cdf, size)
                want = theirs.choice(n, size=size, p=probs)
                np.testing.assert_array_equal(got, want)
                assert got.dtype == np.int32
                assert _state(ours) == _state(theirs)

    @pytest.mark.parametrize("size", [1, 255, 256, 257, 1024])
    def test_chunk_boundaries(self, size, monkeypatch):
        monkeypatch.setattr("repro.search.corpus._DRAW_CHUNK", 256)
        probs = zipf_probabilities(500, 1.1)
        ours = np.random.default_rng(size)
        theirs = np.random.default_rng(size)
        got = _draw_with_replacement(ours, _choice_cdf(probs), size)
        np.testing.assert_array_equal(got, theirs.choice(500, size=size, p=probs))
        assert _state(ours) == _state(theirs)


def _lexsort_postings(corpus: Corpus) -> dict[str, np.ndarray]:
    """The ``lexsort`` index build the fused-key sort replaced, verbatim."""
    num_documents = corpus.num_documents
    doc_lengths = np.diff(corpus.doc_offsets).astype(np.int32)
    doc_of_token = np.repeat(
        np.arange(num_documents, dtype=np.int32), doc_lengths
    )
    order = np.lexsort((doc_of_token, corpus.doc_term_ids))
    terms = corpus.doc_term_ids[order]
    docs = doc_of_token[order]
    boundary = np.ones(len(terms), dtype=bool)
    boundary[1:] = (terms[1:] != terms[:-1]) | (docs[1:] != docs[:-1])
    starts = np.flatnonzero(boundary)
    run_lengths = np.diff(np.append(starts, len(terms)))
    posting_terms = terms[starts]
    counts = np.bincount(posting_terms, minlength=corpus.vocabulary_size)
    term_offsets = np.zeros(corpus.vocabulary_size + 1, dtype=np.int64)
    np.cumsum(counts, out=term_offsets[1:])
    return {
        "terms": posting_terms,
        "docs": docs[starts].astype(np.int32),
        "tfs": run_lengths.astype(np.int32),
        "term_offsets": term_offsets,
        "document_frequencies": counts.astype(np.int64),
    }


def _random_corpus(
    rng: np.random.Generator, num_docs: int, vocabulary: int, max_len: int
) -> Corpus:
    lengths = rng.integers(0, max_len + 1, size=num_docs)
    offsets = np.zeros(num_docs + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    tokens = rng.integers(0, vocabulary, size=int(offsets[-1])).astype(np.int32)
    return Corpus(
        doc_term_ids=tokens,
        doc_offsets=offsets,
        vocabulary_size=vocabulary,
        term_probabilities=np.full(vocabulary, 1.0 / vocabulary),
    )


def _assert_same_postings(corpus: Corpus) -> None:
    index = InvertedIndex(corpus)
    want = _lexsort_postings(corpus)
    got = {
        "terms": index._posting_terms,
        "docs": index._posting_docs,
        "tfs": index._posting_tfs,
        "term_offsets": index._term_offsets,
        "document_frequencies": index.document_frequencies,
    }
    for name, expected in want.items():
        np.testing.assert_array_equal(got[name], expected, err_msg=name)
        assert got[name].dtype == expected.dtype, name


class TestFusedKeyIndex:
    @pytest.mark.parametrize("seed", range(40))
    def test_matches_lexsort(self, seed):
        rng = np.random.default_rng(seed)
        corpus = _random_corpus(
            rng,
            num_docs=int(rng.integers(1, 200)),
            vocabulary=int(rng.integers(1, 150)),
            max_len=int(rng.integers(1, 60)),
        )
        _assert_same_postings(corpus)

    @pytest.mark.parametrize(
        "num_docs, vocabulary, max_len",
        [(1, 50, 40), (60, 1, 20), (1, 1, 10), (30, 10, 0)],
        ids=["single-doc", "single-term", "single-doc-single-term", "empty"],
    )
    def test_edge_cases(self, num_docs, vocabulary, max_len):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            _assert_same_postings(
                _random_corpus(rng, num_docs, vocabulary, max_len)
            )

    def test_spans_several_key_chunks(self, monkeypatch):
        # Shrink the key-building chunk so a small corpus crosses many
        # chunk boundaries, including a ragged last chunk.
        monkeypatch.setattr("repro.search.index._KEY_CHUNK", 37)
        rng = np.random.default_rng(7)
        _assert_same_postings(_random_corpus(rng, 90, 70, 25))
