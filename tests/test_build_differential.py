"""Differential tests of the workload-build stages against numpy itself.

The corpus draw and query sampling re-implement ``Generator.choice``
(with and without replacement) so that a CDF is built once and the
draw runs in chunks, and the inverted index replaces a two-array
``lexsort`` with a fused-key sort. All three promise identical output.
These tests hold them to it against the originals: ``Generator.choice``
itself, and the ``lexsort`` index build kept verbatim below. If numpy
ever changes how ``choice`` consumes its stream, they fail loudly here
rather than as an unexplained golden mismatch.

Pool metering gets the same treatment: the bit-sliced counter behind
``SearchEngine.execute_batch`` and ``execute`` and the grouped
``query_feature_matrix`` are compared with the per-query ``bincount``
counter and feature function they replaced, both kept verbatim below.
"""

import numpy as np
import pytest

from repro.config import SearchWorkloadConfig
from repro.errors import WorkloadError
from repro.prediction.features import query_feature_matrix, query_features
from repro.search.corpus import (
    Corpus,
    _choice_cdf,
    _choice_without_replacement,
    _draw_with_replacement,
    build_corpus,
    zipf_probabilities,
)
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import Query, QueryGenerator
from repro.search.scoring import bm25_scores, top_k_documents


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


def _reference_execute(
    index: InvertedIndex,
    config: SearchWorkloadConfig,
    query: Query,
    compute_results: bool = False,
) -> dict:
    """The ``bincount`` counter the bit-sliced one replaced, verbatim."""
    term_ids = np.asarray(query.term_ids, dtype=np.int64)
    k = len(term_ids)
    min_match = 1 if k == 1 else (k + 1) // 2

    posting_docs = []
    posting_tfs = []
    for term in term_ids:
        docs, tfs = index.postings(int(term))
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

    results = None
    if compute_results:
        results = ()
        if matched:
            order = np.argsort(all_docs, kind="stable")
            sorted_docs = all_docs[order]
            posting_terms = [
                np.full(len(docs), term, dtype=np.int64)
                for docs, term in zip(posting_docs, term_ids)
            ]
            all_tfs = np.concatenate(posting_tfs)[order]
            all_terms = np.concatenate(posting_terms)[order]
            hit_mask = keep[sorted_docs]
            docs = sorted_docs[hit_mask]
            tfs = all_tfs[hit_mask]
            terms = all_terms[hit_mask]
            idfs = index.idf_array(terms)
            lengths = index.doc_lengths[docs].astype(np.float64)
            scores = bm25_scores(tfs, idfs, lengths, index.avg_doc_length)
            results = tuple(top_k_documents(docs, scores, config.top_k))

    traversal_units = float(total_postings)
    scoring_units = float(scored_hits) * config.score_cost_per_hit
    serial_units = float(config.serial_work_units)
    return {
        "total_postings": total_postings,
        "matched_documents": matched,
        "scored_hits": scored_hits,
        "total_units": serial_units + (traversal_units + scoring_units),
        "results": results,
    }


def _reference_features(query: Query, index: InvertedIndex) -> np.ndarray:
    """The per-query feature function the grouped one replaced, verbatim."""
    term_ids = np.asarray(query.term_ids, dtype=np.int64)
    dfs = index.document_frequencies[term_ids].astype(np.float64)
    idfs = index.idf_array(term_ids)
    sorted_dfs = np.sort(dfs)[::-1]
    second_max = sorted_dfs[1] if len(sorted_dfs) > 1 else sorted_dfs[0]
    return np.array(
        [
            float(len(term_ids)),
            float(np.log1p(dfs.sum())),
            float(np.log1p(dfs.min())),
            float(np.log1p(dfs.max())),
            float(np.log1p(second_max)),
            float(idfs.mean()),
            float(idfs.min()),
            float(idfs.sum()),
        ]
    )


_METERED = ("total_postings", "matched_documents", "scored_hits", "total_units")


def _assert_same_metering(
    index: InvertedIndex, config: SearchWorkloadConfig, queries: list[Query]
) -> None:
    """Bulk, single and reference metering and features agree exactly."""
    engine = SearchEngine(index, config)
    want = [_reference_execute(index, config, q, compute_results=True) for q in queries]
    batch = engine.execute_batch(queries)
    for name in _METERED:
        expected = np.array([w[name] for w in want])
        got = getattr(batch, name)
        assert got.dtype == expected.dtype, name
        assert got.tobytes() == expected.tobytes(), name
    for query, expected in zip(queries, want):
        single = engine.execute(query, compute_results=True)
        assert {name: getattr(single, name) for name in _METERED} == {
            name: expected[name] for name in _METERED
        }
        assert single.results == expected["results"]
        assert engine.execute(query).results is None
    reference = [_reference_features(q, index) for q in queries]
    matrix = query_feature_matrix(queries, index)
    assert matrix.dtype == np.float64
    assert matrix.tobytes() == np.vstack(reference).tobytes()
    for query, expected in zip(queries, reference):
        assert query_features(query, index).tobytes() == expected.tobytes()


def _random_queries(
    rng: np.random.Generator, vocabulary: int, count: int, max_k: int = 20
) -> list[Query]:
    """Uniform term ids, so duplicates within one query occur too."""
    queries = []
    for qid in range(count):
        k = int(rng.integers(1, max_k + 1))
        terms = rng.integers(0, vocabulary, size=k)
        queries.append(Query(qid, tuple(int(t) for t in terms)))
    return queries


_SMALL_CONFIG = SearchWorkloadConfig(
    num_documents=500,
    vocabulary_size=300,
    mean_doc_length=60,
    hard_term_pool=40,
    easy_skip_top=10,
)


class TestBitSlicedMetering:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_corpora(self, seed):
        # Document counts below 64, at and around multiples of 64, and
        # vocabularies with many df = 0 terms.
        rng = np.random.default_rng([seed, 3])
        num_docs = int(rng.choice([1, 5, 63, 64, 65, 127, 128, 130, 200, 333]))
        corpus = _random_corpus(
            rng,
            num_docs=num_docs,
            vocabulary=int(rng.integers(1, 120)),
            max_len=int(rng.integers(0, 40)),
        )
        index = InvertedIndex(corpus)
        queries = _random_queries(rng, corpus.vocabulary_size, 150)
        _assert_same_metering(index, _SMALL_CONFIG, queries)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_every_keyword_count(self, k):
        rng = np.random.default_rng([k, 4])
        corpus = _random_corpus(rng, num_docs=150, vocabulary=25, max_len=30)
        queries = [
            Query(i, tuple(int(t) for t in rng.integers(0, 25, size=k)))
            for i in range(40)
        ]
        _assert_same_metering(InvertedIndex(corpus), _SMALL_CONFIG, queries)

    def test_generated_queries(self):
        corpus = build_corpus(_SMALL_CONFIG, np.random.default_rng(12))
        queries = QueryGenerator(_SMALL_CONFIG, np.random.default_rng(13)).generate(
            600
        )
        _assert_same_metering(InvertedIndex(corpus), _SMALL_CONFIG, queries)

    def test_duplicate_terms_count_twice(self):
        rng = np.random.default_rng(5)
        index = InvertedIndex(_random_corpus(rng, 90, 12, 20))
        queries = [
            Query(0, (3, 3)),
            Query(1, (3, 3, 3)),
            Query(2, (1, 1, 2)),
            Query(3, (0, 0, 0, 0, 5)),
            Query(4, (7,) * 20),
        ]
        _assert_same_metering(index, _SMALL_CONFIG, queries)
        doubled = SearchEngine(index, _SMALL_CONFIG).execute(Query(0, (3, 3)))
        assert doubled.total_postings == 2 * index.document_frequency(3)
        assert doubled.scored_hits == 2 * doubled.matched_documents

    def test_terms_absent_from_the_corpus(self):
        # Only the first ten of 40 terms ever occur: the rest have df 0.
        rng = np.random.default_rng(8)
        corpus = _random_corpus(rng, 100, 10, 15)
        corpus = Corpus(
            doc_term_ids=corpus.doc_term_ids,
            doc_offsets=corpus.doc_offsets,
            vocabulary_size=40,
            term_probabilities=np.full(40, 1.0 / 40),
        )
        index = InvertedIndex(corpus)
        queries = [Query(0, (30,)), Query(1, (30, 31, 39)), Query(2, (2, 35))]
        queries += _random_queries(rng, 40, 100)
        _assert_same_metering(index, _SMALL_CONFIG, queries)
        absent = SearchEngine(index, _SMALL_CONFIG).execute(queries[1], True)
        assert absent.total_postings == 0
        assert absent.results == ()

    def test_no_document_reaches_min_match(self):
        # Every document holds one distinct term: three or more distinct
        # terms never meet in a document, so nothing survives.
        corpus = Corpus(
            doc_term_ids=np.arange(70, dtype=np.int32),
            doc_offsets=np.arange(71, dtype=np.int64),
            vocabulary_size=70,
            term_probabilities=np.full(70, 1.0 / 70),
        )
        index = InvertedIndex(corpus)
        queries = [Query(i, tuple(range(i, i + 3 + i % 9))) for i in range(40)]
        _assert_same_metering(index, _SMALL_CONFIG, queries)
        batch = SearchEngine(index, _SMALL_CONFIG).execute_batch(queries)
        assert not batch.matched_documents.any()
        assert not batch.scored_hits.any()

    def test_ragged_chunks(self, monkeypatch):
        # Tiny chunks: metering chunks end mid-group and bitset packing
        # cuts word runs across chunk boundaries.
        monkeypatch.setattr("repro.search.engine._CHUNK_WORDS", 7)
        monkeypatch.setattr("repro.search.engine._PACK_CHUNK", 13)
        rng = np.random.default_rng(21)
        index = InvertedIndex(_random_corpus(rng, 700, 60, 40))
        _assert_same_metering(index, _SMALL_CONFIG, _random_queries(rng, 60, 120))

    def test_empty_batch(self):
        index = InvertedIndex(_random_corpus(np.random.default_rng(1), 10, 5, 5))
        batch = SearchEngine(index, _SMALL_CONFIG).execute_batch([])
        assert batch.total_units.shape == (0,)
        assert query_feature_matrix([], index).shape == (0, 8)

    @pytest.mark.parametrize("bad", [-1, -7, 50, 10**6])
    def test_out_of_range_terms_raise(self, bad):
        index = InvertedIndex(_random_corpus(np.random.default_rng(2), 40, 50, 10))
        engine = SearchEngine(index, _SMALL_CONFIG)
        queries = [Query(0, (1, 2)), Query(1, (3, bad, 4))]
        with pytest.raises(WorkloadError):
            engine.execute(queries[1])
        with pytest.raises(WorkloadError):
            engine.execute(queries[1], compute_results=True)
        with pytest.raises(WorkloadError):
            engine.execute_batch(queries)
        with pytest.raises(WorkloadError):
            query_features(queries[1], index)
        with pytest.raises(WorkloadError):
            query_feature_matrix(queries, index)
