"""Tests for query generation, execution and scoring."""

import numpy as np
import pytest

from repro.config import HARD_KEYWORDS, TOP_K, SearchWorkloadConfig
from repro.errors import WorkloadError
from repro.search.corpus import build_corpus
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex
from repro.search.query import Query, QueryGenerator
from repro.search.scoring import bm25_scores, top_k_documents


@pytest.fixture(scope="module")
def setup():
    cfg = SearchWorkloadConfig(
        num_documents=600,
        vocabulary_size=400,
        mean_doc_length=80,
        hard_term_pool=50,
        easy_skip_top=10,
    )
    corpus = build_corpus(cfg, np.random.default_rng(9))
    index = InvertedIndex(corpus)
    engine = SearchEngine(index)
    return cfg, index, engine


class TestQueryModel:
    def test_rejects_empty_query(self):
        with pytest.raises(WorkloadError):
            Query(0, ())

    def test_num_keywords(self):
        assert Query(0, (1, 2, 3)).num_keywords == 3


class TestQueryGenerator:
    def test_generates_requested_count(self, setup):
        cfg, _, _ = setup
        gen = QueryGenerator(cfg, np.random.default_rng(1))
        queries = gen.generate(50)
        assert len(queries) == 50
        assert len({q.qid for q in queries}) == 50  # unique ids

    def test_keyword_counts_within_ranges(self, setup):
        cfg, _, _ = setup
        gen = QueryGenerator(cfg, np.random.default_rng(1))
        lo = cfg.easy_keywords[0]
        hi = max(cfg.easy_keywords[1], HARD_KEYWORDS[1])
        for q in gen.generate(200):
            assert lo <= q.num_keywords <= hi

    def test_terms_are_unique_within_query(self, setup):
        cfg, _, _ = setup
        gen = QueryGenerator(cfg, np.random.default_rng(2))
        for q in gen.generate(100):
            assert len(set(q.term_ids)) == len(q.term_ids)

    def test_hard_fraction_zero_gives_only_easy(self, setup):
        cfg, _, _ = setup
        cfg0 = SearchWorkloadConfig(
            num_documents=cfg.num_documents,
            vocabulary_size=cfg.vocabulary_size,
            hard_query_fraction=0.0,
        )
        gen = QueryGenerator(cfg0, np.random.default_rng(3))
        for q in gen.generate(100):
            assert q.num_keywords <= cfg0.easy_keywords[1]

    def test_rejects_zero_count(self, setup):
        cfg, _, _ = setup
        gen = QueryGenerator(cfg, np.random.default_rng(1))
        with pytest.raises(WorkloadError):
            gen.generate(0)


class TestExecution:
    def test_work_units_are_positive_and_consistent(self, setup):
        cfg, index, engine = setup
        gen = QueryGenerator(cfg, np.random.default_rng(4))
        for q in gen.generate(30):
            ex = engine.execute(q)
            assert ex.total_units > 0
            assert ex.total_units == pytest.approx(
                ex.serial_units + ex.traversal_units + ex.scoring_units
            )
            assert ex.total_postings == index.total_postings(list(q.term_ids))

    def test_single_keyword_scores_whole_posting_list(self, setup):
        cfg, index, engine = setup
        term = 5
        ex = engine.execute(Query(0, (term,)))
        df = index.document_frequencies[term]
        assert ex.matched_documents == df
        assert ex.scored_hits == df

    def test_multi_keyword_matching_requires_majority(self, setup):
        cfg, index, engine = setup
        q = Query(0, (0, 1, 2, 3))  # 4 keywords -> need >= 2 matches
        ex = engine.execute(q)
        assert ex.matched_documents <= ex.total_postings
        # every matched doc contributes at least min_match hits
        assert ex.scored_hits >= 2 * ex.matched_documents

    def test_execution_is_deterministic(self, setup):
        _, _, engine = setup
        q = Query(0, (0, 7, 20))
        a = engine.execute(q)
        b = engine.execute(q)
        assert a.total_units == b.total_units
        assert a.matched_documents == b.matched_documents

    def test_results_computed_only_on_request(self, setup):
        _, _, engine = setup
        q = Query(0, (0, 1))
        assert engine.execute(q).results is None
        res = engine.execute(q, compute_results=True).results
        assert res is not None

    def test_counting_paths_agree(self, setup):
        """Materialising the ranked results does not change the metered
        work of any query."""
        cfg, _, engine = setup
        generated = QueryGenerator(cfg, np.random.default_rng(6)).generate(300)
        singles = [Query(t, (t,)) for t in range(cfg.vocabulary_size)]
        for q in generated + singles:
            fast = engine.execute(q)
            full = engine.execute(q, compute_results=True)
            assert (
                fast.total_postings,
                fast.matched_documents,
                fast.scored_hits,
                fast.total_units,
            ) == (
                full.total_postings,
                full.matched_documents,
                full.scored_hits,
                full.total_units,
            )

    def test_results_ranked_descending(self, setup):
        _, _, engine = setup
        q = Query(0, (0, 1))
        results = engine.execute(q, compute_results=True).results
        scores = [s for _, s in results]
        assert all(b <= a for a, b in zip(scores, scores[1:]))
        assert len(results) <= TOP_K

    def test_more_keywords_cost_more(self, setup):
        """Queries over the same popular terms cost more with more
        keywords — Section 2.3's ten-vs-two keyword observation."""
        _, _, engine = setup
        two = engine.execute(Query(0, (0, 1))).total_units
        eight = engine.execute(Query(1, tuple(range(8)))).total_units
        assert eight > two * 2


class TestScoring:
    def test_bm25_increases_with_tf(self):
        tfs = np.array([1.0, 5.0])
        idfs = np.array([2.0, 2.0])
        lengths = np.array([100.0, 100.0])
        scores = bm25_scores(tfs, idfs, lengths, 100.0)
        assert scores[1] > scores[0]

    def test_bm25_saturates_in_tf(self):
        tfs = np.array([1.0, 10.0, 100.0])
        idfs = np.ones(3) * 2.0
        lengths = np.ones(3) * 100.0
        s = bm25_scores(tfs, idfs, lengths, 100.0)
        assert (s[1] - s[0]) > (s[2] - s[1])  # diminishing returns

    def test_bm25_penalises_long_documents(self):
        tfs = np.array([2.0, 2.0])
        idfs = np.array([2.0, 2.0])
        lengths = np.array([50.0, 500.0])
        scores = bm25_scores(tfs, idfs, lengths, 100.0)
        assert scores[0] > scores[1]

    def test_bm25_rejects_misaligned(self):
        with pytest.raises(WorkloadError):
            bm25_scores(np.ones(2), np.ones(3), np.ones(2), 100.0)

    def test_top_k_sums_scores_per_document(self):
        docs = np.array([1, 2, 1])
        scores = np.array([1.0, 5.0, 2.0])
        top = top_k_documents(docs, scores, 2)
        assert top[0] == (2, 5.0)
        assert top[1] == (1, 3.0)

    def test_top_k_handles_fewer_docs_than_k(self):
        top = top_k_documents(np.array([1]), np.array([1.0]), 10)
        assert len(top) == 1

    def test_top_k_empty_input(self):
        assert top_k_documents(np.array([]), np.array([]), 5) == []

    def test_top_k_rejects_bad_k(self):
        with pytest.raises(WorkloadError):
            top_k_documents(np.array([1]), np.array([1.0]), 0)

