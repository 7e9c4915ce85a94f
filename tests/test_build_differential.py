"""Differential tests of the workload-build stages against numpy itself.

The corpus draw and query sampling re-implement ``Generator.choice``
(with and without replacement) so that a CDF is built once and the
draw runs in chunks through a guide table, and the inverted index
replaces a two-array ``lexsort`` with a fused-key sort. All three
promise identical output.
These tests hold them to it against the originals: ``Generator.choice``
itself, and the ``lexsort`` index build kept verbatim below. If numpy
ever changes how ``choice`` consumes its stream, they fail loudly here
rather than as an unexplained golden mismatch.

Pool metering gets the same treatment: the bit-sliced counter behind
``SearchEngine.execute_batch`` and ``execute`` and the grouped
``query_feature_matrix`` are compared with the per-query ``bincount``
counter and feature function they replaced, both kept verbatim below.
So are the speedup profiles: ``ParallelExecutionModel.speedups`` is
compared with the per-query scalar formula it replaced, and
``SpeedupBook.from_samples`` and the workload's group weights with the
per-request loops they replaced.
"""
import math

import numpy as np
import pytest

from repro.config import (
    DEFAULT_GROUP_BOUNDS_MS,
    SCORE_COST_PER_HIT,
    SERIAL_WORK_UNITS,
    TOP_K,
    SearchWorkloadConfig,
    validate_group_bounds,
)
from repro.core.speedup import SpeedupBook, SpeedupProfile, demand_group
from repro.errors import CalibrationError, ConfigError, WorkloadError
from repro.prediction.features import query_feature_matrix, query_features
from repro.search.corpus import (
    _GUIDE_BUCKETS,
    Corpus,
    _choice_cdf,
    _choice_without_replacement,
    _draw_with_replacement,
    build_corpus,
    zipf_probabilities,
)
from repro.search.engine import SearchEngine
from repro.search.index import InvertedIndex, _fused_keys
from repro.search.parallel import fit_parallel_model
from repro.search.query import Query, QueryGenerator
from repro.search.scoring import bm25_scores, top_k_documents
from repro.search.workload import _group_weights


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


def _crowded_probs() -> np.ndarray:
    """CDF points at exact multiples of 2**-16: eight of weight 2**-16,
    1 024 of 2**-26 crowding one guide bucket, then four of 2**-14.

    Every weight is a multiple of 2**-40, so the CDF's sums are exact
    and it ends at exactly 1.
    """
    head = np.concatenate(
        [np.full(8, 2.0**-16), np.full(1_024, 2.0**-26), np.full(4, 2.0**-14)]
    )
    tail = np.round(zipf_probabilities(500, 1.1) * (1.0 - head.sum()) * 2.0**40)
    tail /= 2.0**40
    tail[0] += (1.0 - head.sum()) - tail.sum()
    return np.concatenate([head, tail])


class _FixedUniforms:
    """A stand-in generator whose ``random(out=)`` yields given values."""

    def __init__(self, values: np.ndarray) -> None:
        self._values = values
        self._at = 0

    def random(self, out: np.ndarray) -> np.ndarray:
        out[:] = self._values[self._at : self._at + len(out)]
        self._at += len(out)
        return out


class TestGuideTable:
    def test_crowded_cdf_matches_generator_choice(self, monkeypatch):
        monkeypatch.setattr("repro.search.corpus._DRAW_CHUNK", 4096)
        probs = _crowded_probs()
        cdf = _choice_cdf(probs)
        multiples = cdf[[0, 7, 1_031, 1_035]] * _GUIDE_BUCKETS
        assert np.array_equal(multiples, [1.0, 8.0, 9.0, 25.0])
        for seed in range(5):
            ours = np.random.default_rng(seed)
            theirs = np.random.default_rng(seed)
            got = _draw_with_replacement(ours, cdf, 50_000)
            want = theirs.choice(len(probs), size=50_000, p=probs)
            np.testing.assert_array_equal(got, want)
            assert _state(ours) == _state(theirs)

    @pytest.mark.parametrize("crowded", [True, False])
    def test_bucket_edges_and_cdf_points_match_searchsorted(self, crowded):
        # Every bucket's lower edge, the float below it, and every CDF
        # point with its neighbours: the uniforms a guide table most
        # easily gets wrong.
        probs = _crowded_probs() if crowded else zipf_probabilities(6_000, 1.1)
        cdf = _choice_cdf(probs)
        edges = np.arange(_GUIDE_BUCKETS) / _GUIDE_BUCKETS
        points = cdf[cdf < 1.0]
        uniforms = np.concatenate(
            [
                edges,
                np.nextafter(edges[1:], 0.0),
                points,
                np.nextafter(points, 0.0),
                np.nextafter(points, 1.0),
            ]
        )
        got = _draw_with_replacement(_FixedUniforms(uniforms), cdf, len(uniforms))
        np.testing.assert_array_equal(got, cdf.searchsorted(uniforms, side="right"))


def _scalar_profile(model, total_ms, serial_ms, max_degree):
    """The per-query speedup loop ``profiles`` replaced, verbatim."""

    def pool_terms(total_ms, serial_ms, degree, task_grain_ms, task_overhead_ms):
        serial_ms = min(serial_ms, total_ms)
        parallel_ms = total_ms - serial_ms
        if degree <= 1 or parallel_ms <= 0:
            return total_ms, 0.0
        n_tasks = max(1, math.ceil(parallel_ms / task_grain_ms))
        rounds = math.ceil(n_tasks / degree)
        return (
            serial_ms + rounds * task_overhead_ms,
            (rounds / n_tasks) * parallel_ms,
        )

    def parallel_time(total_ms, serial_ms, degree):
        fixed, scaled = pool_terms(
            total_ms, serial_ms, degree, model.task_grain_ms, model.task_overhead_ms
        )
        return fixed + scaled * (1.0 + model.waste_fraction(total_ms) * (degree - 1))

    speedups = [1.0]
    for d in range(2, max_degree + 1):
        s = total_ms / parallel_time(total_ms, serial_ms, d)
        speedups.append(max(s, speedups[-1]))
    return speedups


class TestProfiles:
    SERIAL_MS, GRAIN_MS = 1.2, 0.9

    def demands(self) -> np.ndarray:
        # Below, at and just above the serial phase; every task-grain
        # boundary ``serial + k * grain`` and its neighbouring floats;
        # the Figure 2 loads; and lognormal demands like the pool's.
        grains = self.SERIAL_MS + self.GRAIN_MS * np.arange(1, 60)
        return np.concatenate(
            [
                [0.01, 0.6, self.SERIAL_MS, np.nextafter(self.SERIAL_MS, 2.0)],
                grains,
                np.nextafter(grains, 0.0),
                np.nextafter(grains, np.inf),
                [8.0, 50.0, 168.0],
                np.random.default_rng(3).lognormal(2.5, 1.2, 2_000),
            ]
        )

    @pytest.mark.parametrize("max_degree", [1, 2, 6, 9])
    def test_matches_scalar_formula(self, max_degree):
        model = fit_parallel_model(self.SERIAL_MS, self.GRAIN_MS, 0.05)
        demands = self.demands()
        got = model.speedups(demands, self.SERIAL_MS, max_degree)
        assert got.shape == (len(demands), max_degree)
        for demand, row in zip(demands.tolist(), got.tolist()):
            want = _scalar_profile(model, demand, self.SERIAL_MS, max_degree)
            assert row == want, demand
        single = model.profile(168.0, self.SERIAL_MS, max_degree)
        assert list(single.speedups) == got[-2_001].tolist()

    def test_non_positive_demand_is_rejected(self):
        model = fit_parallel_model(self.SERIAL_MS, self.GRAIN_MS, 0.05)
        with pytest.raises(CalibrationError):
            model.speedups(np.array([3.0, 0.0]), self.SERIAL_MS, 6)


def _scalar_book(
    demands_ms, per_request_profiles, bounds_ms=DEFAULT_GROUP_BOUNDS_MS, max_degree=None
):
    """The per-request loop of ``SpeedupBook.from_samples`` that one
    ``np.add.at`` replaced, verbatim."""
    bounds = validate_group_bounds(bounds_ms)
    demands = list(demands_ms)
    profiles = list(per_request_profiles)
    if len(demands) != len(profiles):
        raise ConfigError("demands and profiles must align")
    if not demands:
        raise ConfigError("cannot build a SpeedupBook from zero samples")
    degree = max_degree or profiles[0].max_degree
    sums = np.zeros((len(bounds) + 1, degree))
    counts = np.zeros(len(bounds) + 1, dtype=np.int64)
    for demand, profile in zip(demands, profiles):
        g = demand_group(demand, bounds)
        sums[g] += [profile.speedup(d) for d in range(1, degree + 1)]
        counts[g] += 1
    group_profiles: list[SpeedupProfile] = []
    for g in range(len(bounds) + 1):
        if counts[g] == 0:
            # An empty group inherits its shorter neighbour's profile
            # (conservative: shorter groups parallelize worse).
            inherited = (
                group_profiles[-1]
                if group_profiles
                else SpeedupProfile([1.0] * degree)
            )
            group_profiles.append(inherited)
            continue
        mean = sums[g] / counts[g]
        mean[0] = 1.0
        mean = np.maximum.accumulate(mean)  # enforce monotonicity
        group_profiles.append(SpeedupProfile(mean.tolist()))
    return SpeedupBook(group_profiles, bounds)


def _scalar_group_weights(book, demands):
    """The per-demand group count ``_group_weights`` replaced, verbatim."""
    counts = [0] * book.num_groups
    for demand in demands:
        counts[book.group_of(float(demand))] += 1
    total = len(demands)
    return tuple(c / total for c in counts)


class TestSpeedupBook:
    """``from_samples`` over a speedup matrix against the per-request loop."""

    def samples(self, seed: int, n: int, degree: int = 6):
        rng = np.random.default_rng(seed)
        demands = rng.lognormal(3.0, 1.2, n)
        speedups = np.ones((n, degree))
        speedups[:, 1:] += np.cumsum(rng.random((n, degree - 1)) * 0.8, axis=1)
        return demands, speedups

    def check(self, demands, speedups, *args):
        book = SpeedupBook.from_samples(demands, speedups, *args)
        profiles = [SpeedupProfile(row) for row in speedups.tolist()]
        ref = _scalar_book(demands.tolist(), profiles, *args)
        assert book.bounds_ms == ref.bounds_ms
        assert book.profiles == ref.profiles
        assert _group_weights(book, demands) == _scalar_group_weights(ref, demands)
        return book

    @pytest.mark.parametrize("seed", range(5))
    def test_random_demands(self, seed):
        self.check(*self.samples(seed, 3_000))

    def test_model_speedups_of_a_pool(self):
        model = fit_parallel_model(1.2, 0.9, 0.05)
        demands = np.random.default_rng(8).lognormal(2.5, 1.2, 5_000)
        self.check(demands, model.speedups(demands, 1.2, 6))

    def test_demands_on_a_bound_join_the_higher_group(self):
        demands, speedups = self.samples(1, 400)
        demands[::3] = 30.0
        demands[1::3] = 80.0
        demands[2::7] = np.nextafter(80.0, 0.0)
        book = self.check(demands, speedups)
        assert book.group_of(30.0) == 1 and book.group_of(80.0) == 2

    def test_empty_groups_inherit_their_shorter_neighbour(self):
        demands, speedups = self.samples(2, 300)
        demands[:150] = 5.0
        demands[150:] = 200.0
        book = self.check(demands, speedups)
        assert book.profiles[1] == book.profiles[0] != book.profiles[2]
        # No short sample: the short group starts from no speedup.
        only_long = self.check(demands[150:], speedups[150:])
        assert only_long.profiles[0] == SpeedupProfile([1.0] * 6)
        assert only_long.profiles[1] == only_long.profiles[0]

    @pytest.mark.parametrize("bounds", [(), (10.0,), (5.0, 10.0, 20.0, 40.0, 160.0)])
    def test_custom_bounds(self, bounds):
        self.check(*self.samples(3, 2_000), bounds)

    @pytest.mark.parametrize("max_degree", [9, 3, 6])
    def test_max_degree_saturates_or_truncates(self, max_degree):
        demands, speedups = self.samples(4, 1_000)
        book = self.check(demands, speedups, DEFAULT_GROUP_BOUNDS_MS, max_degree)
        assert book.max_degree == max_degree


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

    @pytest.mark.parametrize(
        "vocabulary, num_docs, key_dtype",
        [(6_000, 24_000, np.uint32), (70_000, 70_000, np.uint64)],
        ids=["canonical-size-uint32", "wide-uint64"],
    )
    def test_key_width(self, vocabulary, num_docs, key_dtype):
        # Mostly empty documents keep the corpus small at any size; the
        # top terms push the keys of the 70 000 x 70 000 case past 2**32.
        rng = np.random.default_rng(3)
        lengths = np.zeros(num_docs, dtype=np.int64)
        lengths[rng.choice(num_docs, size=300, replace=False)] = rng.integers(
            1, 40, size=300
        )
        offsets = np.zeros(num_docs + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        tokens = rng.integers(0, vocabulary, size=int(offsets[-1]))
        tokens[:50] = vocabulary - 1
        corpus = Corpus(
            doc_term_ids=tokens.astype(np.int32),
            doc_offsets=offsets,
            vocabulary_size=vocabulary,
            term_probabilities=np.full(vocabulary, 1.0 / vocabulary),
        )
        key = _fused_keys(
            corpus.doc_term_ids, np.diff(offsets), num_docs, vocabulary
        )
        assert key.dtype == key_dtype
        assert (int(key.max()) >= 2**32) == (key_dtype == np.uint64)
        _assert_same_postings(corpus)


def _reference_execute(
    index: InvertedIndex, query: Query, compute_results: bool = False
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
            results = tuple(top_k_documents(docs, scores, TOP_K))

    traversal_units = float(total_postings)
    scoring_units = float(scored_hits) * SCORE_COST_PER_HIT
    serial_units = float(SERIAL_WORK_UNITS)
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


def _assert_same_metering(index: InvertedIndex, queries: list[Query]) -> None:
    """Bulk, single and reference metering and features agree exactly."""
    engine = SearchEngine(index)
    want = [_reference_execute(index, q, compute_results=True) for q in queries]
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
        _assert_same_metering(index, queries)

    @pytest.mark.parametrize("k", range(1, 21))
    def test_every_keyword_count(self, k):
        rng = np.random.default_rng([k, 4])
        corpus = _random_corpus(rng, num_docs=150, vocabulary=25, max_len=30)
        queries = [
            Query(i, tuple(int(t) for t in rng.integers(0, 25, size=k)))
            for i in range(40)
        ]
        _assert_same_metering(InvertedIndex(corpus), queries)

    def test_generated_queries(self):
        corpus = build_corpus(_SMALL_CONFIG, np.random.default_rng(12))
        queries = QueryGenerator(_SMALL_CONFIG, np.random.default_rng(13)).generate(
            600
        )
        _assert_same_metering(InvertedIndex(corpus), queries)

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
        _assert_same_metering(index, queries)
        doubled = SearchEngine(index).execute(Query(0, (3, 3)))
        assert doubled.total_postings == 2 * index.document_frequencies[3]
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
        _assert_same_metering(index, queries)
        absent = SearchEngine(index).execute(queries[1], True)
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
        _assert_same_metering(index, queries)
        batch = SearchEngine(index).execute_batch(queries)
        assert not batch.matched_documents.any()
        assert not batch.scored_hits.any()

    def test_ragged_chunks(self, monkeypatch):
        # Tiny chunks: metering chunks end mid-group and bitset packing
        # cuts word runs across chunk boundaries.
        monkeypatch.setattr("repro.search.engine._CHUNK_WORDS", 7)
        monkeypatch.setattr("repro.search.engine._PACK_CHUNK", 13)
        rng = np.random.default_rng(21)
        index = InvertedIndex(_random_corpus(rng, 700, 60, 40))
        _assert_same_metering(index, _random_queries(rng, 60, 120))

    def test_empty_batch(self):
        index = InvertedIndex(_random_corpus(np.random.default_rng(1), 10, 5, 5))
        batch = SearchEngine(index).execute_batch([])
        assert batch.total_units.shape == (0,)
        assert query_feature_matrix([], index).shape == (0, 8)

    @pytest.mark.parametrize("bad", [-1, -7, 50, 10**6])
    def test_out_of_range_terms_raise(self, bad):
        index = InvertedIndex(_random_corpus(np.random.default_rng(2), 40, 50, 10))
        engine = SearchEngine(index)
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
