"""Hex-exact goldens for the three array-heavy workload-build stages.

``tests/test_workload_goldens.py`` pins the end products of a tiny
build. This file pins the intermediate arrays of the canonical one:
for ``SearchWorkloadConfig()`` under ``RngFactory(2016)`` it hashes the
corpus tokens and offsets (values and dtypes), every posting array of
the inverted index, the state of the corpus generator after the draw,
and the term tuples of 12 000 generated queries. A rewrite of the
corpus draw, the index sort or query sampling that moves one token,
one posting or one query term fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.config import SearchWorkloadConfig
from repro.rng import RngFactory
from repro.search import InvertedIndex, QueryGenerator, build_corpus
from repro.search.workload import _measured_pool

_TINY_SEARCH = SearchWorkloadConfig(
    num_documents=3_000,
    vocabulary_size=1_500,
    mean_doc_length=120,
    hard_term_pool=150,
    easy_skip_top=15,
)

#: name -> (config, seed, expected digests).
STAGES = {
    "canonical": (
        SearchWorkloadConfig(),
        2016,
        {
            "tokens": "877abab121aab287f655ec2f1f8fbde621b2a00d52f0be5f5e09bce1851b1f83",
            "offsets": "cfdc315a4db2b890660192aad0c8837aaebcaf529b9353ef01af89b99134baf4",
            "corpus_rng": "1a1d4c332459b1660a0b837322ce943f5f85a15de60c074b07c4f5db0e8464f9",
            "posting_terms": "09cc2879c94a60a2703aee19fb67fe672546e46e6556c020d63b6612e9541745",
            "posting_docs": "16225fec035149b7c60c1cb650d259284f5195d6fac07197e31c5586a3df8e4d",
            "posting_tfs": "e5f6e1bfc106b8c88034ec3708457a85c07cccfe27cdefe03077e93d192f067b",
            "term_offsets": "1119ca0360e1c1647e1b87a39b8969fecec570b449e4e1710f9c29f82231ce5a",
            "document_frequencies": "0c9463b5b2d59b156316dad6a871c3b6024d95c631cd79c393d33ddf0cb92aa0",
            "doc_lengths": "001f4cc9961c462aa476c542c9d714711349fac005c60ac3ad1ccab197ffae4f",
            "queries": "af77d99b550cb0ff799dd776003b59fb4ede0dec695dd883de12cede295d6efa",
        },
    ),
    "tiny": (
        _TINY_SEARCH,
        11,
        {
            "tokens": "d4e3f9ae4024673f5d4f425ebde67c9a698a5ae1cf99eed6ff7452bca3ca4339",
            "offsets": "720778856e502237b099acb0452144fefe5978b17291ab175714e155d224bb0c",
            "corpus_rng": "2029e2bac3eafba288198bea26842743b062f56a35859e0079c90667480619ca",
            "posting_terms": "1cb9ded188b04c58771ec3f3ace09283d38dece895bfec5135dc02f37efd3da7",
            "posting_docs": "d5db9f393bdc45fdb80e4ad52c3c4855f881651a56ffaec0322ccfd247fb1e4a",
            "posting_tfs": "f018a2bde8eb844d6d4177148c5e69b0bf27ad809eee1888ee93ae44e1015c31",
            "term_offsets": "f0fc2b4d1289770282c59a7a66ab91168eb5ff867d82fd927667353a9a39571c",
            "document_frequencies": "a3448368c4ae6870fb2a79957c8d4ce51bfbda37bbda670a797a461432e758f1",
            "doc_lengths": "1b8d281c0e1b972343f8cef8dc8c7bd9bd1df952cc6992232151c2edfbd86a1c",
            "queries": "e8d9a0bac85ad0cd8bcc9e327d9defef9483d591d8c775688d8160388d8fdc1e",
        },
    ),
}


def _array_sha(values: np.ndarray) -> str:
    digest = hashlib.sha256(str(values.dtype).encode())
    digest.update(np.ascontiguousarray(values).tobytes())
    return digest.hexdigest()


def stage_digests(config: SearchWorkloadConfig, seed: int) -> dict[str, str]:
    """Digests of corpus, index and query-log arrays for one build."""
    rngs = RngFactory(seed)
    corpus_rng = rngs.get("corpus")
    corpus = build_corpus(config, corpus_rng)
    index = InvertedIndex(corpus)
    queries = QueryGenerator(config, rngs.get("queries")).generate(12_000)
    terms = [q.term_ids for q in queries]
    return {
        "tokens": _array_sha(corpus.doc_term_ids),
        "offsets": _array_sha(corpus.doc_offsets),
        "corpus_rng": hashlib.sha256(
            repr(corpus_rng.bit_generator.state).encode()
        ).hexdigest(),
        "posting_terms": _array_sha(index._posting_terms),
        "posting_docs": _array_sha(index._posting_docs),
        "posting_tfs": _array_sha(index._posting_tfs),
        "term_offsets": _array_sha(index._term_offsets),
        "document_frequencies": _array_sha(index.document_frequencies),
        "doc_lengths": _array_sha(index.doc_lengths),
        "queries": hashlib.sha256(repr(terms).encode()).hexdigest(),
    }


@pytest.mark.parametrize("name", sorted(STAGES))
def test_stage_golden_digests(name):
    config, seed, expected = STAGES[name]
    assert stage_digests(config, seed) == expected


#: Digests of the canonical pool's ``units`` and ``features`` arrays.
CANONICAL_POOL = {
    "units": "65ddecc1760201cac1a10f7d4dcf40022c681597fc4a3f62ac3ea6382fd21a89",
    "features": "198a5f4a871ea2629470fbb61814ecc8344db87248aa1b7616d4376ea7bccb3c",
}


def test_canonical_pool_golden_digests():
    units, features = _measured_pool(
        2016, SearchWorkloadConfig(), 12_000, False, RngFactory(2016)
    )
    assert units.shape == (12_000,)
    assert features.shape == (12_000, 8)
    got = {"units": _array_sha(units), "features": _array_sha(features)}
    assert got == CANONICAL_POOL
