"""Transient-memory guards for the workload build's corpus and index stages.

The index build, not the simulation, used to set every process's peak
memory (DESIGN §10, "Workload-build memory pass").  Its posting
construction keeps no full-size int64 array: the fused sort key takes
the narrowest unsigned dtype that holds it, run lengths go straight to
int32 and the CSR offsets are searched in the terms' own dtype.  This
guard keeps it so: the build's tracemalloc peak stays within 3x the
corpus token bytes (2.2x now; 4.3x with an int64 key and temporaries).

The corpus draw holds its int32 output plus a few chunk-sized buffers
(about 3.1 float64 chunks now), so neither its uniforms nor its guide
table's temporaries grow with the corpus.
"""

import tracemalloc

import numpy as np

from repro.config import ZIPF_EXPONENT
from repro.experiments.scenarios import TINY_WORKLOAD_SPEC
from repro.rng import RngFactory
from repro.search.corpus import (
    _DRAW_CHUNK,
    _choice_cdf,
    _draw_with_replacement,
    build_corpus,
    zipf_probabilities,
)
from repro.search.index import InvertedIndex

#: Largest index-build peak allowed, in multiples of the token bytes.
MAX_PEAK_OVER_TOKENS = 3.0
#: Largest corpus-draw peak beyond its output, in float64 draw chunks.
MAX_DRAW_CHUNKS = 4.0


def test_index_build_peak_stays_within_three_token_arrays():
    spec = TINY_WORKLOAD_SPEC
    corpus = build_corpus(spec.search_config, RngFactory(spec.seed).get("corpus"))
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        InvertedIndex(corpus)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    ratio = (peak - base) / corpus.doc_term_ids.nbytes
    assert ratio <= MAX_PEAK_OVER_TOKENS, (
        f"index build peaked at {ratio:.2f}x the corpus token bytes"
    )


def test_corpus_draw_peak_is_its_output_plus_a_few_chunks():
    cdf = _choice_cdf(zipf_probabilities(6_000, ZIPF_EXPONENT))
    for size in (8 * _DRAW_CHUNK, 16 * _DRAW_CHUNK + 5):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            tokens = _draw_with_replacement(np.random.default_rng(0), cdf, size)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        chunks = (peak - base - tokens.nbytes) / (_DRAW_CHUNK * 8)
        assert chunks <= MAX_DRAW_CHUNKS, (
            f"corpus draw of {size} tokens held {chunks:.2f} chunks beyond its output"
        )
