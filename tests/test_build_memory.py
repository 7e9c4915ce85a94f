"""Transient-memory guard for the workload build's index stage.

The index build, not the simulation, used to set every process's peak
memory (DESIGN §10, "Workload-build memory pass").  Its posting
construction keeps no full-size int64 array: the fused sort key takes
the narrowest unsigned dtype that holds it, run lengths go straight to
int32 and the CSR offsets are searched in the terms' own dtype.  This
guard keeps it so: the build's tracemalloc peak stays within 3x the
corpus token bytes (2.2x now; 4.3x with an int64 key and temporaries).
"""

import tracemalloc

from repro.experiments.scenarios import TINY_WORKLOAD_SPEC
from repro.rng import RngFactory
from repro.search.corpus import build_corpus
from repro.search.index import InvertedIndex

#: Largest index-build peak allowed, in multiples of the token bytes.
MAX_PEAK_OVER_TOKENS = 3.0


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
