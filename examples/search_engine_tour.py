#!/usr/bin/env python3
"""Tour of the web-search substrate: from corpus to tail latency.

Walks through each layer the reproduction builds from scratch —
corpus, inverted index, real query execution with BM25 top-k, the
measured cost model, the task-pool speedup profiles, and the trained
execution-time predictor — ending with the single mispredicted query
that motivates dynamic correction.

Run:  python examples/search_engine_tour.py
"""

import numpy as np

from repro.config import LONG_QUERY_MS, SearchWorkloadConfig
from repro.prediction.features import QUERY_FEATURE_NAMES, query_features
from repro.rng import RngFactory
from repro.search import (
    InvertedIndex,
    QueryGenerator,
    SearchEngine,
    build_corpus,
    build_search_workload,
)


def main() -> None:
    config = SearchWorkloadConfig(num_documents=8_000, vocabulary_size=3_000)
    rngs = RngFactory(2024)

    print("1. Corpus: synthetic Zipf web documents")
    corpus = build_corpus(config, rngs.get("corpus"))
    print(
        f"   {corpus.num_documents} documents, {corpus.total_tokens} tokens, "
        f"vocabulary {corpus.vocabulary_size}"
    )

    print("\n2. Inverted index")
    index = InvertedIndex(corpus)
    dfs = index.document_frequencies
    print(
        f"   posting entries: {int(dfs.sum())}; most popular term appears in "
        f"{int(dfs.max())} documents, median term in {int(np.median(dfs))}"
    )

    print("\n3. Real query execution (matching + BM25 top-k)")
    engine = SearchEngine(index)
    generator = QueryGenerator(config, rngs.get("queries"))
    easy, hard = None, None
    for query in generator.generate(200):
        execution = engine.execute(query, compute_results=True)
        if query.num_keywords <= 2 and easy is None:
            easy = (query, execution)
        if query.num_keywords >= 6 and hard is None:
            hard = (query, execution)
        if easy and hard:
            break
    assert easy is not None and hard is not None
    for label, (query, execution) in (("easy", easy), ("hard", hard)):
        top = execution.results[0] if execution.results else None
        print(
            f"   {label}: {query.num_keywords} keywords, "
            f"{execution.total_postings} postings traversed, "
            f"{execution.matched_documents} docs matched, "
            f"{execution.total_units:.0f} work units"
            + (f", best doc {top[0]} (score {top[1]:.2f})" if top else "")
        )
    ratio = hard[1].total_units / easy[1].total_units
    print(f"   hard/easy cost ratio: {ratio:.0f}x — the latency-variability source")

    print("\n4. Pre-execution features feed the predictor")
    feats = query_features(hard[0], index)
    for name, value in zip(QUERY_FEATURE_NAMES, feats):
        print(f"   {name:22s} = {value:.2f}")

    print("\n5. Full calibrated workload (costs -> ms, profiles, predictor)")
    workload = build_search_workload(seed=2024, pool_size=6_000)
    stats = workload.statistics
    print(
        f"   mean {stats.mean_ms:.2f} ms | median {stats.median_ms:.2f} ms | "
        f"p99 {stats.p99_ms:.0f} ms | {100 * stats.long_fraction:.1f}% long"
    )
    for g, name in enumerate(("short", "mid", "long")):
        profile = workload.speedup_book.profile_of_group(g)
        print(f"   {name:5s} group speedup at 6 threads: {profile.speedup(6):.2f}x")
    report = workload.predictor_report
    print(
        f"   predictor: L1 {report.l1_error_ms:.1f} ms, precision "
        f"{report.precision:.2f}, recall {report.recall:.2f}"
    )

    print("\n6. The misprediction that motivates dynamic correction")
    requests = workload.make_requests(5_000, rngs.get("trace"))
    worst = max(
        (r for r in requests if r.predicted_ms <= LONG_QUERY_MS),
        key=lambda r: r.demand_ms,
    )
    print(
        f"   request {worst.rid}: predicted {worst.predicted_ms:.0f} ms -> "
        f"scheduled as short, actually {worst.demand_ms:.0f} ms."
    )
    print(
        "   Under Pred it runs sequentially and lands squarely in the P99.9;"
        "\n   under TPC the correction timer fires at E and ramps it to the"
        "\n   maximum degree using idle workers."
    )


if __name__ == "__main__":
    main()
