"""Synthetic document corpus with a Zipf vocabulary.

Term frequencies in real web corpora follow a Zipf law; document
lengths are roughly lognormal.  Both facts matter here because they
drive posting-list lengths, which in turn drive both query cost and
the features the execution-time predictor can see.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..config import SearchWorkloadConfig
from ..errors import WorkloadError

__all__ = ["Corpus", "build_corpus", "zipf_probabilities"]

#: Uniforms drawn per step of the corpus draw (8 MB of float64).
_DRAW_CHUNK = 1 << 20


def zipf_probabilities(vocabulary_size: int, exponent: float) -> np.ndarray:
    """Normalised Zipf probabilities over ranks ``1..V``."""
    if vocabulary_size < 1:
        raise WorkloadError("vocabulary_size must be >= 1")
    if exponent <= 0:
        raise WorkloadError("zipf exponent must be > 0")
    ranks = np.arange(1, vocabulary_size + 1, dtype=np.float64)
    weights = ranks ** (-exponent)
    return weights / weights.sum()


# ``Generator.choice``, re-implemented once for the corpus draw (with
# replacement) and query sampling (without): same stream, same output,
# less transient memory and no per-call validation.


def _choice_cdf(probs: np.ndarray) -> np.ndarray:
    """The CDF ``Generator.choice`` searches for a probability vector.

    Same float operations as numpy's own (``cumsum``, then divide by
    the last entry in place), so searching it reproduces ``choice``'s
    draws exactly.
    """
    cdf = np.cumsum(probs, dtype=np.float64)
    cdf /= cdf[-1]
    return cdf


def _draw_with_replacement(
    rng: np.random.Generator, cdf: np.ndarray, size: int
) -> np.ndarray:
    """``rng.choice(len(cdf), size, p=...)`` as int32, drawn in chunks.

    ``choice`` materialises all ``size`` uniforms as float64 and their
    indices as int64. Drawing the uniforms ``_DRAW_CHUNK`` at a time
    consumes the same stream, so the tokens and the generator state
    afterwards are identical while the transient arrays stay
    chunk-sized.
    """
    chunk = _DRAW_CHUNK
    out = np.empty(size, dtype=np.int32)
    uniforms = np.empty(min(chunk, size), dtype=np.float64)
    for start in range(0, size, chunk):
        stop = min(start + chunk, size)
        draw = uniforms[: stop - start]
        rng.random(out=draw)
        out[start:stop] = cdf.searchsorted(draw, side="right")
    return out


def _choice_without_replacement(
    rng: np.random.Generator, probs: np.ndarray, cdf: np.ndarray, k: int
) -> np.ndarray:
    """``rng.choice(len(probs), k, replace=False, p=probs)``, bit for bit.

    Runs numpy's own rejection loop: draw the missing count of
    uniforms, search the CDF, keep the new distinct terms in order of
    first occurrence, and on the next round zero the terms found so far
    and rebuild the CDF. ``cdf`` must be ``_choice_cdf(probs)``; it
    serves the first round, which is usually the only one, so the
    per-call validation and CDF build over every term are skipped. The
    loop ends because every round finds at least one new term; when the
    non-zero terms run out first it raises ``WorkloadError``, where
    ``choice`` raises ``ValueError`` before drawing.
    """
    found = np.empty(k, dtype=np.int64)
    n_found = 0
    while n_found < k:
        uniforms = rng.random(k - n_found)
        if n_found:
            remaining = probs.copy()
            remaining[found[:n_found]] = 0
            if not remaining.any():
                raise WorkloadError(
                    f"fewer than {k} terms have non-zero probability"
                )
            cdf = _choice_cdf(remaining)
        new = cdf.searchsorted(uniforms, side="right")
        _, first = np.unique(new, return_index=True)
        first.sort()
        new = new.take(first)
        found[n_found : n_found + new.size] = new
        n_found += new.size
    return found


@dataclass(frozen=True)
class Corpus:
    """A tokenised synthetic corpus.

    Attributes
    ----------
    doc_term_ids / doc_offsets:
        CSR layout: document ``i`` owns tokens
        ``doc_term_ids[doc_offsets[i]:doc_offsets[i + 1]]`` (term ids,
        duplicates = term frequency).
    term_probabilities:
        The Zipf distribution terms were drawn from (rank order).
    """

    doc_term_ids: np.ndarray
    doc_offsets: np.ndarray
    vocabulary_size: int
    term_probabilities: np.ndarray

    @property
    def num_documents(self) -> int:
        """Number of documents in the corpus."""
        return len(self.doc_offsets) - 1

    @property
    def total_tokens(self) -> int:
        """Total token count across all documents."""
        return int(self.doc_offsets[-1])

    def document_length(self, doc_id: int) -> int:
        """Token count of one document."""
        return int(self.doc_offsets[doc_id + 1] - self.doc_offsets[doc_id])

    def document_terms(self, doc_id: int) -> np.ndarray:
        """Term ids (with repetition) of one document."""
        return self.doc_term_ids[
            self.doc_offsets[doc_id] : self.doc_offsets[doc_id + 1]
        ]


def build_corpus(
    config: SearchWorkloadConfig, rng: np.random.Generator
) -> Corpus:
    """Generate a corpus per the workload configuration.

    Document lengths are lognormal around ``mean_doc_length``; tokens
    are i.i.d. draws from the Zipf term distribution.
    """
    probs = zipf_probabilities(config.vocabulary_size, config.zipf_exponent)
    sigma = config.doc_length_sigma
    mu = np.log(config.mean_doc_length) - sigma**2 / 2.0
    lengths = np.maximum(
        rng.lognormal(mu, sigma, size=config.num_documents).astype(np.int64), 8
    )
    offsets = np.zeros(config.num_documents + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    tokens = _draw_with_replacement(
        rng, _choice_cdf(probs), int(offsets[-1])
    )
    return Corpus(
        doc_term_ids=tokens,
        doc_offsets=offsets,
        vocabulary_size=config.vocabulary_size,
        term_probabilities=probs,
    )
