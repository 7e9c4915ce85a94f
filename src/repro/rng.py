"""Seeded random-number streams for reproducible experiments.

Every stochastic component in the library (corpus generation, query
sampling, arrival processes, predictor subsampling, cluster jitter) draws from
its own named stream derived from a single experiment seed.  This keeps
results bit-reproducible while letting components evolve independently:
adding a draw to one component does not perturb any other component.
"""

from __future__ import annotations

import numpy as np

__all__ = ["RngFactory", "stream"]


class RngFactory:
    """Factory of independent, named ``numpy`` random generators.

    Each named stream is seeded with ``SeedSequence([root_seed, key])``,
    ``key`` a stable hash of the stream name, so the same
    ``(root_seed, name)`` pair always yields the same stream.

    Example
    -------
    >>> rngs = RngFactory(42)
    >>> a = rngs.get("arrivals")
    >>> b = rngs.get("arrivals")
    >>> float(a.random()) == float(b.random())
    True
    """

    def __init__(self, root_seed: int) -> None:
        if root_seed < 0:
            raise ValueError(f"root_seed must be non-negative, got {root_seed}")
        self._root_seed = int(root_seed)

    @property
    def root_seed(self) -> int:
        """The experiment-level seed this factory derives streams from."""
        return self._root_seed

    def get(self, name: str) -> np.random.Generator:
        """Return a fresh generator for the named stream.

        Calling ``get`` twice with the same name returns two generators
        in identical states (useful for replays).
        """
        if not name:
            raise ValueError("stream name must be non-empty")
        key = _stable_hash(name)
        seq = np.random.SeedSequence([self._root_seed, key])
        return np.random.Generator(np.random.PCG64(seq))

def stream(root_seed: int, name: str) -> np.random.Generator:
    """Shorthand for ``RngFactory(root_seed).get(name)``."""
    return RngFactory(root_seed).get(name)


def _stable_hash(name: str) -> int:
    """A deterministic 63-bit FNV-1a hash of ``name``.

    ``hash()`` is salted per-process, so we roll our own.
    """
    h = 0xCBF29CE484222325
    for byte in name.encode("utf-8"):
        h ^= byte
        h = (h * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return h & 0x7FFFFFFFFFFFFFFF
