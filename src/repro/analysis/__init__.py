"""Analysis utilities: queueing-theory checks and policy comparisons.

Not part of the paper's system, but the tooling a reproduction needs to
*trust* its substrate: Little's-law and utilisation validators for the
simulated server, plus a helper that measures how often one policy's
latency series dominates another's across the load range.
"""

from .queueing import (
    offered_load_core_equivalents,
    mean_concurrency,
    utilisation,
    verify_littles_law,
)
from .comparison import dominance_fraction

__all__ = [
    "offered_load_core_equivalents",
    "mean_concurrency",
    "utilisation",
    "verify_littles_law",
    "dominance_fraction",
]
