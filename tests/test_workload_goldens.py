"""Hex-exact goldens for the cold search-workload build.

``build_search_workload`` runs corpus generation, indexing, query
execution, calibration, speedup profiling and boosted-tree training.
Each recipe's output is reduced to sha256 digests of the pool demands,
the pool predictions, the predictor report, every pool speedup profile,
the group weights and the calibration scale, so an optimisation of any
build stage that moves a single float fails here.

The ``tiny`` recipe is the workload of the ``end_to_end_cell`` scenario
that ``python -m repro.gate --only perf`` times; ``deep`` adds deeper
trees, full-sample boosting and the feature-noise predict path.
"""

import hashlib

import numpy as np
import pytest

from repro.config import PredictorConfig, SearchWorkloadConfig
from repro.search import build_search_workload

_TINY_SEARCH = SearchWorkloadConfig(
    num_documents=3_000,
    vocabulary_size=1_500,
    mean_doc_length=120,
    hard_term_pool=150,
    easy_skip_top=15,
)

#: Digests of the predictor-independent outputs, shared by both recipes.
_BUILD = {
    "demands": "f6e15de2bd6f89e3c84f82e4fdf3c8f8116570425a2132255a46dfa3283dddba",
    "profiles": "082a13d8df6448135c594900cf244e6ab10d5b4ef927c4de8a5513f70935dbfe",
    "group_weights": "824d2d876ff5d7930d07441b2627762ef179602e4906dc36de406b3c59c63821",
    "ms_per_unit": "ca1858dff1718d495663e45034a2050017cb68f4492fe65e81ba8ba0519f24b1",
}

#: name -> (PredictorConfig, expected digests).
RECIPES = {
    "tiny": (
        PredictorConfig(num_trees=60, max_depth=4),
        {
            **_BUILD,
            "predictions": "dfc23f43c546f04a42a5fe46b92578327942f41736a3d38202ef43aaec47a428",
            "report": "cfa441dbf87af43aaaa9c4a4928cae8d3a8241643d8231e9025fc87284e60dea",
        },
    ),
    "deep": (
        PredictorConfig(
            num_trees=60, max_depth=6, subsample=1.0, feature_noise_sigma=0.1
        ),
        {
            **_BUILD,
            "predictions": "bb2c1d13c5cd076cad30983e54efe8b1393f069f405562e44e573c09053b54c7",
            "report": "94aa639c28cd97decc7c6b6a0258b23004de14393c678011cbbce1d49f051e61",
        },
    ),
}


def _array_sha(values) -> str:
    data = np.ascontiguousarray(values, dtype=np.float64).tobytes()
    return hashlib.sha256(data).hexdigest()


def digests(workload) -> dict[str, str]:
    """The six golden digests of one built workload."""
    report = sorted(workload.predictor_report.as_row().items())
    profiles = [profile.speedups for profile in workload.pool_profiles]
    return {
        "demands": _array_sha(workload.pool_demands_ms),
        "predictions": _array_sha(workload.pool_predictions_ms),
        "report": hashlib.sha256(repr(report).encode()).hexdigest(),
        "profiles": _array_sha(profiles),
        "group_weights": _array_sha(workload.group_weights),
        "ms_per_unit": _array_sha([workload.ms_per_unit]),
    }


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_workload_golden_digests(name):
    predictor_config, expected = RECIPES[name]
    workload = build_search_workload(
        seed=11,
        config=_TINY_SEARCH,
        predictor_config=predictor_config,
        pool_size=1_200,
        use_cache=False,
    )
    assert digests(workload) == expected
