"""Hex-exact goldens for the cluster runner.

Each cell's output is reduced to sha256 digests of the aggregator
latencies, the per-replica ISN latencies, every per-ISN recorder's
responses and maximum degrees, and the resilience accounting row.  The
digests pin today's numbers bit for bit, so a refactor of the cluster
runner that changes any float fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster import run_cluster_experiment
from repro.config import ClusterConfig
from repro.resilience import FaultSpec, HedgePolicy

_STRAGGLER = FaultSpec.straggler(1, 3.0)

#: name -> (run_cluster_experiment keyword overrides, expected digests).
CELLS = {
    "healthy-workers1": (
        {},
        {
            "aggregator": "a683f5d209e01306749f6a5a995541ec9265d2c2684238f65e7154ef7eafe3d0",
            "isn": "51b1bbaf408f58082798ba84189066363166a0268f977139e1e08cf2627c4011",
            "recorders": "a31a04a0d6ba801f75387f5c67c4008d85ecbc9313c11180403232e325f91c32",
            "resilience": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        },
    ),
    "straggler-unhedged": (
        dict(fault_spec=_STRAGGLER),
        {
            "aggregator": "0acb7ca6921b2f4849bb0a2a184bdd9110ea33975c78601a5303a8e52eb7920f",
            "isn": "9bd6d50afdab3d9d15b50bc2306af8c578f15cba6c1d67eecf33fff8242f39c7",
            "recorders": "82c815bb95aa723777afee7ce4dcab4e3a330fb7827c09e678d409849270b90c",
            "resilience": "8fc5da07f417856668215b15bbe160bd91493ce0a0c8d05cdf7678328283f18d",
        },
    ),
    "straggler-hedged": (
        dict(fault_spec=_STRAGGLER, hedge_policy=HedgePolicy.hedged(60.0)),
        {
            "aggregator": "3081b7d8076a3c0f7150df41478c6fb2d8b7e2d866c2bfe84001de0553730f08",
            "isn": "c9b729e6c04223dbbc830f381503c87cb093062ecd35cd8bb49eeacf68913529",
            "recorders": "a914f0b4fc2b60379c616bfb93776400418286aa6e36cffb9ea9613ed3d46ace",
            "resilience": "b3d777eeb69eca3d4abd96d58ac0c2d1ea96ca5d59d3babaaad380da51c6b772",
        },
    ),
    "rolling-blackout-partial": (
        dict(
            fault_spec=FaultSpec.rolling_blackout(
                3, duration_ms=200.0, stagger_ms=500.0, start_ms=100.0
            ),
            hedge_policy=HedgePolicy.partial(2),
        ),
        {
            "aggregator": "eb68ddd756fe9aa2f15bf9ec94589e7edb21184fca0cf3d5a632853ecc102b21",
            "isn": "dd4059fff461f606b436f936c0696587d13d660d23c600209058efb198950102",
            "recorders": "562fdefc35ef4054bd48cba34faf21e364947c76e8f15abd3a4f5e8ec81fa6fe",
            "resilience": "2ecbf0a97e2c95f6ced0e6656ed271dccc0fd8bff4a53652600e34af8e725653",
        },
    ),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _array_sha(values, dtype) -> str:
    return _sha(np.ascontiguousarray(values, dtype=dtype).tobytes())


def digests(result) -> dict[str, str]:
    """The four golden digests of one cluster result."""
    recorders = hashlib.sha256()
    for recorder in result.isn_recorders:
        recorders.update(
            np.ascontiguousarray(recorder.responses_ms, np.float64).tobytes()
        )
        recorders.update(
            np.ascontiguousarray(recorder.max_degrees, np.int64).tobytes()
        )
    stats = result.resilience
    row = None if stats is None else sorted(stats.as_row().items())
    return {
        "aggregator": _array_sha(result.aggregator_latencies_ms, np.float64),
        "isn": _array_sha(result.isn_latencies_ms, np.float64),
        "recorders": recorders.hexdigest(),
        "resilience": _sha(repr(row).encode()),
    }


def run_cell(workload, target_table, overrides):
    return run_cluster_experiment(
        workload, "TPC", qps=200.0, n_queries=300, seed=23,
        cluster_config=ClusterConfig(num_isns=3),
        target_table=target_table,
        **overrides,
    )


@pytest.mark.parametrize("name", sorted(CELLS))
def test_cluster_golden_digests(name, tiny_search_workload, target_table):
    overrides, expected = CELLS[name]
    result = run_cell(tiny_search_workload, target_table, overrides)
    assert digests(result) == expected
