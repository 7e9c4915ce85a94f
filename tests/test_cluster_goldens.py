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
            "aggregator": "d543ca9dd85232f83bf492d9b6397247998a94a88f209052a27ae10f7a4dc34a",
            "isn": "f9def390900fde33c9fe2a26a57f526eb2463587011e8e9750ecaf0c83fc36c4",
            "recorders": "38c71d7dcd930ade0d09d03ce7bbebe809228ad676df4b4d1a3a25542e67a052",
            "resilience": "dc937b59892604f5a86ac96936cd7ff09e25f18ae6b758e8014a24c7fa039e91",
        },
    ),
    "straggler-unhedged": (
        dict(fault_spec=_STRAGGLER),
        {
            "aggregator": "c52b2dfdd706c3bcb61169223646c1cd449b8dc1735ea88c253b05066b706f5e",
            "isn": "55288918b998d84155fbe3bcdc85e6b8ad65eb6493ecea3c42e07846310c8d45",
            "recorders": "9fe799d4f1bfe19e81b991bdfea4d4122e3e4bbe3539efe26ed46b40a9931521",
            "resilience": "8fc5da07f417856668215b15bbe160bd91493ce0a0c8d05cdf7678328283f18d",
        },
    ),
    "straggler-hedged": (
        dict(fault_spec=_STRAGGLER, hedge_policy=HedgePolicy.hedged(60.0)),
        {
            "aggregator": "2d84fa0286e28968524ca238c2a43fbdfd85074ddc3092a960d050ce012e8629",
            "isn": "53de28c9ddb19e735f862f629adc42ab6952a8b7925561a1c8bc95fb6299ae6e",
            "recorders": "b6e6f3d870f45295752afcfc95b9a1679b04b0f9fceb0ac2cd17d7a07ea773ca",
            "resilience": "378c8d1da550563860b2adbceefee3aafd9e530630ea0ce3d33640bfc183fe67",
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
            "aggregator": "c0e9c4ce58f1e0c8f79c4ebeddc83d25e76cf4f2327742efd698beea747ca295",
            "isn": "c923e4fd6c5a8bc4d1cb0bdee9d6caa0f331a5c2dda9b956e113b2bf2a15f5f8",
            "recorders": "59d9ced7ed990801555f51cee3315ccfed99c0e9abe5656e8faa05bf7f8befb5",
            "resilience": "b96b0b98bd4a92cfa5de1c35b2393aac0e241112e94d570b5c2e5c249239fc27",
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
