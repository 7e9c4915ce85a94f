"""Hex-exact goldens for the single-server processor-sharing model.

Every registered policy runs the tiny search workload at two loads,
under the paper's 12-core/24-thread ``ServerConfig`` and under a
6-core/24-thread one, whose SMT region starts at half the busy count.
One 3-ISN cluster cell shrinks an ISN's worker pool mid-run, the only
path into ``Server.set_worker_limit``.  Each cell's responses,
queueing and execution times, initial and maximum degrees and
correction flags are reduced to one sha256 digest, so any change to a
float of the server's fluid accrual, completion horizon, capacity
tables or degree raises fails here.
"""

import hashlib

import numpy as np
import pytest

from repro.config import ClusterConfig, ServerConfig
from repro.exec import CellSpec, run_cell
from repro.experiments.scenarios import TINY_TARGET_TABLE
from repro.policies import policy_names
from repro.resilience import FaultSpec

N_REQUESTS = 1_500
SEED = 5

#: Server-config label -> ``ServerConfig`` of the single-server cells.
CONFIGS = {
    "12core": ServerConfig(),
    "6core": ServerConfig(physical_cores=6),
}

#: (policy, qps, config label) -> expected sha256 of the cell.
EXPECTED = {
    ("TPC", 450.0, "12core"): "95b9ba0c4a0b793a2cedf0416a48bf06d98d116c847a7f2b8d735d73d1de2509",
    ("TPC", 450.0, "6core"): "52a9247df9e1f4685ab481f9aa8cd21ac47b64dc53b0953c2ba404fde2bcba6d",
    ("TPC", 750.0, "12core"): "2001e5c0b9e0b0973b06a440a60228da74b318f6fd638611c7308032b8ff6975",
    ("TPC", 750.0, "6core"): "8fbbf91f7fd4692f6889edbaae08ae22764eb0914ff43520e62c9baf23ff8c05",
    ("TP", 450.0, "12core"): "797352e9fd1ed1329d52ade13809571bbb38a6853c77752aa4d012510c8153c0",
    ("TP", 450.0, "6core"): "8d267f586d4e2ed99248dbbd8e034c39969e76d6b87a279ee4be3b2b80c050a3",
    ("TP", 750.0, "12core"): "c15f9039eb78fc995349796a0cd1d8779204c177336eb5431bdeab9c8d18a032",
    ("TP", 750.0, "6core"): "39330c87dc4f31cc2e26871a28fe9276eb4bc179efca4796fde94dba0c2e1644",
    ("AP", 450.0, "12core"): "d2d4a0f4ea033d4dd010c275d5add25335293108265c8d87fb9b720f2b75d7d3",
    ("AP", 450.0, "6core"): "939d3c829a17843ec978f2aeaa0825e185fceca0ffb9e52107fe503a6b109999",
    ("AP", 750.0, "12core"): "2bc53e3e9755c304d8daa0adb3ad241f658df790370971a8a3028ffa85a281f1",
    ("AP", 750.0, "6core"): "32842d4f6c90316aa2dae86a998feed5017360354e61e341f533f1856ad0bb71",
    ("Pred", 450.0, "12core"): "ff47b82336051ec870caaf03b8dae149e20cb74ff055ff66f2a090711eeba28f",
    ("Pred", 450.0, "6core"): "ceab193b5bb436ed1d92f05b5691da70f8f9a61ad4de49c6196f2d7056090157",
    ("Pred", 750.0, "12core"): "67506c059adf2065fe6a5cfba921194555b13f5a24cda2d083af70c67c4ba171",
    ("Pred", 750.0, "6core"): "cb19052cfe8606f7fe8d2cf07bd437366d26eda2d482f9b3c417a2d77d517d00",
    ("WQ-Linear", 450.0, "12core"): "3e681263758c50608acfc074cb23ce54e1597211cbb537536e9589e6907c6f37",
    ("WQ-Linear", 450.0, "6core"): "c2acdb14e9a4ed457e8e30728f22104a8975d2b99ad7d837448994cb6515b3af",
    ("WQ-Linear", 750.0, "12core"): "6517c9e2b6e9542accc3e3daa01db03cd02408c58d32a0cd39b88892cb521125",
    ("WQ-Linear", 750.0, "6core"): "5022fb7084bbdfab89f642a843db49887e1870939c9aa7df1ef4b8ae66ec9a26",
    ("RampUp", 450.0, "12core"): "2e3bd630f32a48b5d4a2b9ec6e41c1a423bf4a7c6e64c9bb84d01a80399bdc2d",
    ("RampUp", 450.0, "6core"): "9eac99f948dffd0a7d83ea667a48681aa8a172a7ed730a93a6b5fe01938ba1db",
    ("RampUp", 750.0, "12core"): "a5d4dc912a884cf838dcb39b60805f518733faafc70e7e8e78be58a05427a2cd",
    ("RampUp", 750.0, "6core"): "f0a225c57fa391dcb930d1c737fcf19121b8e06b2a3c58d29fe14f77bbb3e69c",
    ("RampUp-Adaptive", 450.0, "12core"): "5b11eb00c7c80358be3ca14c88032af2dba2284e75a631b739691fb909448ec4",
    ("RampUp-Adaptive", 450.0, "6core"): "b63ecf10c81ee63c9069c15f073759d38a792a55a2517b9e765cc077bab45459",
    ("RampUp-Adaptive", 750.0, "12core"): "7cbd99b2c2d7167e4ee414340204e6eaeb09a488a66d64313b820bf2eae4be96",
    ("RampUp-Adaptive", 750.0, "6core"): "1574a5e6efe0af489b04786c6f771aa6c962a2956ee0b5b9b204e130f87a828d",
    ("Sequential", 450.0, "12core"): "f6506bd534f50fcfe073c40222d939cd39a7347d999083f6cab223fce44e963b",
    ("Sequential", 450.0, "6core"): "9ae7d87146517be63f1dccc513d100fe34667da00d761ccda82ab8b403ee6115",
    ("Sequential", 750.0, "12core"): "3d3e6ce502446579a9f37f77caea4c8d229f4b26057223a77f59bd2f2265a815",
    ("Sequential", 750.0, "6core"): "0306ca9aa8c3a11fd8ac74c8cd26ff438ddea46289c6607d81f749f34a27ae28",
}

#: The degraded-core cluster cell: ISN 0 keeps 8 of its 28 workers
#: over [300, 1500) ms of a ~3 s run.
DEGRADED_EXPECTED = (
    "4efbf58b58873f8154bd975467938be3d41786a51fbd00aa56821d0fb1e0e35b"
)


def cell_digest(result) -> str:
    """sha256 over a ``CellResult``'s per-request arrays."""
    digest = hashlib.sha256()
    for values, dtype in (
        (result.responses_ms, np.float64),
        (result.queueing_ms, np.float64),
        (result.executions_ms, np.float64),
        (result.initial_degrees, np.int64),
        (result.max_degrees, np.int64),
        (result.corrected, np.bool_),
    ):
        digest.update(np.ascontiguousarray(values, dtype=dtype).tobytes())
    return digest.hexdigest()


def single_server_cell(workload_spec, policy, qps, config):
    return CellSpec.for_experiment(
        workload_spec, policy, qps, N_REQUESTS, SEED,
        target_table=TINY_TARGET_TABLE,
        server_config=CONFIGS[config],
    )


def test_every_policy_has_goldens():
    assert {key[0] for key in EXPECTED} == set(policy_names())


@pytest.mark.parametrize(
    "key", sorted(EXPECTED), ids=lambda k: f"{k[0]}-{k[1]:g}-{k[2]}"
)
def test_single_server_golden_digests(key, tiny_workload_spec):
    policy, qps, config = key
    spec = single_server_cell(tiny_workload_spec, policy, qps, config)
    assert cell_digest(run_cell(spec, cache=None)) == EXPECTED[key]


def test_degraded_worker_pool_golden_digest(tiny_workload_spec):
    spec = CellSpec.for_experiment(
        tiny_workload_spec, "TPC", 300.0, 900, SEED,
        target_table=TINY_TARGET_TABLE,
        cluster_config=ClusterConfig(num_isns=3),
        fault_spec=FaultSpec.degraded(0, 8, t0_ms=300.0, t1_ms=1_500.0),
    )
    assert cell_digest(run_cell(spec, cache=None)) == DEGRADED_EXPECTED
