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
    ("TPC", 450.0, "12core"): "8b496a1322a3e1a19d3e5b6e4a892a1fd07ff649611bb13e1a66e832bea8f064",
    ("TPC", 450.0, "6core"): "89a4fb8a5ca2b177a2a20fe108999c3847361529f3b178ff79bcebdfaa15a0de",
    ("TPC", 750.0, "12core"): "f5e2e3f5db1a5fc06bc55689785d786131b10d29af6fc551e83803ad08392244",
    ("TPC", 750.0, "6core"): "773420db1b8589be6c91513cff6f812e0822f08b97007ed32bcf03b5eb817bfa",
    ("TP", 450.0, "12core"): "894464adbe9f03201143304477c519ddef5bc376f1be8c4bc24a80f4eb8d7c6f",
    ("TP", 450.0, "6core"): "5cc55630ce66a92dfece1bb0d427bc783e8ac459e4f200a1ddcc5e52450a6d09",
    ("TP", 750.0, "12core"): "fa0658ef3335b499f980e4951620ac2b22248bd1307a7e115a655d64c7d4882e",
    ("TP", 750.0, "6core"): "08dd30f4737732915f7687411ee4a32bf5d25ab1e144fb9c374ad68c472fa201",
    ("AP", 450.0, "12core"): "425496de2edcd20f61e4d863df9cd77dd02a64af405a91cb13f0fe35e5f72741",
    ("AP", 450.0, "6core"): "84ba96a730845900f652d3799a0f2798e146c6ccd054e6a8a42392ff0938dd22",
    ("AP", 750.0, "12core"): "79ac0c00d7094366f8f08ff4dc7e65fcdb7e2b9a35d90164b611e6e0f2d7d067",
    ("AP", 750.0, "6core"): "0466e9cbadd0dd494467d472a7b1b8475d62f13df3d7822d653e0766f635fd63",
    ("Pred", 450.0, "12core"): "106217ee4417fac0eea77a29893cfaf6d5930b78b10f5980ea6038276417c7d8",
    ("Pred", 450.0, "6core"): "f55ef8ee58d2aa3b6d8a46d7c8c1d851959d2b82ef71b2216e9278cdb2aeb2fe",
    ("Pred", 750.0, "12core"): "1b501d2579cb1289f5fa3a9bc0ab44075c45b672233fa4e7af151e609e864551",
    ("Pred", 750.0, "6core"): "f6feb1edfe49f53134375ad40c703dd3158359168eecd8437af608bf6623788f",
    ("WQ-Linear", 450.0, "12core"): "dcb92a5ceb238a24348ab8bfb8ffd1cb1a2c1417729a45cab706c3ce4008d42d",
    ("WQ-Linear", 450.0, "6core"): "6803a0b3ee50f26311c1c0c2132ff86494d01bce2bad9fb1ed1f1ad2bdea4c9d",
    ("WQ-Linear", 750.0, "12core"): "0a2852bdd37764083b43740a63a25b687945721e3e331e4c032aa0f61b605a9f",
    ("WQ-Linear", 750.0, "6core"): "af851de706ac38b139a561b44b4b4a782ae8cdbebe5077a67c3a1bbca7966e12",
    ("RampUp", 450.0, "12core"): "5d8a1083ae4991993ccb73482d7224e43f4cc3c1042bf0817f4e451e2f0474c9",
    ("RampUp", 450.0, "6core"): "9c8555f792de847904308850aaf95adefa34f5c0573942c76ce0ceac2f111b54",
    ("RampUp", 750.0, "12core"): "ab77b9a831658072bb0620b63d652cc7bd45478d231c46ec2c5a1a726044e27a",
    ("RampUp", 750.0, "6core"): "1485f678cde6acee173107ed5aa52b6e1eb9ff6c1d822f773b47af8b0fe833a3",
    ("RampUp-Adaptive", 450.0, "12core"): "0bb63da8c7eb3e6a0f56948594ea323d354e2278a4b49ac247e732718f0b54dd",
    ("RampUp-Adaptive", 450.0, "6core"): "a22e5da482e911c60870eed40cebe8f3180ccc2532905b29cc2e77c5cd067874",
    ("RampUp-Adaptive", 750.0, "12core"): "715f2f23bff452c9f55dd3af4a31d05cd8efaaa4e56fb59f1fbeccf9a80adde0",
    ("RampUp-Adaptive", 750.0, "6core"): "7a3ca0b7b74554a067f3750950281dad8c5b5f5a280e6e4f3c089241ecda22d1",
    ("Sequential", 450.0, "12core"): "f6506bd534f50fcfe073c40222d939cd39a7347d999083f6cab223fce44e963b",
    ("Sequential", 450.0, "6core"): "9ae7d87146517be63f1dccc513d100fe34667da00d761ccda82ab8b403ee6115",
    ("Sequential", 750.0, "12core"): "3d3e6ce502446579a9f37f77caea4c8d229f4b26057223a77f59bd2f2265a815",
    ("Sequential", 750.0, "6core"): "0306ca9aa8c3a11fd8ac74c8cd26ff438ddea46289c6607d81f749f34a27ae28",
}

#: The degraded-core cluster cell: ISN 0 keeps 8 of its 28 workers
#: over [300, 1500) ms of a ~3 s run.
DEGRADED_EXPECTED = (
    "5e957282cca5d2446b1ed56d797163d4e4c14d0ab82557161a20f7642753ba18"
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
