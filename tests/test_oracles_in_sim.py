"""Behavioural tests of prediction quality knobs inside the simulator.

These complement the oracle unit tests: they verify that the
*scheduling consequences* of prediction quality match Section 4.6 —
better predictions narrow the TP/TPC gap, worse predictions widen it.
"""

import pytest

from repro.exec import CellSpec, run_sweep
from repro.core.target_table import TargetTable

TT = TargetTable([(0, 30), (4, 40), (8, 55), (16, 70), (32, 90)])


@pytest.fixture(scope="module")
def results(tiny_workload_spec):
    keys, cells = [], []
    for policy in ("TP", "TPC"):
        for mode, sigma in (
            ("perfect", 0.0),
            ("oracle-mild", 0.3),
            ("oracle-wild", 1.2),
        ):
            prediction = "perfect" if mode == "perfect" else "oracle"
            keys.append((policy, mode))
            cells.append(CellSpec.for_experiment(
                tiny_workload_spec, policy, 450.0, 6000, 19,
                target_table=TT, prediction=prediction, oracle_sigma=sigma,
            ))
    return dict(zip(keys, run_sweep(cells, workers=1)))


class TestPredictionQualityEffects:
    def test_perfect_predictor_equalises_tp_and_tpc(self, results):
        """With exact predictions nothing needs correcting: TP == TPC
        up to correction-timer noise."""
        tp = results[("TP", "perfect")].summary.p999_ms
        tpc = results[("TPC", "perfect")].summary.p999_ms
        assert tpc == pytest.approx(tp, rel=0.15)

    def test_correction_rate_grows_with_noise(self, results):
        rates = [
            results[("TPC", mode)].corrected.mean()
            for mode in ("perfect", "oracle-mild", "oracle-wild")
        ]
        assert rates[0] <= rates[1] <= rates[2]
        assert rates[2] > rates[0]

    def test_tp_degrades_faster_than_tpc(self, results):
        tp_growth = (
            results[("TP", "oracle-wild")].summary.p999_ms
            / results[("TP", "perfect")].summary.p999_ms
        )
        tpc_growth = (
            results[("TPC", "oracle-wild")].summary.p999_ms
            / results[("TPC", "perfect")].summary.p999_ms
        )
        assert tp_growth > tpc_growth

    def test_wild_noise_still_bounded_by_correction(self, results):
        """Even with sigma=1.2 predictions, TPC's worst response stays
        far below TP's — correction bounds the extreme tail that wild
        mispredictions create."""
        assert (
            results[("TPC", "oracle-wild")].summary.max_ms
            < results[("TP", "oracle-wild")].summary.max_ms * 0.8
        )
        assert (
            results[("TPC", "oracle-wild")].summary.p999_ms
            <= results[("TP", "oracle-wild")].summary.p999_ms * 1.02
        )
