"""Tests for the finance-server substrate (Section 5)."""

import numpy as np
import pytest

from repro.config import FINANCE_MAX_PARALLELISM, FINANCE_SHORT_DEMAND_MS
from repro.errors import ConfigError, WorkloadError
from repro.finance import AsianOption, MonteCarloPricer
from repro.finance.workload import finance_profile


class TestAsianOption:
    def test_call_payoff(self):
        option = AsianOption(strike=100.0)
        assert option.payoff(110.0) == 10.0
        assert option.payoff(90.0) == 0.0

    def test_put_payoff(self):
        option = AsianOption(strike=100.0, is_call=False)
        assert option.payoff(90.0) == 10.0
        assert option.payoff(110.0) == 0.0

    def test_rejects_bad_contract(self):
        with pytest.raises(ConfigError):
            AsianOption(spot=-1.0)
        with pytest.raises(ConfigError):
            AsianOption(volatility=0.0)


class TestMonteCarloPricer:
    def test_price_is_positive_for_atm_call(self):
        result = MonteCarloPricer().price(
            AsianOption(), 4000, 50, np.random.default_rng(0)
        )
        assert result.price > 0
        assert result.std_error > 0
        assert result.path_steps == 4000 * 50

    def test_deep_itm_call_near_intrinsic(self):
        option = AsianOption(spot=200.0, strike=100.0, volatility=0.1)
        result = MonteCarloPricer().price(
            option, 8000, 50, np.random.default_rng(1)
        )
        # Average of GBM with small vol ~ slightly above spot; payoff
        # ~ spot - strike ~ 100, discounted.
        assert 80 < result.price < 130

    def test_antithetic_reduces_variance(self):
        option = AsianOption()
        plain = MonteCarloPricer(antithetic=False).price(
            option, 8000, 30, np.random.default_rng(2)
        )
        anti = MonteCarloPricer(antithetic=True).price(
            option, 8000, 30, np.random.default_rng(2)
        )
        assert anti.std_error < plain.std_error

    def test_price_converges_across_seeds(self):
        option = AsianOption()
        pricer = MonteCarloPricer()
        a = pricer.price(option, 30_000, 30, np.random.default_rng(3))
        b = pricer.price(option, 30_000, 30, np.random.default_rng(4))
        assert a.price == pytest.approx(b.price, abs=4 * (a.std_error + b.std_error))

    def test_put_call_relationship(self):
        rng = np.random.default_rng(5)
        call = MonteCarloPricer().price(AsianOption(), 10_000, 30, rng)
        put = MonteCarloPricer().price(
            AsianOption(is_call=False), 10_000, 30, np.random.default_rng(5)
        )
        # ATM with positive drift: call worth more than put.
        assert call.price > put.price

    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigError):
            MonteCarloPricer().price(AsianOption(), 1, 10, np.random.default_rng(0))

    def test_calibration_returns_positive_cost(self):
        cost = MonteCarloPricer().calibrate_ms_per_path_step(
            n_paths=2000, n_steps=20, repeats=1
        )
        assert cost > 0


class TestFinanceProfile:
    def test_long_requests_parallelize_better(self):
        short = finance_profile(FINANCE_SHORT_DEMAND_MS)
        long = finance_profile(FINANCE_SHORT_DEMAND_MS * 9)
        assert long.speedup(4) > short.speedup(4)

    def test_profile_monotone(self):
        profile = finance_profile(5.0)
        values = profile.speedups
        assert all(b >= a for a, b in zip(values, values[1:]))

    def test_max_degree_matches_config(self):
        assert finance_profile(10.0).max_degree == FINANCE_MAX_PARALLELISM


class TestFinanceWorkload:
    def test_long_fraction_near_ten_percent(self, finance_workload, rng):
        reqs = finance_workload.make_requests(20_000, rng)
        long = [r for r in reqs if r.demand_ms > 50.0]
        assert len(long) / len(reqs) == pytest.approx(0.10, abs=0.01)

    def test_long_demand_nine_times_short(self, finance_workload, rng):
        reqs = finance_workload.make_requests(5000, rng)
        longs = [r.demand_ms for r in reqs if r.demand_ms > 50]
        shorts = [r.demand_ms for r in reqs if r.demand_ms <= 50]
        assert np.mean(longs) / np.mean(shorts) == pytest.approx(9.0, rel=0.05)

    def test_predictions_near_perfect(self, finance_workload, rng):
        reqs = finance_workload.make_requests(2000, rng)
        rel_err = [
            abs(r.predicted_ms - r.demand_ms) / r.demand_ms for r in reqs
        ]
        assert np.mean(rel_err) < 0.05

    def test_perfect_mode(self, finance_workload, rng):
        reqs = finance_workload.make_requests(100, rng, prediction="perfect")
        for r in reqs:
            assert r.predicted_ms == pytest.approx(r.demand_ms)

    def test_structural_time_linear_in_paths(self, finance_workload):
        t1 = finance_workload.structural_time_ms(1000)
        t9 = finance_workload.structural_time_ms(9000)
        assert t9 == pytest.approx(9 * t1)

    def test_paths_consistent_with_demands(self, finance_workload):
        assert finance_workload.structural_time_ms(
            finance_workload.short_paths
        ) == pytest.approx(FINANCE_SHORT_DEMAND_MS, rel=0.01)

    def test_group_weights(self, finance_workload):
        assert sum(finance_workload.group_weights) == pytest.approx(1.0)
        assert finance_workload.group_weights[0] == pytest.approx(0.9)
        assert finance_workload.group_weights[2] == pytest.approx(0.1)

    def test_rejects_bad_mode(self, finance_workload, rng):
        with pytest.raises(WorkloadError):
            finance_workload.make_requests(5, rng, prediction="psychic")
