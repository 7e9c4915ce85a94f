"""Tests for configuration validation."""

import dataclasses
import math

import pytest

from repro.config import (
    ClusterConfig,
    FinanceConfig,
    PolicyConfig,
    PredictorConfig,
    SearchWorkloadConfig,
    ServerConfig,
    TargetTableConfig,
    validate_group_bounds,
)
from repro.errors import ConfigError


class TestServerConfig:
    def test_defaults_match_paper_testbed(self):
        cfg = ServerConfig()
        assert cfg.hardware_threads == 24
        assert cfg.physical_cores == 12
        assert cfg.worker_threads == 28
        assert cfg.max_parallelism == 6

    def test_rejects_max_parallelism_above_workers(self):
        with pytest.raises(ConfigError):
            ServerConfig(worker_threads=4, max_parallelism=5)

    def test_rejects_zero_hardware_threads(self):
        with pytest.raises(ConfigError):
            ServerConfig(hardware_threads=0)

    def test_rejects_physical_cores_above_hardware_threads(self):
        with pytest.raises(ConfigError):
            ServerConfig(hardware_threads=8, physical_cores=9)

    @pytest.mark.parametrize(
        "field",
        ["smt_marginal_throughput", "rampup_penalty_ms", "cpu_sample_interval_ms"],
    )
    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    def test_rejects_non_finite_floats(self, field, value):
        with pytest.raises(ConfigError, match=field):
            ServerConfig(**{field: value})

    def test_with_returns_modified_copy(self):
        cfg = ServerConfig()
        other = dataclasses.replace(cfg, max_parallelism=4)
        assert other.max_parallelism == 4
        assert cfg.max_parallelism == 6

    def test_total_throughput_linear_below_physical(self):
        cfg = ServerConfig()
        assert cfg.total_throughput(6) == 6.0
        assert cfg.total_throughput(12) == 12.0

    def test_total_throughput_smt_region(self):
        cfg = ServerConfig()
        expected = 12 + 0.35 * 6
        assert cfg.total_throughput(18) == pytest.approx(expected)

    def test_total_throughput_saturates_at_hardware_threads(self):
        cfg = ServerConfig()
        cap = cfg.capacity_core_equivalents
        assert cfg.total_throughput(24) == pytest.approx(cap)
        assert cfg.total_throughput(28) == pytest.approx(cap)

    def test_capacity_core_equivalents(self):
        cfg = ServerConfig()
        assert cfg.capacity_core_equivalents == pytest.approx(12 + 0.35 * 12)


class TestSearchWorkloadConfig:
    def test_defaults_valid(self):
        cfg = SearchWorkloadConfig()
        assert cfg.target_mean_ms == pytest.approx(13.47)

    def test_rejects_bad_hard_fraction(self):
        with pytest.raises(ConfigError):
            SearchWorkloadConfig(hard_query_fraction=1.5)

    def test_rejects_inverted_keyword_range(self):
        with pytest.raises(ConfigError):
            SearchWorkloadConfig(easy_keywords=(4, 2))

    def test_rejects_nonpositive_grain(self):
        with pytest.raises(ConfigError):
            SearchWorkloadConfig(task_grain_units=0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # Easy queries sample without replacement from the ranks
            # past easy_skip_top: too few of them for the longest easy
            # query, or a negative skip that yields term id -5.
            {"vocabulary_size": 20, "easy_skip_top": 18},
            {"vocabulary_size": 20, "easy_skip_top": 20},
            {"vocabulary_size": 20, "easy_skip_top": 25},
            {"easy_skip_top": -5},
            {"hard_term_pool": 0},
            {"hard_term_pool": -1},
            {"zipf_exponent": 0.0},
            {"zipf_exponent": -1.1},
            {"zipf_exponent": math.nan},
            {"zipf_exponent": math.inf},
            {"query_zipf_exponent": 0.0},
            {"query_zipf_exponent": math.nan},
            {"query_zipf_exponent": math.inf},
            # A zero mean length builds an all-minimum-length corpus.
            {"mean_doc_length": 0},
            {"mean_doc_length": -10},
            {"doc_length_sigma": -0.1},
            {"doc_length_sigma": math.nan},
            {"hidden_cost_sigma": -0.1},
            {"hidden_cost_sigma": math.inf},
            {"surprise_sigma": -1.5},
            {"surprise_sigma": math.nan},
            # Above 1 every query would be marked surprised.
            {"surprise_fraction": 2.0},
            {"surprise_fraction": -0.1},
            {"surprise_fraction": math.nan},
        ],
    )
    def test_rejects_values_the_build_cannot_honour(self, kwargs):
        with pytest.raises(ConfigError):
            SearchWorkloadConfig(**kwargs)

    def test_boundary_values_allowed(self):
        # Exactly enough easy terms for the longest easy query, a pool
        # clipped to the vocabulary, no skip and zero noise are legal.
        SearchWorkloadConfig(vocabulary_size=20, easy_skip_top=16)
        SearchWorkloadConfig(vocabulary_size=80, hard_term_pool=300)
        SearchWorkloadConfig(
            easy_skip_top=0,
            mean_doc_length=1,
            doc_length_sigma=0.0,
            hidden_cost_sigma=0.0,
            surprise_sigma=0.0,
            surprise_fraction=1.0,
        )


class TestPredictorConfig:
    def test_defaults_valid(self):
        cfg = PredictorConfig()
        assert cfg.long_threshold_ms == 80.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_trees": 0},
            {"learning_rate": 0},
            {"learning_rate": 1.5},
            {"max_depth": 0},
            {"subsample": 0},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PredictorConfig(**kwargs)


class TestPolicyConfig:
    def test_defaults_valid(self):
        cfg = PolicyConfig()
        assert cfg.pred_fixed_degree == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"long_threshold_ms": 0},
            {"pred_fixed_degree": 0},
            {"rampup_interval_ms": 0},
            {"wq_linear_beta": 0},
            {"correction_recheck_ms": 0},
            {"correction_delay_factor": 0},
            {"correction_delay_factor": math.nan},
            {"correction_resource_signal": "magic"},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            PolicyConfig(**kwargs)


class TestTargetTableConfig:
    def test_defaults_valid(self):
        cfg = TargetTableConfig()
        assert len(cfg.measure_weights) == len(cfg.measure_loads_qps)

    def test_rejects_descending_grid(self):
        with pytest.raises(ConfigError):
            TargetTableConfig(load_grid=(4.0, 2.0))

    def test_rejects_weight_mismatch(self):
        with pytest.raises(ConfigError):
            TargetTableConfig(
                measure_loads_qps=(100.0,), measure_weights=(1.0, 2.0)
            )

    def test_rejects_bad_percentile(self):
        with pytest.raises(ConfigError):
            TargetTableConfig(percentile=100.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # An empty grid would score every candidate 0.0.
            {"measure_loads_qps": (), "measure_weights": ()},
            {"measure_loads_qps": (0.0,), "measure_weights": (1.0,)},
            {"measure_loads_qps": (math.inf,), "measure_weights": (1.0,)},
            {"measure_loads_qps": (math.nan,), "measure_weights": (1.0,)},
            # NaN weights end the search at once; negative ones maximise
            # the tail; all-zero weights make every table tie.
            {"measure_weights": (1.0, math.nan, 1.0)},
            {"measure_weights": (-1.0, -1.0, -1.0)},
            {"measure_weights": (1.0, math.inf, 1.0)},
            {"measure_weights": (0.0, 0.0, 0.0)},
            {"queries_per_measurement": 0},
            {"max_iterations": 0},
            {"max_iterations": -1},
            {"initial_target_ms": 0.0},
            {"initial_target_ms": math.nan},
            {"initial_target_ms": math.inf},
        ],
    )
    def test_rejects_degenerate_search(self, kwargs):
        with pytest.raises(ConfigError):
            TargetTableConfig(**kwargs)

    def test_zero_weight_on_some_loads_allowed(self):
        cfg = TargetTableConfig(measure_weights=(0.0, 1.0, 0.0))
        assert sum(cfg.measure_weights) == 1.0


class TestClusterConfig:
    def test_defaults_are_forty_isns(self):
        assert ClusterConfig().num_isns == 40

    def test_rejects_zero_isns(self):
        with pytest.raises(ConfigError):
            ClusterConfig(num_isns=0)


class TestFinanceConfig:
    def test_defaults_match_section_5(self):
        cfg = FinanceConfig()
        assert cfg.long_fraction == pytest.approx(0.10)
        assert cfg.long_demand_multiplier == pytest.approx(9.0)
        assert cfg.max_parallelism == 4
        assert cfg.pred_fixed_degree == 2

    def test_rejects_long_not_longer(self):
        with pytest.raises(ConfigError):
            FinanceConfig(long_demand_multiplier=1.0)

    def test_rejects_serial_fraction_one(self):
        with pytest.raises(ConfigError):
            FinanceConfig(serial_fraction=1.0)


class TestGroupBounds:
    def test_valid_bounds_pass_through(self):
        assert validate_group_bounds([30.0, 80.0]) == (30.0, 80.0)

    def test_rejects_unsorted(self):
        with pytest.raises(ConfigError):
            validate_group_bounds([80.0, 30.0])

    def test_rejects_nonpositive(self):
        with pytest.raises(ConfigError):
            validate_group_bounds([0.0, 30.0])
