"""Tests for speedup profiles and the grouped speedup book."""

import dataclasses
import itertools

import numpy as np
import pytest

from repro.config import DEFAULT_GROUP_BOUNDS_MS
from repro.core.speedup import (
    SpeedupBook,
    SpeedupProfile,
    demand_group,
)
from repro.errors import ConfigError
from repro.policies.ap import average_profile

from conftest import LONG_PROFILE, MID_PROFILE, SHORT_PROFILE


class TestSpeedupProfile:
    def test_degree_one_is_unity(self):
        assert LONG_PROFILE[1] == 1.0

    def test_indexing_is_one_based(self):
        assert LONG_PROFILE[6] == pytest.approx(4.1)
        with pytest.raises(IndexError):
            LONG_PROFILE[0]
        with pytest.raises(IndexError):
            LONG_PROFILE[7]

    def test_speedup_saturates_beyond_max_degree(self):
        assert LONG_PROFILE.speedup(10) == LONG_PROFILE.speedup(6)

    def test_rejects_s1_not_one(self):
        with pytest.raises(ConfigError):
            SpeedupProfile([2.0, 3.0])

    def test_rejects_decreasing(self):
        with pytest.raises(ConfigError):
            SpeedupProfile([1.0, 2.0, 1.5])

    def test_rejects_empty(self):
        with pytest.raises(ConfigError):
            SpeedupProfile([])

    def test_rejects_wildly_superlinear(self):
        with pytest.raises(ConfigError):
            SpeedupProfile([1.0, 30.0])

    def test_equality_and_hash(self):
        assert SpeedupProfile([1.0, 2.0]) == SpeedupProfile([1.0, 2.0])
        assert hash(SpeedupProfile([1.0, 2.0])) == hash(SpeedupProfile([1.0, 2.0]))
        assert SpeedupProfile([1.0, 2.0]) != SpeedupProfile([1.0, 1.5])


class TestDemandGroup:
    def test_paper_group_boundaries(self):
        assert demand_group(10.0) == 0  # short: < 30 ms
        assert demand_group(50.0) == 1  # mid: 30-80 ms
        assert demand_group(150.0) == 2  # long: > 80 ms

    def test_boundary_values_join_the_higher_group(self):
        assert demand_group(30.0) == 1
        assert demand_group(80.0) == 2
        assert demand_group(29.999) == 0
        assert demand_group(79.999) == 1

    def test_custom_bounds(self):
        assert demand_group(5.0, [10.0]) == 0
        assert demand_group(15.0, [10.0]) == 1


class TestSpeedupBook:
    def test_profile_lookup_by_demand(self, speedup_book):
        profiles = speedup_book.profiles
        assert profiles[speedup_book.group_of(10.0)] is SHORT_PROFILE
        assert profiles[speedup_book.group_of(50.0)] is MID_PROFILE
        assert profiles[speedup_book.group_of(150.0)] is LONG_PROFILE

    def test_group_count_and_bounds(self, speedup_book):
        assert speedup_book.num_groups == 3
        assert speedup_book.bounds_ms == DEFAULT_GROUP_BOUNDS_MS

    def test_rejects_profile_count_mismatch(self):
        with pytest.raises(ConfigError):
            SpeedupBook([SHORT_PROFILE, LONG_PROFILE])

    def test_rejects_mixed_max_degree(self):
        with pytest.raises(ConfigError):
            SpeedupBook(
                [SHORT_PROFILE, MID_PROFILE, SpeedupProfile([1.0, 2.0])]
            )

    def test_from_samples_averages_within_groups(self):
        demands = [10.0, 20.0, 100.0, 200.0]
        profiles = [
            SpeedupProfile([1.0, 1.0]),
            SpeedupProfile([1.0, 1.2]),
            SpeedupProfile([1.0, 1.8]),
            SpeedupProfile([1.0, 2.0]),
        ]
        book = SpeedupBook.from_samples(demands, profiles)
        assert book.profile_of_group(0).speedup(2) == pytest.approx(1.1)
        assert book.profile_of_group(2).speedup(2) == pytest.approx(1.9)

    def test_from_samples_empty_group_inherits_neighbour(self):
        book = SpeedupBook.from_samples(
            [10.0], [SpeedupProfile([1.0, 1.5])]
        )
        # mid and long groups had no samples; they inherit short's.
        assert book.profile_of_group(1).speedup(2) == pytest.approx(1.5)

    def test_from_samples_rejects_misaligned(self):
        with pytest.raises(ConfigError):
            SpeedupBook.from_samples([1.0, 2.0], [SpeedupProfile([1.0])])

    def test_group_bounds_give_each_group_its_measured_profile(
        self, tiny_workload_spec, tiny_search_workload
    ):
        """Section 4.6's group count is workload spec data: six groups
        each average their own samples, and one group is the
        workload-average profile AP uses."""

        def speedups(profile):
            return np.array([profile.speedup(d) for d in range(1, 7)])

        def book(bounds):
            spec = dataclasses.replace(
                tiny_workload_spec, group_bounds_ms=bounds
            )
            return spec.build().speedup_book

        six = book((15.0, 30.0, 55.0, 80.0, 160.0)).profiles
        six = [speedups(p) for p in six]
        assert len(six) == 6
        assert all(
            not np.array_equal(a, b) for a, b in itertools.combinations(six, 2)
        )
        one = book(()).profiles
        avg = average_profile(
            tiny_search_workload.speedup_book,
            list(tiny_search_workload.group_weights),
        )
        assert len(one) == 1
        np.testing.assert_allclose(
            speedups(one[0]), speedups(avg), rtol=0, atol=1e-12
        )
