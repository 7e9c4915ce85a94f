"""Tests for predictive-parallelism degree selection (Section 3.1)."""

import pytest

from repro.core.predictive import select_degree

from conftest import LONG_PROFILE, SHORT_PROFILE


class TestSelectDegree:
    def test_short_request_runs_sequentially(self):
        # Predicted time already below target -> degree 1.
        assert select_degree(10.0, 50.0, LONG_PROFILE) == 1

    def test_boundary_exactly_at_target_is_sequential(self):
        assert select_degree(50.0, 50.0, LONG_PROFILE) == 1

    def test_minimal_degree_meeting_target(self):
        # L = 100, E = 50: need speedup >= 2 -> degree 3 (S3 = 2.5).
        assert select_degree(100.0, 50.0, LONG_PROFILE) == 3

    def test_never_overshoots_with_extra_threads(self):
        # Degree 4 would also meet the target but wastes a thread.
        degree = select_degree(100.0, 50.0, LONG_PROFILE)
        assert 100.0 / LONG_PROFILE.speedup(degree) <= 50.0
        assert 100.0 / LONG_PROFILE.speedup(degree - 1) > 50.0

    def test_unattainable_target_uses_max_degree(self):
        # L = 400, E = 50: even S6 = 4.1 gives 97 ms -> use max.
        assert select_degree(400.0, 50.0, LONG_PROFILE) == 6

    def test_max_degree_cap_respected(self):
        assert select_degree(400.0, 50.0, LONG_PROFILE, max_degree=4) == 4

    def test_poor_profile_saturates_early(self):
        # Short-profile speedups barely move; an unattainable target
        # still climbs to the cap.
        assert select_degree(100.0, 50.0, SHORT_PROFILE) == 6

    def test_degree_monotone_in_predicted_time(self):
        degrees = [
            select_degree(L, 50.0, LONG_PROFILE)
            for L in (10, 40, 60, 90, 130, 200, 500)
        ]
        assert all(b >= a for a, b in zip(degrees, degrees[1:]))

    def test_degree_antimonotone_in_target(self):
        degrees = [
            select_degree(120.0, E, LONG_PROFILE)
            for E in (20, 40, 60, 80, 130)
        ]
        assert all(b <= a for a, b in zip(degrees, degrees[1:]))

    def test_rejects_bad_cap(self):
        with pytest.raises(ValueError):
            select_degree(100.0, 50.0, LONG_PROFILE, max_degree=0)
