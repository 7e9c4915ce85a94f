"""Tests for time-varying arrival processes."""

import numpy as np
import pytest

from repro.errors import WorkloadError
from repro.sim.arrivals import RateProfile, nonhomogeneous_arrival_times


def diurnal_profile(
    low_qps: float, high_qps: float, segments: int = 8,
    segment_ms: float = 5_000.0,
) -> RateProfile:
    """A smooth low-high-low cycle approximating a diurnal load curve."""
    if segments < 2:
        raise WorkloadError("need at least 2 segments")
    phases = np.linspace(0, np.pi, segments)
    rates = low_qps + (high_qps - low_qps) * np.sin(phases) ** 2
    rates = np.maximum(rates, min(low_qps, high_qps))
    return RateProfile(tuple(float(r) for r in rates), segment_ms)


class TestRateProfile:
    def test_rate_lookup_cycles(self):
        profile = RateProfile((100.0, 300.0), segment_ms=1000.0)
        assert profile.rate_at(0.0) == 100.0
        assert profile.rate_at(1500.0) == 300.0
        assert profile.rate_at(2500.0) == 100.0  # wrapped

    def test_peak_and_mean(self):
        profile = RateProfile((100.0, 300.0), 1000.0)
        assert profile.peak_qps == 300.0
        # Equal-length segments: the cycle's time-average rate.
        assert np.mean([profile.rate_at(t) for t in (0.0, 1000.0)]) == 200.0

    def test_guards(self):
        with pytest.raises(WorkloadError):
            RateProfile((), 1000.0)
        with pytest.raises(WorkloadError):
            RateProfile((0.0,), 1000.0)
        with pytest.raises(WorkloadError):
            RateProfile((100.0,), 0.0)
        with pytest.raises(WorkloadError):
            RateProfile((100.0,), 10.0).rate_at(-1.0)


class TestDiurnalProfile:
    def test_low_high_low_shape(self):
        profile = diurnal_profile(100.0, 500.0, segments=8)
        rates = profile.rates_qps
        assert rates[0] == pytest.approx(100.0, rel=0.01)
        assert max(rates) == pytest.approx(500.0, rel=0.05)
        mid = len(rates) // 2
        assert rates[mid] > rates[0]
        assert rates[mid] > rates[-1]

    def test_rejects_too_few_segments(self):
        with pytest.raises(WorkloadError):
            diurnal_profile(100.0, 200.0, segments=1)


class TestNonhomogeneousArrivals:
    def test_times_increasing_and_sized(self):
        profile = RateProfile((200.0, 400.0), 500.0)
        times = nonhomogeneous_arrival_times(
            500, profile, np.random.default_rng(0)
        )
        assert len(times) == 500
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_rate_modulation_visible(self):
        """Twice as many arrivals land in the high-rate segments."""
        profile = RateProfile((100.0, 300.0), segment_ms=1000.0)
        times = nonhomogeneous_arrival_times(
            20_000, profile, np.random.default_rng(1)
        )
        in_high = ((times % 2000.0) >= 1000.0).mean()
        assert in_high == pytest.approx(0.75, abs=0.02)  # 300/(100+300)

    def test_constant_profile_matches_homogeneous_rate(self):
        profile = RateProfile((250.0,), 1000.0)
        times = nonhomogeneous_arrival_times(
            20_000, profile, np.random.default_rng(2)
        )
        mean_gap = float(np.diff(times).mean())
        assert mean_gap == pytest.approx(4.0, rel=0.05)

    def test_rejects_zero_count(self):
        profile = RateProfile((100.0,), 1000.0)
        with pytest.raises(WorkloadError):
            nonhomogeneous_arrival_times(0, profile, np.random.default_rng(0))
