"""Tests for seeded RNG streams."""

import numpy as np
import pytest

from repro.rng import RngFactory, stream


class TestRngFactory:
    def test_same_stream_is_reproducible(self):
        rngs = RngFactory(42)
        a = rngs.get("arrivals").random(10)
        b = rngs.get("arrivals").random(10)
        np.testing.assert_array_equal(a, b)

    def test_different_streams_differ(self):
        rngs = RngFactory(42)
        a = rngs.get("arrivals").random(10)
        b = rngs.get("corpus").random(10)
        assert not np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = RngFactory(1).get("x").random(10)
        b = RngFactory(2).get("x").random(10)
        assert not np.array_equal(a, b)

    def test_stream_shorthand_matches_factory(self):
        a = stream(7, "foo").random(5)
        b = RngFactory(7).get("foo").random(5)
        np.testing.assert_array_equal(a, b)

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(-1)

    def test_empty_stream_name_rejected(self):
        with pytest.raises(ValueError):
            RngFactory(0).get("")

    def test_root_seed_property(self):
        assert RngFactory(9).root_seed == 9
