"""Tests for the search-workload disk cache and report formatting."""

import os
import stat

import numpy as np
import pytest

from repro.config import PredictorConfig, SearchWorkloadConfig
from repro.experiments.report import format_table
from repro.rng import RngFactory
from repro.search import build_search_workload
from repro.search.workload import _measured_pool


@pytest.fixture()
def tiny_cfg():
    return SearchWorkloadConfig(
        num_documents=800, vocabulary_size=500, mean_doc_length=60
    )


@pytest.fixture()
def fast_predictor():
    return PredictorConfig(num_trees=10, max_depth=2)


class TestDiskCache:
    def test_cache_roundtrip_identical(self, tiny_cfg, fast_predictor,
                                       tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        first = build_search_workload(
            seed=3, config=tiny_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=True,
        )
        cached_files = list(tmp_path.glob("search-pool-*.npz"))
        assert len(cached_files) == 1
        second = build_search_workload(
            seed=3, config=tiny_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=True,
        )
        np.testing.assert_array_equal(
            first.pool_demands_ms, second.pool_demands_ms
        )
        np.testing.assert_array_equal(
            first.pool_predictions_ms, second.pool_predictions_ms
        )

    def test_cache_key_distinguishes_configs(self, tiny_cfg, fast_predictor,
                                             tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build_search_workload(
            seed=3, config=tiny_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=True,
        )
        other_cfg = SearchWorkloadConfig(
            num_documents=800, vocabulary_size=500, mean_doc_length=60,
            hard_query_fraction=0.2,
        )
        build_search_workload(
            seed=3, config=other_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=True,
        )
        assert len(list(tmp_path.glob("search-pool-*.npz"))) == 2

    def test_nested_writer_does_not_steal_the_temp_file(
        self, tiny_cfg, tmp_path, monkeypatch
    ):
        # Two processes filling one entry on a cold cache: the second
        # writer runs to completion while the first is still writing.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        real_save = np.savez_compressed
        raced = []

        def save_then_race(file, *args, **kwargs):
            real_save(file, *args, **kwargs)
            if not raced:
                raced.append(None)
                raced[0] = _measured_pool(
                    3, tiny_cfg, 300, True, RngFactory(3)
                )

        monkeypatch.setattr(np, "savez_compressed", save_then_race)
        umask = os.umask(0o022)
        try:
            units, features = _measured_pool(
                3, tiny_cfg, 300, True, RngFactory(3)
            )
        finally:
            os.umask(umask)
        assert len(raced) == 1
        entries = list(tmp_path.iterdir())
        assert [p.name for p in entries] == [
            p.name for p in tmp_path.glob("search-pool-*.npz")
        ]
        assert len(entries) == 1
        # The umask mode, as a plain open gives, not an owner-only 0600.
        assert stat.S_IMODE(entries[0].stat().st_mode) == 0o644
        data = np.load(entries[0])
        np.testing.assert_array_equal(data["units"], units)
        np.testing.assert_array_equal(data["features"], features)
        np.testing.assert_array_equal(raced[0][0], units)

    def test_writer_leaves_the_umask_alone(self, tiny_cfg, tmp_path, monkeypatch):
        # Reading the umask means setting it process-wide, which races
        # with other threads' file creation; the kernel applies it.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        real_umask = os.umask

        def no_umask(mask):
            raise AssertionError("the pool-cache writer set the umask")

        previous = real_umask(0o027)
        monkeypatch.setattr(os, "umask", no_umask)
        try:
            units, _ = _measured_pool(3, tiny_cfg, 300, True, RngFactory(3))
        finally:
            real_umask(previous)
        entries = list(tmp_path.iterdir())
        assert [p.name for p in entries] == [
            p.name for p in tmp_path.glob("search-pool-*.npz")
        ]
        assert stat.S_IMODE(entries[0].stat().st_mode) == 0o640
        np.testing.assert_array_equal(np.load(entries[0])["units"], units)

    def test_use_cache_false_writes_nothing(self, tiny_cfg, fast_predictor,
                                            tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        build_search_workload(
            seed=3, config=tiny_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=False,
        )
        assert not list(tmp_path.glob("*.npz"))

    def test_matches_uncached_build(self, tiny_cfg, fast_predictor,
                                    tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cached = build_search_workload(
            seed=5, config=tiny_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=True,
        )
        uncached = build_search_workload(
            seed=5, config=tiny_cfg, predictor_config=fast_predictor,
            pool_size=300, use_cache=False,
        )
        np.testing.assert_allclose(
            cached.pool_demands_ms, uncached.pool_demands_ms
        )


class TestReportFormatting:
    def test_nan_rendered_as_dash(self):
        text = format_table(["a"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_small_floats_keep_precision(self):
        text = format_table(["x"], [[0.042]])
        assert "0.042" in text

    def test_large_floats_one_decimal(self):
        text = format_table(["x"], [[123.456]])
        assert "123.5" in text

    def test_empty_rows_allowed(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text
