"""Tests for the repro.exec execution layer (specs, pool, cache).

The load-bearing properties:

* specs are frozen, picklable values with stable content hashes, and
  any field change produces a new hash (cache invalidation);
* a parallel sweep is bit-identical to the serial one — parallelism
  changes wall-clock time, never numbers;
* a fully cached re-run performs zero simulation work.
"""

from __future__ import annotations

import dataclasses
import gc
import math
import pickle

import numpy as np
import pytest

from repro.config import (
    ClusterConfig,
    PolicyConfig,
    PredictorConfig,
    SearchWorkloadConfig,
    TargetTableConfig,
)
from repro.core.target_table import TargetTable
from repro.errors import ConfigError
from repro.exec import (
    CellSpec,
    ResultCache,
    SweepSpec,
    WorkloadSpec,
    default_cache,
    resolve_worker_count,
    run_cell,
    run_sweep,
)
from repro.exec import pool as pool_mod
from repro.exec.cache import cache_dir
from repro.experiments.runner import make_measure_tail_batch
from repro.experiments.scenarios import TINY_TARGET_TABLE, TINY_WORKLOAD_SPEC
from repro.rng import RngFactory
from repro.search.workload import _measured_pool, _pool_path
from repro.sim.server import Server


def tiny_workload_spec() -> WorkloadSpec:
    """Recipe identical to the ``tiny_search_workload`` fixture."""
    return dataclasses.replace(TINY_WORKLOAD_SPEC, use_workload_cache=False)


def tiny_cell(policy: str = "TPC", qps: float = 300.0, **kwargs) -> CellSpec:
    return CellSpec.for_experiment(
        tiny_workload_spec(), policy, qps, n_requests=200, seed=5,
        target_table=TINY_TARGET_TABLE, **kwargs,
    )


@pytest.fixture(scope="module")
def small_sweep() -> SweepSpec:
    return SweepSpec.grid(
        tiny_workload_spec(), ["TPC", "AP"], [250.0, 450.0],
        n_requests=200, seed=7, target_table=TINY_TARGET_TABLE,
    )


@pytest.fixture(scope="module")
def serial_results(small_sweep):
    """The reference: every cell executed inline in this process."""
    return run_sweep(small_sweep, workers=1)


@pytest.fixture(scope="module")
def parallel_run(small_sweep):
    """The same sweep over a 2-worker process pool, with progress."""
    events = []
    results = run_sweep(small_sweep, workers=2, progress=events.append)
    return results, events


class TestSpecHash:
    def test_hash_is_stable_across_instances(self):
        assert tiny_cell().content_hash == tiny_cell().content_hash

    def test_every_field_change_changes_the_hash(self):
        base = tiny_cell()
        variants = [
            tiny_cell(qps=301.0),
            tiny_cell(policy="AP"),
            dataclasses.replace(base, seed=6),
            dataclasses.replace(base, n_requests=201),
            dataclasses.replace(base, target_entries=((0.0, 41.0),)),
            dataclasses.replace(base, oracle_sigma=0.1),
            dataclasses.replace(
                base, workload=WorkloadSpec.search(
                    seed=12, config=TINY_WORKLOAD_SPEC.search_config
                )
            ),
            dataclasses.replace(
                base, policy_config=PolicyConfig(correction_delay_factor=1.5)
            ),
            dataclasses.replace(
                base,
                workload=dataclasses.replace(base.workload, group_bounds_ms=()),
            ),
        ]
        hashes = {base.content_hash} | {v.content_hash for v in variants}
        assert len(hashes) == len(variants) + 1

    def test_omitted_configs_normalise_to_defaults(self):
        # Two specs that build identical workloads hash identically,
        # whether the default configs are spelled out or omitted.
        a = WorkloadSpec.search(seed=1)
        b = WorkloadSpec.search(
            seed=1,
            config=SearchWorkloadConfig(),
            predictor_config=PredictorConfig(),
        )
        assert a.content_hash == b.content_hash

    def test_config_constants_are_hashed(self, monkeypatch):
        # A fixed number of repro.config parameterises cells and search
        # pools as a field default does, so both keys must cover it.
        from repro import config

        cell = CellSpec.for_experiment(
            WorkloadSpec.search(seed=1), "Sequential", 300.0, 200, seed=5
        )
        search = SearchWorkloadConfig()
        before = (cell.content_hash, _pool_path(1, search, 12_000))
        monkeypatch.setattr(config, "ZIPF_EXPONENT", 1.2)
        after = (cell.content_hash, _pool_path(1, search, 12_000))
        assert after[0] != before[0]
        assert after[1] != before[1]

    def test_source_is_hashed(self, monkeypatch):
        # Results computed by other code must not be served: a changed
        # package source moves the cell key and the search-pool key.
        from repro.exec import spec as spec_mod

        cell = CellSpec.for_experiment(
            WorkloadSpec.search(seed=1), "Sequential", 300.0, 200, seed=5
        )
        search = SearchWorkloadConfig()
        before = (cell.content_hash, _pool_path(1, search, 12_000))
        assert len(spec_mod._source_digest()) == 64
        monkeypatch.setattr(spec_mod, "_source_digest", lambda: "0" * 64)
        after = (cell.content_hash, _pool_path(1, search, 12_000))
        assert after[0] != before[0]
        assert after[1] != before[1]

    def test_sweep_hash_covers_all_cells(self, small_sweep):
        reordered = SweepSpec(tuple(reversed(small_sweep.cells)))
        assert reordered.content_hash != small_sweep.content_hash

    def test_invalid_specs_rejected(self):
        with pytest.raises(ConfigError):
            WorkloadSpec(kind="bogus")
        with pytest.raises(ConfigError):
            tiny_cell(qps=0.0)
        with pytest.raises(ConfigError):
            CellSpec.for_experiment(
                tiny_workload_spec(), "TPC", 100.0, n_requests=0, seed=1
            )
        with pytest.raises(ConfigError):
            SweepSpec(())

    def test_prediction_fields_validated_up_front(self):
        # Each of these used to pass CellSpec and then fail at run time
        # or, for the cluster cell, be silently ignored.
        cluster = ClusterConfig(num_isns=2)
        with pytest.raises(ConfigError, match="prediction mode"):
            tiny_cell(prediction="bogus")
        for sigma in (-1.0, math.nan, math.inf):
            with pytest.raises(ConfigError, match="oracle_sigma"):
                tiny_cell(prediction="oracle", oracle_sigma=sigma)
        with pytest.raises(ConfigError, match="oracle_sigma"):
            tiny_cell(
                prediction="oracle", oracle_sigma=1.5, cluster_config=cluster
            )
        # The valid neighbours of each rejected spec still construct.
        tiny_cell(prediction="oracle", oracle_sigma=1.5)
        tiny_cell(prediction="oracle", cluster_config=cluster)


class TestPickleRoundTrip:
    def test_cell_spec(self):
        spec = tiny_cell()
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.content_hash == spec.content_hash
        assert clone.target_table.entries == TINY_TARGET_TABLE.entries

    def test_sweep_spec(self, small_sweep):
        clone = pickle.loads(pickle.dumps(small_sweep))
        assert clone == small_sweep
        assert len(clone) == 4


class TestFromWorkload:
    def test_search_provenance_round_trips(self, tiny_search_workload):
        spec = WorkloadSpec.from_workload(tiny_search_workload)
        assert spec == tiny_workload_spec()

    def test_finance_round_trips(self, finance_workload):
        spec = WorkloadSpec.from_workload(finance_workload)
        assert spec == WorkloadSpec.finance()

    def test_hand_assembled_workload_has_no_spec(self, tiny_search_workload):
        bare = dataclasses.replace(tiny_search_workload, provenance=None)
        assert WorkloadSpec.from_workload(bare) is None


class TestResolveWorkerCount:
    def test_explicit_argument_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "7")
        assert resolve_worker_count(3) == 3

    def test_env_var_used_when_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "5")
        assert resolve_worker_count(None) == 5

    def test_default_is_at_least_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_BENCH_WORKERS", raising=False)
        assert resolve_worker_count(None) >= 1

    def test_nonpositive_counts_rejected(self, monkeypatch):
        with pytest.raises(ConfigError):
            resolve_worker_count(0)
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "-1")
        with pytest.raises(ConfigError):
            resolve_worker_count(None)

    def test_empty_env_var_counts_as_unset(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "")
        assert resolve_worker_count(None) >= 1

    def test_non_integer_env_var_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_WORKERS", "two")
        with pytest.raises(ConfigError, match="REPRO_BENCH_WORKERS"):
            resolve_worker_count(None)


class TestRunSweep:
    def test_results_arrive_in_spec_order(self, small_sweep, serial_results):
        assert len(serial_results) == len(small_sweep)
        for spec, result in zip(small_sweep, serial_results):
            assert result.spec_hash == spec.content_hash
            assert result.policy_name == spec.policy_name
            assert result.qps == spec.qps
            assert len(result.responses_ms) == spec.n_requests

    def test_parallel_is_bit_identical_to_serial(
        self, serial_results, parallel_run
    ):
        parallel, _ = parallel_run
        for s, p in zip(serial_results, parallel):
            assert s.summary == p.summary
            np.testing.assert_array_equal(s.responses_ms, p.responses_ms)
            np.testing.assert_array_equal(s.queueing_ms, p.queueing_ms)
            np.testing.assert_array_equal(s.executions_ms, p.executions_ms)
            np.testing.assert_array_equal(s.demands_ms, p.demands_ms)
            np.testing.assert_array_equal(s.predictions_ms, p.predictions_ms)
            np.testing.assert_array_equal(s.initial_degrees, p.initial_degrees)
            np.testing.assert_array_equal(s.max_degrees, p.max_degrees)
            np.testing.assert_array_equal(s.corrected, p.corrected)

    def test_cell_frees_its_server_without_the_cycle_collector(self):
        # A finished cell's servers, engine handles and recorders must go
        # when the cell returns, not at the next full collection: a
        # sweep of 20 000-request cells otherwise holds ~4 MB per cell.
        # A cluster cell also frees its aggregator's per-query sets.
        cluster = tiny_cell(cluster_config=ClusterConfig(num_isns=8))
        for spec in (tiny_cell(), cluster):
            pool_mod._execute_cell(spec)  # build the workload first
            gc.collect()
            gc.disable()
            gc.set_debug(gc.DEBUG_SAVEALL)
            try:
                pool_mod._execute_cell(spec)
                gc.collect()
                cyclic = {type(obj).__name__ for obj in gc.garbage}
            finally:
                gc.set_debug(0)
                gc.garbage.clear()
                gc.enable()
            leaked = {
                "Server",
                "LatencyRecorder",
                "TPCPolicy",
                "Aggregator",
                "set",
                "Engine",
                "EventHandle",
            }
            assert not cyclic & leaked, spec.cluster_config

    def test_progress_fires_once_per_cell(self, small_sweep, parallel_run):
        _, events = parallel_run
        assert [e.completed for e in events] == [1, 2, 3, 4]
        assert all(e.total == len(small_sweep) for e in events)
        assert all(not e.from_cache for e in events)
        assert all(e.wall_time_s > 0.0 for e in events)
        assert {e.spec for e in events} == set(small_sweep.cells)


class CellEntries:
    """Cell results, computed through a ResultCache."""

    # A pickle protocol newer than this interpreter's, and a pickle
    # naming a module that no longer exists.
    corrupt = (b"not a pickle", b"\x80\xff", b"cnosuchmodule_xyz\nThing\n.")
    dump = (pickle, "dump")

    def __init__(self, spec: CellSpec, result) -> None:
        self.spec = spec
        self.expected = result.responses_ms

    def path(self, directory):
        return ResultCache(directory).path_for(self.spec)

    def compute(self, directory):
        return run_cell(self.spec, cache=ResultCache(directory)).responses_ms

    def stored(self, directory):
        return ResultCache(directory).get(self.spec).responses_ms


class PoolEntries:
    """Metered search pools, computed through the workload build."""

    SEED, POOL = 3, 300
    CONFIG = SearchWorkloadConfig(
        num_documents=800, vocabulary_size=500, mean_doc_length=60
    )
    corrupt = (b"not a zip", b"PK\x03\x04")
    dump = (np, "savez_compressed")

    def __init__(self, monkeypatch) -> None:
        self.monkeypatch = monkeypatch
        self.expected = self._measure(False)

    def _measure(self, use_cache: bool):
        # Work units and features, side by side.
        return np.column_stack(
            _measured_pool(
                self.SEED, self.CONFIG, self.POOL, use_cache,
                RngFactory(self.SEED),
            )
        )

    def path(self, directory):
        self.monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
        return _pool_path(self.SEED, self.CONFIG, self.POOL)

    def compute(self, directory):
        self.monkeypatch.setenv("REPRO_CACHE_DIR", str(directory))
        return self._measure(True)

    def stored(self, directory):
        with np.load(self.path(directory), allow_pickle=False) as data:
            return np.column_stack((data["units"], data["features"]))


@pytest.fixture(params=["cell", "pool"])
def entries(request, small_sweep, serial_results, monkeypatch):
    """Each kind of cache entry, with how to compute and read it."""
    if request.param == "cell":
        return CellEntries(small_sweep.cells[0], serial_results[0])
    return PoolEntries(monkeypatch)


class TestResultCache:
    def test_miss_then_hit(self, tmp_path, small_sweep, serial_results):
        cache = ResultCache(tmp_path)
        spec = small_sweep.cells[0]
        assert cache.get(spec) is None
        assert cache.misses == 1
        cache.put(spec, serial_results[0])
        hit = cache.get(spec)
        assert hit is not None
        assert cache.hits == 1
        np.testing.assert_array_equal(
            hit.responses_ms, serial_results[0].responses_ms
        )

    def test_spec_change_invalidates(self, tmp_path, small_sweep,
                                     serial_results):
        cache = ResultCache(tmp_path)
        spec = small_sweep.cells[0]
        cache.put(spec, serial_results[0])
        changed = dataclasses.replace(spec, seed=spec.seed + 1)
        assert cache.get(changed) is None

    def test_unwritable_directory_does_not_lose_results(
        self, entries, tmp_path
    ):
        # A cache directory that cannot exist (beneath a regular file):
        # reads miss, writes fail, and the work still comes back.
        blocker = tmp_path / "file"
        blocker.write_bytes(b"")
        directory = blocker / "cache"
        assert entries.path(directory).parent == directory
        np.testing.assert_array_equal(
            entries.compute(directory), entries.expected
        )
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_bytes() == b""

    def test_corrupt_entry_degrades_to_miss(self, entries, tmp_path):
        # A damaged entry is a miss: the work is redone, returns the
        # same numbers and rewrites the entry.
        entries.compute(tmp_path)
        path = entries.path(tmp_path)
        valid = path.read_bytes()
        for payload in (b"", valid[: len(valid) // 2], *entries.corrupt):
            path.write_bytes(payload)
            np.testing.assert_array_equal(
                entries.compute(tmp_path), entries.expected
            )
            np.testing.assert_array_equal(
                entries.stored(tmp_path), entries.expected
            )
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_failed_write_leaves_no_temp_file(
        self, entries, tmp_path, monkeypatch
    ):
        # The disk fills mid-dump: the partial temp file is removed,
        # no entry appears, and the work still comes back.
        def half_written(*args, **kwargs):
            fh = next(a for a in args if hasattr(a, "write"))
            fh.write(b"partial")
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(*entries.dump, half_written)
        np.testing.assert_array_equal(
            entries.compute(tmp_path), entries.expected
        )
        assert list(tmp_path.iterdir()) == []

    def test_cached_rerun_does_zero_simulation_work(
        self, tmp_path, small_sweep, serial_results, monkeypatch
    ):
        cache = ResultCache(tmp_path)
        for spec, result in zip(small_sweep, serial_results):
            cache.put(spec, result)

        def boom(spec):
            raise AssertionError("simulation ran despite a full cache")

        monkeypatch.setattr(pool_mod, "_execute_cell", boom)
        events = []
        cached = run_sweep(
            small_sweep, workers=2, cache=cache, progress=events.append
        )
        assert all(e.from_cache for e in events)
        assert all(e.wall_time_s == 0.0 for e in events)
        assert cache.hits == len(small_sweep)
        for s, c in zip(serial_results, cached):
            assert s.summary == c.summary
            np.testing.assert_array_equal(s.responses_ms, c.responses_ms)

    def test_run_cell_consults_cache(self, tmp_path, small_sweep,
                                     serial_results, monkeypatch):
        cache = ResultCache(tmp_path)
        calls = []

        def fake_execute(spec):
            calls.append(spec)
            return pickle.loads(pickle.dumps(serial_results[0]))

        monkeypatch.setattr(pool_mod, "_execute_cell", fake_execute)
        spec = small_sweep.cells[0]
        run_cell(spec, cache=cache)
        run_cell(spec, cache=cache)
        assert len(calls) == 1

    def test_clear_removes_entries(self, tmp_path, small_sweep,
                                   serial_results):
        cache = ResultCache(tmp_path)
        cache.put(small_sweep.cells[0], serial_results[0])
        cache.put(small_sweep.cells[1], serial_results[1])
        assert cache.clear() == 2
        assert cache.get(small_sweep.cells[0]) is None

    def test_default_cache_is_opt_in(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_EXEC_CACHE", raising=False)
        assert default_cache() is None
        monkeypatch.setenv("REPRO_EXEC_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = default_cache()
        assert cache is not None
        assert cache.directory == tmp_path

    @pytest.mark.parametrize("value", ["", "  "])
    def test_empty_cache_dir_counts_as_unset(self, tmp_path, monkeypatch, value):
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.setenv("REPRO_CACHE_DIR", value)
        assert cache_dir() == tmp_path / ".cache" / "repro-tpc"


class TestOmittedCache:
    """An omitted ``cache`` is decided once, in ``run_sweep``: the
    environment's cache, which forwarders such as MeasureTail pass
    through; an explicit ``None`` is always a cold run."""

    CONFIG = TargetTableConfig(
        measure_loads_qps=(150.0, 300.0),
        measure_weights=(1.0, 1.0),
        queries_per_measurement=200,
    )

    def measure(self, workload, **kwargs):
        batch = make_measure_tail_batch(
            workload, self.CONFIG, seed=3, workers=1, **kwargs
        )
        return batch([TINY_TARGET_TABLE, TargetTable.constant(40.0)])

    def test_measure_tail_rerun_is_served_from_the_env_cache(
        self, tiny_search_workload, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXEC_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cold = self.measure(tiny_search_workload)
        entries = sorted(tmp_path.glob("cell-*.pkl"))
        assert len(entries) == 4  # 2 tables x 2 measure loads

        lookups = []
        get = ResultCache.get

        def counting_get(cache, spec):
            hit = get(cache, spec)
            lookups.append(hit is not None)
            return hit

        def no_simulation(server, *args, **kwargs):
            raise AssertionError("a fully cached re-run simulated a cell")

        monkeypatch.setattr(ResultCache, "get", counting_get)
        monkeypatch.setattr(Server, "run_to_completion", no_simulation)
        assert self.measure(tiny_search_workload) == cold
        assert lookups == [True] * 4
        assert sorted(tmp_path.glob("cell-*.pkl")) == entries

    def test_omitted_cache_writes_nothing_without_the_variable(
        self, tiny_search_workload, tmp_path, monkeypatch
    ):
        monkeypatch.delenv("REPRO_EXEC_CACHE", raising=False)
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self.measure(tiny_search_workload)
        assert not any(tmp_path.iterdir())

    def test_explicit_none_writes_nothing_with_the_variable_set(
        self, tiny_search_workload, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_EXEC_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        self.measure(tiny_search_workload, cache=None)
        assert not any(tmp_path.iterdir())
