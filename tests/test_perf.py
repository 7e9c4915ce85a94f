"""Tests for the perf benchmark harness (repro.perf)."""

import json
import shutil

import pytest

from repro.artifacts import write_json
from repro.errors import ConfigError
from repro.gate.bands import evaluate_measurement
from repro.gate.baselines import (
    default_baselines_path,
    load_baselines,
    merge_baselines,
    save_baselines,
)
from repro.perf import (
    HOTPATH_SEED,
    SCENARIOS,
    THROUGHPUT_REL_LO,
    build_report,
    run_scenario,
    scenario,
    throughput_measurements,
)
from repro.perf.runner import ScenarioRun, peak_rss_kb
from repro.perf.scenarios import (
    run_end_to_end_cell,
    run_engine_only,
    run_server_under_load,
)

#: Throughputs of the retired perf-harness baseline file, carried over into
#: the shared baseline store: no floor may sit below 70 % of these.
CARRIED_OVER_BASELINES = {
    "fast": {
        "end_to_end_cell": 622.2764773539755,
        "engine_only": 461823.2501670652,
        "server_under_load": 119123.97497302451,
    },
    "full": {
        "end_to_end_cell": 2253.0090247945955,
        "engine_only": 508427.6393497685,
        "server_under_load": 112536.21930608583,
    },
}


class TestScenarioRegistry:
    def test_registered_scenarios(self):
        assert set(SCENARIOS) == {
            "engine_only",
            "server_under_load",
            "tracing_overhead",
            "end_to_end_cell",
        }
        for spec in SCENARIOS.values():
            assert spec.fast_size < spec.full_size

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            scenario("warp_drive")


class TestScenarios:
    def test_engine_only_deterministic_and_compacting(self):
        a = run_engine_only(2_000)
        b = run_engine_only(2_000)
        assert a["events_run"] == b["events_run"] == 2_000
        assert a["compactions"] >= 1

    def test_server_under_load_matches_gate_benchmark(self):
        # The gate's perf_budget check imports this exact function, so
        # seed and event count must line up with the gate's pinning.
        from repro.gate.checks import GATE_SEED, run_hotpath_benchmark

        assert GATE_SEED == HOTPATH_SEED
        assert run_hotpath_benchmark is not None
        metrics = run_server_under_load(500)
        direct = run_hotpath_benchmark(500)
        assert metrics["events_run"] == float(direct.events_run)

    def test_server_under_load_event_count_deterministic(self):
        a = run_server_under_load(1_000)
        b = run_server_under_load(1_000)
        assert a["events_run"] == b["events_run"]

    def test_end_to_end_cell_splits_build_and_cell(self):
        metrics = run_end_to_end_cell(200)
        assert "sim_wall_time_s" not in metrics
        assert metrics["build_s"] > 0.0 and metrics["cell_s"] > 0.0
        assert metrics["wall_time_s"] == pytest.approx(
            metrics["build_s"] + metrics["cell_s"]
        )
        assert metrics["requests_per_s"] == 200 / metrics["wall_time_s"]


class TestRunner:
    def test_best_of_repeats(self):
        run = run_scenario(scenario("engine_only"), 1_000, repeats=3)
        assert run.repeats == 3
        assert len(run.all_wall_times_s) == 3
        assert run.metrics["wall_time_s"] == min(run.all_wall_times_s)
        assert run.peak_rss_kb > 0.0

    def test_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_scenario(scenario("engine_only"), 100, repeats=0)

    def test_profile_dump(self, tmp_path):
        prof = tmp_path / "engine.prof"
        run_scenario(
            scenario("engine_only"), 500, repeats=1, profile_path=str(prof)
        )
        import pstats

        stats = pstats.Stats(str(prof))
        assert stats.total_calls > 0

    def test_peak_rss_positive_on_linux(self):
        assert peak_rss_kb() > 0.0


def _judge(runs, baselines):
    return [
        evaluate_measurement(m, baselines)
        for m in throughput_measurements(runs)
    ]


class TestReportAndBaseline:
    def _runs(self):
        return [
            run_scenario(scenario("engine_only"), 1_000, repeats=1),
            run_scenario(scenario("server_under_load"), 300, repeats=1),
        ]

    def test_report_schema(self, tmp_path):
        runs = self._runs()
        report = build_report(runs, fast=True, evaluated=_judge(runs, {}))
        assert report["schema_version"] == 2
        assert report["generated_by"] == "repro.perf"
        assert report["mode"] == "fast"
        assert report["status"] == "pass"
        assert "python" not in report and "platform" not in report
        entry = report["scenarios"]["server_under_load"]
        assert entry["speedup_vs_pre_pr"] > 0.0
        assert entry["pre_pr_events_per_s"] > 0.0
        assert entry["peak_rss_kb"] > 0.0
        assert [m["metric"] for m in report["measurements"]] == [
            "perf.engine_only.events_per_s",
            "perf.server_under_load.events_per_s",
        ]
        out = write_json(report, tmp_path / "BENCH_perf.json")
        assert json.loads(out.read_text())["schema_version"] == 2

    def test_baseline_roundtrip_and_mode_isolation(self, tmp_path):
        path = tmp_path / "gate_baseline.json"
        assert load_baselines(path) == {}
        values = {
            m.metric: m.value for m in throughput_measurements(self._runs())
        }
        document = merge_baselines({}, "fast", values)
        document = merge_baselines(document, "full", values)
        save_baselines(document, path)
        assert set(load_baselines(path)["modes"]) == {"fast", "full"}
        # Updating one mode must not clobber the other.
        document = merge_baselines(load_baselines(path), "fast", values)
        save_baselines(document, path)
        assert set(load_baselines(path, mode="full")) == set(values)

    def test_no_regression_against_own_baseline(self):
        runs = self._runs()
        own = {m.metric: m.value for m in throughput_measurements(runs)}
        assert all(m.passed for m in _judge(runs, own))

    def test_regression_detected(self):
        runs = self._runs()
        doctored = {
            m.metric: m.value for m in throughput_measurements(runs)
        }
        doctored["perf.engine_only.events_per_s"] *= 100.0
        failures = [m for m in _judge(runs, doctored) if not m.passed]
        assert [m.metric for m in failures] == [
            "perf.engine_only.events_per_s"
        ]
        assert failures[0].lo == pytest.approx(
            THROUGHPUT_REL_LO * doctored["perf.engine_only.events_per_s"]
        )

    def test_missing_baseline_entries_skipped(self):
        # No stored baseline: the relative floor is skipped with a note.
        for m in _judge(self._runs(), {}):
            assert m.passed and m.lo is None
            assert "no baseline" in m.note

    def test_corrupt_baseline_rejected(self, tmp_path):
        from repro.perf.__main__ import main

        path = tmp_path / "gate_baseline.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            main(_cli_args(tmp_path, path))


class TestSharedStore:
    @pytest.mark.parametrize("mode", ["fast", "full"])
    def test_floors_not_lowered(self, mode):
        """Every carried-over throughput floor is 0.70 x its old value."""
        baselines = load_baselines(mode=mode)
        for name, old in CARRIED_OVER_BASELINES[mode].items():
            spec = SCENARIOS[name]
            run = ScenarioRun(
                name=name,
                size=spec.size_for(mode == "fast"),
                repeats=3,
                metrics={spec.throughput_key: 0.0},
                peak_rss_kb=0.0,
            )
            (judged,) = _judge([run], baselines)
            assert judged.metric == f"perf.{name}.{spec.throughput_key}"
            assert judged.lo == pytest.approx(0.70 * old, rel=1e-9)
        # tracing_overhead stays ungated: it has no stored baseline.
        assert not any(k.startswith("perf.tracing_overhead.") for k in baselines)


def _cli_args(tmp_path, baselines):
    return [
        "--fast",
        "--only",
        "engine_only",
        "--repeats",
        "1",
        "--output",
        str(tmp_path / "BENCH_perf.json"),
        "--baselines",
        str(baselines),
    ]


class TestCli:
    def test_cli_smoke_update_and_gate(self, tmp_path):
        from repro.perf.__main__ import main

        baselines = tmp_path / "gate_baseline.json"
        args = _cli_args(tmp_path, baselines)
        assert main(args + ["--update-baselines"]) == 0
        assert "perf.engine_only.events_per_s" in load_baselines(
            baselines, mode="fast"
        )
        assert main(args) == 0
        report = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert "engine_only" in report["scenarios"]
        assert report["status"] == "pass"

    def test_cli_fails_on_regression(self, tmp_path, capsys):
        """A doctored copy of the shipped baselines fails the run."""
        from repro.perf.__main__ import main

        baselines = tmp_path / "gate_baseline.json"
        shutil.copy(default_baselines_path(), baselines)
        doc = load_baselines(baselines)
        doc["modes"]["fast"]["perf.engine_only.events_per_s"] *= 100.0
        save_baselines(doc, baselines)
        assert main(_cli_args(tmp_path, baselines)) == 1
        assert "perf.engine_only.events_per_s" in capsys.readouterr().err

    def test_cli_update_keeps_gate_baselines(self, tmp_path):
        from repro.perf.__main__ import main

        baselines = tmp_path / "gate_baseline.json"
        shutil.copy(default_baselines_path(), baselines)
        before = load_baselines(baselines)["modes"]
        args = _cli_args(tmp_path, baselines) + ["--update-baselines"]
        assert main(args) == 0
        after = load_baselines(baselines)["modes"]
        for mode, metrics in before.items():
            assert set(metrics) <= set(after[mode])
            for metric, value in metrics.items():
                if metric != "perf.engine_only.events_per_s":
                    assert after[mode][metric] == value
