"""Tests for the perf scenarios (repro.perf) and the gate's timed perf check."""

import json
import shutil
from dataclasses import replace

import pytest

from repro.gate import checks
from repro.gate.__main__ import main as gate_main
from repro.gate.bands import evaluate_measurement
from repro.gate.baselines import (
    default_baselines_path,
    load_baselines,
    merge_baselines,
    save_baselines,
)
from repro.gate.checks import CHECKS, THROUGHPUT_REL_LO, scale_for_mode
from repro.gate.runner import GateContext
from repro.perf import HOTPATH_SEED, SCENARIOS
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


def _scenarios(monkeypatch, sizes, repeats=1):
    """Restrict the perf check to ``{name: fast size}``, ``repeats`` each."""
    monkeypatch.setattr(
        checks,
        "SCENARIOS",
        {
            name: replace(SCENARIOS[name], fast_size=size)
            for name, size in sizes.items()
        },
    )
    monkeypatch.setattr(checks, "REPEATS", repeats)


def _measure(mode="fast"):
    """The perf check's measurements, unjudged."""
    return CHECKS["perf"].evaluate(GateContext(scale_for_mode(mode), {}))


def _throughputs(measurements):
    return {m.metric: m.value for m in measurements if m.baseline_key}


def _judge(measurements, baselines):
    return [
        evaluate_measurement(m, baselines)
        for m in measurements
        if m.band is not None
    ]


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
        assert checks.SCENARIOS is SCENARIOS
        assert [name for name, c in CHECKS.items() if c.timed] == ["perf"]

    def test_unknown_scenario_rejected(self, tmp_path, capsys):
        # Scenarios are not gate checks: only ``--only perf`` runs them.
        args = ["--only", "engine_only", "--output", str(tmp_path / "g.json")]
        assert gate_main(args) == 2
        assert "gate error:" in capsys.readouterr().err


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
    def test_best_of_repeats(self, monkeypatch):
        runs = []

        def recording(size, seed):
            metrics = run_engine_only(size, seed)
            runs.append(metrics)
            return metrics

        _scenarios(monkeypatch, {"engine_only": 1_000}, repeats=3)
        spec = replace(checks.SCENARIOS["engine_only"], runner=recording)
        monkeypatch.setitem(checks.SCENARIOS, "engine_only", spec)
        recorded = {m.metric: m.value for m in _measure()}
        assert len(runs) == 3
        best = min(runs, key=lambda metrics: metrics["wall_time_s"])
        assert recorded["perf.engine_only.wall_time_s"] == best["wall_time_s"]
        assert recorded["perf.engine_only.events_per_s"] == best["events_per_s"]
        assert recorded["perf.engine_only.compactions"] == best["compactions"]


class TestReportAndBaseline:
    @pytest.fixture()
    def measurements(self, monkeypatch):
        _scenarios(monkeypatch, {"engine_only": 1_000, "server_under_load": 300})
        return _measure()

    def test_report_schema(self, monkeypatch, tmp_path):
        _scenarios(monkeypatch, {"engine_only": 1_000, "server_under_load": 300})
        output = tmp_path / "BENCH_perf.json"
        args = ["--only", "perf", "--output", str(output)]
        assert gate_main(args + ["--baselines", str(tmp_path / "none.json")]) == 0
        report = json.loads(output.read_text())
        assert report["schema_version"] == 2
        assert report["generated_by"] == "repro.gate"
        assert report["mode"] == "fast"
        assert report["status"] == "pass"
        (check,) = report["checks"]
        assert check["name"] == "perf"
        judged = [
            m["metric"] for m in check["measurements"] if not m["informational"]
        ]
        assert judged == [
            "perf.engine_only.events_per_s",
            "perf.server_under_load.events_per_s",
        ]
        recorded = {m["metric"] for m in check["measurements"]}
        assert {
            "perf.engine_only.compactions",
            "perf.server_under_load.events_run",
            "perf.server_under_load.requests_per_s",
        } <= recorded

    def test_baseline_roundtrip_and_mode_isolation(self, measurements, tmp_path):
        path = tmp_path / "gate_baseline.json"
        assert load_baselines(path) == {}
        values = _throughputs(measurements)
        document = merge_baselines({}, "fast", values)
        document = merge_baselines(document, "full", values)
        save_baselines(document, path)
        assert set(load_baselines(path)["modes"]) == {"fast", "full"}
        # Updating one mode must not clobber the other.
        document = merge_baselines(load_baselines(path), "fast", values)
        save_baselines(document, path)
        assert set(load_baselines(path, mode="full")) == set(values)

    def test_no_regression_against_own_baseline(self, measurements):
        own = _throughputs(measurements)
        assert all(m.passed for m in _judge(measurements, own))

    def test_regression_detected(self, measurements):
        doctored = _throughputs(measurements)
        doctored["perf.engine_only.events_per_s"] *= 100.0
        failures = [m for m in _judge(measurements, doctored) if not m.passed]
        assert [m.metric for m in failures] == ["perf.engine_only.events_per_s"]
        assert failures[0].lo == pytest.approx(
            THROUGHPUT_REL_LO * doctored["perf.engine_only.events_per_s"]
        )

    def test_missing_baseline_entries_skipped(self, measurements):
        # No stored baseline: the relative floor is skipped with a note.
        judged = _judge(measurements, {})
        assert len(judged) == 2
        for m in judged:
            assert m.passed and m.lo is None
            assert "no baseline" in m.note

    def test_corrupt_baseline_rejected(self, monkeypatch, tmp_path, capsys):
        _scenarios(monkeypatch, {"engine_only": 1_000})
        path = tmp_path / "gate_baseline.json"
        path.write_text("{not json")
        assert gate_main(_cli_args(tmp_path, path)) == 2
        assert "gate error:" in capsys.readouterr().err


class TestSharedStore:
    @pytest.mark.parametrize("mode", ["fast", "full"])
    def test_floors_not_lowered(self, mode, monkeypatch):
        """Every carried-over throughput floor is 0.70 x its old value."""

        def zero_throughput(key):
            return lambda size, seed: {key: 0.0, "wall_time_s": 1.0}

        monkeypatch.setattr(
            checks,
            "SCENARIOS",
            {
                name: replace(spec, runner=zero_throughput(spec.throughput_key))
                for name, spec in SCENARIOS.items()
            },
        )
        monkeypatch.setattr(checks, "REPEATS", 1)
        baselines = load_baselines(mode=mode)
        judged = {m.metric: m for m in _judge(_measure(mode), baselines)}
        for name, old in CARRIED_OVER_BASELINES[mode].items():
            key = SCENARIOS[name].throughput_key
            assert judged[f"perf.{name}.{key}"].lo == pytest.approx(
                0.70 * old, rel=1e-9
            )
        # tracing_overhead stays ungated: it has no stored baseline.
        assert judged["perf.tracing_overhead.events_per_s"].lo is None
        assert not any(k.startswith("perf.tracing_overhead.") for k in baselines)


def _cli_args(tmp_path, baselines):
    return [
        "--fast",
        "--only",
        "perf",
        "--output",
        str(tmp_path / "BENCH_perf.json"),
        "--baselines",
        str(baselines),
    ]


class TestCli:
    @pytest.fixture(autouse=True)
    def engine_only_once(self, monkeypatch):
        """``engine_only`` once at its fast size, the old CLI smoke run."""
        _scenarios(monkeypatch, {"engine_only": SCENARIOS["engine_only"].fast_size})

    def test_cli_smoke_update_and_gate(self, tmp_path):
        baselines = tmp_path / "gate_baseline.json"
        args = _cli_args(tmp_path, baselines)
        assert gate_main(args + ["--update-baselines"]) == 0
        assert set(load_baselines(baselines, mode="fast")) == {
            "perf.engine_only.events_per_s"
        }
        assert gate_main(args) == 0
        report = json.loads((tmp_path / "BENCH_perf.json").read_text())
        assert [c["name"] for c in report["checks"]] == ["perf"]
        assert report["status"] == "pass"

    def test_cli_fails_on_regression(self, tmp_path, capsys):
        """A doctored copy of the shipped baselines fails the run."""
        baselines = tmp_path / "gate_baseline.json"
        shutil.copy(default_baselines_path(), baselines)
        doc = load_baselines(baselines)
        doc["modes"]["fast"]["perf.engine_only.events_per_s"] *= 100.0
        save_baselines(doc, baselines)
        assert gate_main(_cli_args(tmp_path, baselines)) == 1
        assert "perf.engine_only.events_per_s" in capsys.readouterr().out

    def test_cli_update_keeps_gate_baselines(self, tmp_path):
        baselines = tmp_path / "gate_baseline.json"
        shutil.copy(default_baselines_path(), baselines)
        before = load_baselines(baselines)["modes"]
        args = _cli_args(tmp_path, baselines) + ["--update-baselines"]
        # The exit status is the verdict against the shipped floor (host
        # speed); the refresh happens either way.
        assert gate_main(args) in (0, 1)
        report = json.loads((tmp_path / "BENCH_perf.json").read_text())
        (measured,) = [
            m["value"]
            for m in report["checks"][0]["measurements"]
            if m["metric"] == "perf.engine_only.events_per_s"
        ]
        after = load_baselines(baselines)["modes"]
        assert set(after) == set(before)
        for mode, metrics in before.items():
            assert set(after[mode]) == set(metrics)
            for metric, value in metrics.items():
                if metric != "perf.engine_only.events_per_s" or mode != "fast":
                    assert after[mode][metric] == value
        assert after["fast"]["perf.engine_only.events_per_s"] == round(measured, 6)
