"""Self-tests of the benchmark at its tiny size.

Run from the root of a checkout::

    python3 -m pytest perfbench -q

Every run is a fresh ``perfbench/run.py`` process, as the benchmark is
driven, with ``--size tiny`` so the whole file takes about a minute.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from functools import lru_cache
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

WORKLOADS = run.WORKLOAD_NAMES
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
#: Metrics that are a function of the seed alone (simulated or counted).
SIMULATED_E2E = {name for name, _, kind in run.END_TO_END if kind == "simulated"}
HOST_TIMED = re.compile(r"(_s|_per_s|ns_per_event|trace\.overhead|trace\.coverage)$")


@lru_cache(maxsize=None)
def bench(workload: str, seed: int, trace: int, repeat: int = 0) -> dict:
    """The JSON result line of one tiny run (``repeat`` forces a rerun)."""
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
            "--size", "tiny",
        ],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"], done.stderr
    return result


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == [
        (name, unit) for name, unit, _ in run.END_TO_END
    ]
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(run.PER_LAYER)
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_emitted_with_valid_name_and_unit(workload, trace):
    result = bench(workload, 1, trace)
    expected = run.PER_LAYER if trace else [(n, u) for n, u, _ in run.END_TO_END]
    metrics = result["metrics"]
    assert list(metrics) == [name for name, _ in expected]
    for name, unit in expected:
        assert NAME.match(name) and UNIT.match(unit), name
        assert metrics[name]["unit"] == unit
        assert isinstance(metrics[name]["value"], float)
    assert result["attempted"] >= 1 and result["failed"] == 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_simulated_metrics_repeat_for_a_seed_and_move_with_it(workload):
    first, again, other = bench(workload, 1, 0), bench(workload, 1, 0, 1), bench(workload, 2, 0)
    values = {name: first["metrics"][name]["value"] for name in SIMULATED_E2E}
    assert values == {name: again["metrics"][name]["value"] for name in SIMULATED_E2E}
    assert values != {name: other["metrics"][name]["value"] for name in SIMULATED_E2E}
    for name in SIMULATED_E2E:
        assert values[name] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_a_seed_and_move_with_it(workload):
    first, again, other = bench(workload, 1, 1), bench(workload, 1, 1, 1), bench(workload, 2, 1)
    for name, _ in run.PER_LAYER:
        if not HOST_TIMED.search(name):
            assert first["metrics"][name] == again["metrics"][name], name
    assert first["metrics"]["sim.events"] != other["metrics"]["sim.events"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_self_times_cover_the_traced_wall(workload):
    metrics = bench(workload, 1, 1)["metrics"]
    assert metrics["trace.coverage"]["value"] >= 0.95


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_text(path.read_text())
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "isn_sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
