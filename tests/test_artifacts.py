"""Tests for the shared artifact writer and report header."""

import json

from repro.artifacts import write_json
from repro.gate import run_gate
from repro.perf import build_report as build_perf_report
from repro.perf import run_scenario, scenario
from repro.resilience.report import build_report as build_resilience_report

HEADER_KEYS = {"schema_version", "generated_by", "git_sha", "mode", "environment"}


def test_every_report_carries_the_header(tmp_path):
    gate = run_gate(mode="fast", only=["perf_budget"], cache=None)
    perf = build_perf_report(
        [run_scenario(scenario("engine_only"), 500, repeats=1)], fast=True
    )
    resilience = build_resilience_report([])
    for name, document in (
        ("repro.gate", gate.to_json_dict()),
        ("repro.perf", perf),
        ("repro.resilience", resilience),
    ):
        path = write_json(document, tmp_path / f"{name}.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert HEADER_KEYS <= set(loaded), name
        assert loaded["generated_by"] == name
        assert {"python", "numpy", "repro", "platform"} <= set(
            loaded["environment"]
        )


def test_write_json_roundtrip_is_byte_stable(tmp_path):
    path = write_json(
        {"b": [1.5, {"z": None, "a": "é"}], "a": 2}, tmp_path / "x" / "d.json"
    )
    first = path.read_bytes()
    assert first.endswith(b"\n")
    write_json(json.loads(first.decode("utf-8")), path)
    assert path.read_bytes() == first
