"""Tests for the shared artifact writer and report header."""

import json
import pathlib
import subprocess

import pytest

from repro.artifacts import git_sha, write_json
from repro.gate import run_gate
from repro.resilience.report import build_report as build_resilience_report

HEADER_KEYS = {"schema_version", "generated_by", "git_sha", "mode", "environment"}


def test_every_report_carries_the_header(tmp_path):
    gate = run_gate(mode="fast", only=["perf_budget"], cache=None)
    resilience = build_resilience_report([])
    for name, document in (
        ("repro.gate", gate.to_json_dict()),
        ("repro.resilience", resilience),
    ):
        path = write_json(document, tmp_path / f"{name}.json")
        loaded = json.loads(path.read_text(encoding="utf-8"))
        assert HEADER_KEYS <= set(loaded), name
        assert loaded["generated_by"] == name
        assert {"python", "numpy", "repro", "platform"} <= set(
            loaded["environment"]
        )


def test_git_sha_names_the_checkout_not_the_working_directory(
    tmp_path, monkeypatch
):
    checkout = pathlib.Path(__file__).resolve().parents[1]
    head = subprocess.run(
        ["git", "rev-parse", "HEAD"],
        cwd=checkout,
        capture_output=True,
        text=True,
        check=False,
    )
    if head.returncode != 0:
        pytest.skip("the tests do not sit in a git checkout")
    monkeypatch.chdir(tmp_path)
    assert git_sha() == head.stdout.strip()


def test_write_json_roundtrip_is_byte_stable(tmp_path):
    path = write_json(
        {"b": [1.5, {"z": None, "a": "é"}], "a": 2}, tmp_path / "x" / "d.json"
    )
    first = path.read_bytes()
    assert first.endswith(b"\n")
    write_json(json.loads(first.decode("utf-8")), path)
    assert path.read_bytes() == first
