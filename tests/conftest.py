"""Shared fixtures: cheap workloads, canonical profiles, helpers."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.config import ServerConfig
from repro.core.speedup import SpeedupBook, SpeedupProfile
from repro.core.target_table import TargetTable
from repro.exec import WorkloadSpec, memoised_workload
from repro.experiments.scenarios import TINY_WORKLOAD_SPEC
from repro.finance import build_finance_workload
from repro.sim.request import Request


SHORT_PROFILE = SpeedupProfile([1.0, 1.05, 1.08, 1.11, 1.14, 1.16])
MID_PROFILE = SpeedupProfile([1.0, 1.4, 1.6, 1.8, 1.95, 2.05])
LONG_PROFILE = SpeedupProfile([1.0, 1.8, 2.5, 3.2, 3.7, 4.1])


@pytest.fixture(scope="session")
def speedup_book() -> SpeedupBook:
    """The paper's three-group speedup book (Figure 2 values)."""
    return SpeedupBook([SHORT_PROFILE, MID_PROFILE, LONG_PROFILE])


@pytest.fixture(scope="session")
def target_table() -> TargetTable:
    """A small adaptive target table for policy tests."""
    return TargetTable([(0, 40), (4, 50), (8, 65), (16, 90), (32, 130)])


@pytest.fixture()
def server_config() -> ServerConfig:
    """The paper's ISN hardware model."""
    return ServerConfig()


@pytest.fixture(scope="session")
def tiny_workload_spec() -> WorkloadSpec:
    """Recipe of :func:`tiny_search_workload` (no on-disk build cache)."""
    return dataclasses.replace(TINY_WORKLOAD_SPEC, use_workload_cache=False)


@pytest.fixture(scope="session")
def tiny_search_workload(tiny_workload_spec):
    """A small but complete search workload: the exec memo's copy, so
    cells declared on :func:`tiny_workload_spec` reuse it."""
    return memoised_workload(tiny_workload_spec)


@pytest.fixture(scope="session")
def finance_workload():
    """The Section 5.1 finance workload."""
    return build_finance_workload()


def make_request(
    rid: int,
    demand_ms: float,
    predicted_ms: float | None = None,
    profile: SpeedupProfile = LONG_PROFILE,
) -> Request:
    """Build a request with sensible defaults for unit tests."""
    return Request(
        rid=rid,
        demand_ms=demand_ms,
        predicted_ms=demand_ms if predicted_ms is None else predicted_ms,
        speedup=profile,
    )


@pytest.fixture()
def rng() -> np.random.Generator:
    """A deterministic generator for tests."""
    return np.random.default_rng(123)
