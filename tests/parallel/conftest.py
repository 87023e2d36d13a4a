"""Shared fixtures for the sharded-parallel-execution tests."""

from __future__ import annotations

import pytest

from repro.ranking.sum import SumRanking
from repro.workloads.path import path_workload


@pytest.fixture()
def inline_mode(monkeypatch):
    """Run pools synchronously in-process (deterministic, no fork cost)."""
    monkeypatch.setenv("REPRO_PARALLEL_MODE", "inline")


@pytest.fixture(scope="module")
def fanout_workload():
    """A 3-path SUM workload (tractable partial SUM, same shape as E3)
    with enough fan-out that the pivot loop actually iterates."""
    return path_workload(
        3,
        150,
        join_domain=6,
        ranking=SumRanking(["x1", "x2", "x3"]),
        seed=29,
    )
