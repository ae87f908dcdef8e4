"""Shared fixtures for the test-suite."""

from __future__ import annotations

import pytest

from repro.core.burst import Burst, PAPER_FIG2_BURST
from repro.core.costs import CostModel


@pytest.fixture(scope="session")
def paper_burst() -> Burst:
    """The worked example of the paper's Fig. 2."""
    return PAPER_FIG2_BURST


@pytest.fixture(scope="session")
def fixed_model() -> CostModel:
    """alpha = beta = 1 (the paper's fixed-coefficient setting)."""
    return CostModel.fixed()


def _random_bursts(count: int, seed: int):
    # RandomPopulation reproduces workloads.random_data.random_bursts
    # byte-for-byte with or without NumPy (a standard-library copy of
    # NumPy's stream without it), so every suite using these fixtures
    # stays runnable on the CI NumPy-free leg.
    from repro.workloads.population import RandomPopulation

    return RandomPopulation(count=count, seed=seed).bursts()


@pytest.fixture(scope="session")
def small_random_bursts():
    """A small deterministic random population for fast checks."""
    return _random_bursts(count=50, seed=1234)


@pytest.fixture(scope="session")
def medium_random_bursts():
    """A mid-size deterministic random population for statistics checks."""
    return _random_bursts(count=500, seed=99)
