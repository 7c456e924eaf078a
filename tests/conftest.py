"""Shared fixtures and helpers for the test suite."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import PagingInstance, available_backends


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(20020721)  # PODC'02 date


def use_backend(monkeypatch, name):
    """Make the planner run on backend ``name``, the way CI chooses it.

    ``"numpy"`` sets ``REPRO_DISABLE_COMPILED`` (a machine without a
    toolchain); ``"compiled"`` and ``"auto"`` leave the machine as it is.
    The variable is read before the kernel's per-process memo, so this
    switches backends inside one test process.
    """
    if name == "numpy":
        monkeypatch.setenv("REPRO_DISABLE_COMPILED", "1")


@pytest.fixture(params=available_backends())
def backend(request, monkeypatch):
    """Run the test once per planner backend this machine provides."""
    use_backend(monkeypatch, request.param)
    return request.param


@pytest.fixture
def small_instance(rng):
    """A generic 2-device, 6-cell, 3-round float instance."""
    matrix = rng.dirichlet(np.ones(6), size=2)
    return PagingInstance.from_array(matrix, max_rounds=3)


@pytest.fixture
def exact_instance():
    """A tiny exact (Fraction) instance for equality assertions."""
    rows = [
        [Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)],
        [Fraction(1, 8), Fraction(1, 8), Fraction(1, 4), Fraction(1, 2)],
    ]
    return PagingInstance(rows, max_rounds=2)


def random_instance(rng, num_devices=2, num_cells=6, max_rounds=3):
    """A quick Dirichlet instance (module-level helper, not a fixture)."""
    matrix = rng.dirichlet(np.ones(num_cells), size=num_devices)
    return PagingInstance.from_array(matrix, max_rounds=max_rounds)


def random_exact_instance(rng, num_devices=2, num_cells=5, max_rounds=2, grain=60):
    """A random instance with exact Fraction rows summing to 1."""
    rows = []
    for _ in range(num_devices):
        weights = [int(w) for w in rng.integers(1, grain, size=num_cells)]
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return PagingInstance(rows, max_rounds=max_rounds)
