"""Unit tests for the float planner path.

Float instances plan through ``repro.core.batch_plan`` (the ``heuristic``
registry entry sends each one there as a batch of one).  These tests check
its pieces one row at a time against the pure-Python reference: the prefix
stop table, the Lemma 4.7 cut DP, and the whole Fig. 1 plan.
"""

import time

import numpy as np
import pytest

from repro.core import (
    PagingInstance,
    by_expected_devices,
    conference_call_heuristic,
    expected_paging_float,
    optimize_cuts,
    optimize_cuts_batch,
    prefix_stop_probabilities_batch,
)
from repro.errors import InfeasibleError
from repro.solvers import get_solver
from tests.conftest import random_instance


def _prefix_stops(matrix, order):
    """One instance's ``F`` table through the batched kernel."""
    return prefix_stop_probabilities_batch(
        matrix[None, :, :], np.asarray(order)[None, :]
    )[0]


def _optimize_cuts(finds, num_rounds, **options):
    """One row of the batched cut DP, as ``(group_sizes, value)``."""
    sizes, values = optimize_cuts_batch(
        np.asarray(finds, dtype=float)[None, :], num_rounds, **options
    )
    return tuple(int(s) for s in sizes[0]), float(values[0])


class TestPrefixStops:
    def test_matches_reference(self, rng):
        instance = random_instance(rng, num_devices=3, num_cells=9)
        order = by_expected_devices(instance)
        reference = instance.prefix_find_probabilities(order)
        fast = _prefix_stops(instance.as_array(), order)
        assert np.allclose([float(v) for v in reference], fast)

    def test_endpoint_values(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=5)
        fast = _prefix_stops(instance.as_array(), tuple(range(5)))
        assert fast[0] == 0.0
        assert fast[-1] == pytest.approx(1.0)


class TestOptimizeCutsFast:
    def test_matches_reference_values(self, rng):
        for _ in range(10):
            instance = random_instance(rng, num_devices=2, num_cells=9, max_rounds=4)
            order = by_expected_devices(instance)
            finds = [
                float(v) for v in instance.prefix_find_probabilities(order)
            ]
            slow_sizes, slow_value = optimize_cuts(finds, 4)
            fast_sizes, fast_value = _optimize_cuts(finds, 4)
            assert fast_value == pytest.approx(slow_value)
            assert fast_sizes == slow_sizes

    def test_matches_reference_with_cap(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=8, max_rounds=4)
        finds = [
            float(v)
            for v in instance.prefix_find_probabilities(tuple(range(8)))
        ]
        slow = optimize_cuts(finds, 4, max_group_size=3)
        fast = _optimize_cuts(finds, 4, max_group_size=3)
        assert fast[1] == pytest.approx(slow[1])
        assert max(fast[0]) <= 3

    def test_rejects_infeasible(self):
        with pytest.raises(InfeasibleError):
            _optimize_cuts([0.0, 1.0], 5)
        with pytest.raises(InfeasibleError):
            _optimize_cuts([0.0, 0.5, 1.0], 2, max_group_size=0)


class TestFastHeuristic:
    def test_matches_reference_strategy(self, rng):
        heuristic = get_solver("heuristic")
        for _ in range(8):
            instance = random_instance(rng, num_devices=3, num_cells=10, max_rounds=3)
            reference = conference_call_heuristic(instance)
            fast = heuristic(instance)
            assert float(fast.expected_paging) == pytest.approx(
                float(reference.expected_paging)
            )
            assert fast.extras["order"] == reference.order

    def test_value_matches_strategy(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=12, max_rounds=4)
        fast = get_solver("heuristic")(instance)
        assert float(fast.expected_paging) == pytest.approx(
            expected_paging_float(instance, fast.strategy)
        )

    def test_bandwidth_cap(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=12, max_rounds=4)
        fast = get_solver("heuristic")(instance, max_group_size=4)
        assert max(fast.extras["group_sizes"]) <= 4

    def test_large_instance_runs_quickly(self, rng):
        matrix = rng.dirichlet(np.ones(800), size=4)
        instance = PagingInstance.from_array(matrix, max_rounds=5)
        start = time.perf_counter()
        result = get_solver("heuristic")(instance)
        elapsed = time.perf_counter() - start
        assert sum(result.extras["group_sizes"]) == 800
        assert elapsed < 5.0  # generous bound; typically well under 1s

    def test_round_override(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=10, max_rounds=5)
        fast = get_solver("heuristic")(instance, max_rounds=2)
        assert len(fast.extras["group_sizes"]) == 2
