"""Unit tests for bandwidth-limited paging (Section 5).

The capped planners are the uncapped ones with ``max_group_size``: the
``heuristic`` registry entry (float plans through ``plan_batch``, exact
ones through the reference) and the ``exact`` subset DP.
"""

import pytest

from repro.core import (
    APPROXIMATION_FACTOR,
    conference_call_heuristic,
    is_feasible,
    minimum_rounds,
    optimal_strategy,
)
from repro.core import exact as exact_module
from repro.errors import InfeasibleError
from repro.solvers import get_solver
from tests.conftest import random_exact_instance, random_instance

heuristic = get_solver("heuristic")
exact = get_solver("exact")


class TestFeasibility:
    def test_minimum_rounds(self):
        assert minimum_rounds(10, 3) == 4
        assert minimum_rounds(9, 3) == 3
        assert minimum_rounds(1, 5) == 1

    def test_minimum_rounds_rejects_bad_cap(self):
        with pytest.raises(InfeasibleError):
            minimum_rounds(5, 0)

    def test_is_feasible(self):
        assert is_feasible(10, 4, 3)
        assert not is_feasible(10, 3, 3)
        assert not is_feasible(10, 0, 3)
        assert not is_feasible(10, 11, 1)


class TestHeuristicUnderCap:
    def test_cap_respected(self, rng):
        instance = random_instance(rng, num_cells=9, max_rounds=3)
        result = heuristic(instance, max_group_size=4)
        assert max(result.extras["group_sizes"]) <= 4

    def test_infeasible_raises(self, rng):
        instance = random_instance(rng, num_cells=9, max_rounds=2)
        with pytest.raises(InfeasibleError):
            heuristic(instance, max_group_size=4)

    def test_loose_cap_matches_uncapped(self, rng):
        instance = random_instance(rng, num_cells=8, max_rounds=3)
        capped = heuristic(instance, max_group_size=8)
        uncapped = conference_call_heuristic(instance)
        assert float(capped.expected_paging) == pytest.approx(
            float(uncapped.expected_paging)
        )

    def test_ep_monotone_in_cap(self, rng):
        """Loosening the cap can only help."""
        instance = random_instance(rng, num_cells=8, max_rounds=4)
        values = [
            float(heuristic(instance, max_group_size=b).expected_paging)
            for b in (2, 3, 5, 8)
        ]
        for i in range(len(values) - 1):
            assert values[i + 1] <= values[i] + 1e-12

    def test_exact_instance_keeps_fraction_arithmetic(self, rng):
        instance = random_exact_instance(rng, num_cells=6, max_rounds=3)
        capped = heuristic(instance, max_group_size=2)
        reference = conference_call_heuristic(instance, max_group_size=2)
        assert capped.expected_paging == reference.expected_paging
        assert capped.strategy == reference.strategy


class TestOptimalUnderCap:
    def test_cap_respected(self, rng):
        instance = random_instance(rng, num_cells=7, max_rounds=3)
        result = exact(instance, max_group_size=3)
        assert max(result.strategy.group_sizes()) <= 3

    def test_heuristic_within_factor_of_capped_optimum(self, rng):
        for _ in range(5):
            instance = random_instance(rng, num_cells=7, max_rounds=3)
            capped = heuristic(instance, max_group_size=3)
            optimum = exact(instance, max_group_size=3)
            assert float(capped.expected_paging) <= APPROXIMATION_FACTOR * float(
                optimum.expected_paging
            ) + 1e-9

    def test_capped_optimum_never_beats_uncapped(self, rng):
        instance = random_instance(rng, num_cells=7, max_rounds=3)
        capped = exact(instance, max_group_size=3)
        uncapped = optimal_strategy(instance)
        assert float(capped.expected_paging) >= float(uncapped.expected_paging) - 1e-12

    def test_infeasible_raises(self, rng):
        instance = random_instance(rng, num_cells=7, max_rounds=2)
        with pytest.raises(InfeasibleError):
            exact(instance, max_group_size=3)

    @pytest.mark.parametrize("rounds,cap", [(3, 4), (3, 0), (14, -1)])
    def test_infeasible_cap_raises_before_the_subset_dp(
        self, rng, monkeypatch, rounds, cap
    ):
        """``b < 1`` or ``d * b < c`` is infeasible, not a size limit, and
        is known from the shape alone: no ``2^c`` table is built."""

        def no_table(instance):
            raise AssertionError("subset DP ran on an infeasible cap")

        monkeypatch.setattr(exact_module, "_mask_find_probabilities", no_table)
        instance = random_instance(rng, num_cells=14, max_rounds=rounds)
        with pytest.raises(InfeasibleError, match="14 cells"):
            optimal_strategy(instance, max_group_size=cap)
