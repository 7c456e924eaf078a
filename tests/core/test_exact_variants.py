"""Unit tests for the exact variant solvers (Yellow Pages / Signature)."""

import itertools

import pytest

from repro.core import (
    PagingInstance,
    Strategy,
    expected_paging_signature,
    expected_paging_yellow,
    optimal_signature,
    optimal_strategy,
    optimal_yellow_pages,
    yellow_pages_greedy,
)
from repro.errors import ReproError, SolverLimitError
from tests.conftest import random_exact_instance, random_instance


def brute_force_variant(instance, d, evaluate):
    best = None
    for assignment in itertools.product(range(d), repeat=instance.num_cells):
        if len(set(assignment)) != d:
            continue
        strategy = Strategy.from_assignment(assignment)
        value = evaluate(instance, strategy)
        if best is None or value < best:
            best = value
    return best


class TestOptimalYellowPages:
    def test_matches_brute_force(self, rng):
        for _ in range(5):
            instance = random_instance(rng, num_devices=2, num_cells=6, max_rounds=2)
            exact = optimal_yellow_pages(instance)
            brute = brute_force_variant(instance, 2, expected_paging_yellow)
            assert float(exact.expected_paging) == pytest.approx(float(brute))

    def test_matches_brute_force_exact_arithmetic(self, rng):
        instance = random_exact_instance(rng, num_devices=3, num_cells=5, max_rounds=2)
        exact = optimal_yellow_pages(instance)
        brute = brute_force_variant(instance, 2, expected_paging_yellow)
        assert exact.expected_paging == brute

    def test_lower_bounds_the_greedy_heuristic(self, rng):
        for _ in range(5):
            instance = random_instance(rng, num_devices=3, num_cells=6, max_rounds=3)
            exact = optimal_yellow_pages(instance)
            greedy = yellow_pages_greedy(instance)
            assert float(exact.expected_paging) <= float(greedy.expected_paging) + 1e-9

    def test_cheaper_than_conference_optimum(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=6, max_rounds=2)
        yellow = optimal_yellow_pages(instance)
        conference = optimal_strategy(instance)
        assert float(yellow.expected_paging) <= float(conference.expected_paging) + 1e-9

    def test_value_matches_strategy(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=6, max_rounds=3)
        result = optimal_yellow_pages(instance)
        assert float(result.expected_paging) == pytest.approx(
            float(expected_paging_yellow(instance, result.strategy))
        )

    def test_cell_limit(self):
        instance = PagingInstance.uniform(2, 19, 2)
        with pytest.raises(SolverLimitError):
            optimal_yellow_pages(instance)


class TestOptimalSignature:
    def test_matches_brute_force(self, rng):
        instance = random_instance(rng, num_devices=3, num_cells=6, max_rounds=2)
        for quorum in (1, 2, 3):
            exact = optimal_signature(instance, quorum)
            brute = brute_force_variant(
                instance, 2, lambda i, s: expected_paging_signature(i, s, quorum)
            )
            assert float(exact.expected_paging) == pytest.approx(float(brute))

    def test_quorum_m_matches_conference_optimum(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=6, max_rounds=3)
        signature = optimal_signature(instance, 2)
        conference = optimal_strategy(instance)
        assert float(signature.expected_paging) == pytest.approx(
            float(conference.expected_paging)
        )

    def test_quorum_one_matches_yellow_optimum(self, rng):
        instance = random_instance(rng, num_devices=3, num_cells=6, max_rounds=2)
        signature = optimal_signature(instance, 1)
        yellow = optimal_yellow_pages(instance)
        assert float(signature.expected_paging) == pytest.approx(
            float(yellow.expected_paging)
        )

    def test_optimum_monotone_in_quorum(self, rng):
        instance = random_instance(rng, num_devices=3, num_cells=6, max_rounds=3)
        values = [
            float(optimal_signature(instance, quorum).expected_paging)
            for quorum in (1, 2, 3)
        ]
        assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9

    def test_rejects_bad_quorum(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=5)
        with pytest.raises(ValueError, match="quorum"):
            optimal_signature(instance, 3)

    def test_bad_quorum_is_a_repro_error(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=4)
        with pytest.raises(ReproError, match="quorum"):
            optimal_signature(instance, instance.num_devices + 1)

    def test_rule_label(self, rng):
        instance = random_instance(rng, num_devices=2, num_cells=5, max_rounds=2)
        assert optimal_signature(instance, 2).rule == "signature-2"
        assert optimal_yellow_pages(instance).rule == "yellow-pages"
