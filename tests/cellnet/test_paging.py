"""Unit tests for the paging engine."""

import numpy as np
import pytest

from repro.cellnet import (
    PAGER_FACTORIES,
    AdaptivePager,
    BlanketPager,
    HeuristicPager,
    build_sub_instance,
    page_with_strategy,
)
from repro.core import Strategy
from repro.errors import SimulationError


def uniform_priors(num_devices, num_cells):
    return [np.full(num_cells, 1.0 / num_cells) for _ in range(num_devices)]


class TestSubInstance:
    def test_restricts_and_renormalizes(self):
        priors = [np.array([0.5, 0.3, 0.2, 0.0])]
        instance, cells = build_sub_instance(priors, [1, 2], max_rounds=2)
        assert cells == (1, 2)
        assert instance.probability(0, 0) == pytest.approx(0.6)
        assert instance.probability(0, 1) == pytest.approx(0.4)

    def test_zero_mass_cells_get_floor(self):
        priors = [np.array([1.0, 0.0, 0.0])]
        instance, _cells = build_sub_instance(priors, [1, 2], max_rounds=2)
        assert sum(instance.row(0)) == pytest.approx(1.0)
        assert all(p > 0 for p in instance.row(0))

    def test_round_budget_clamped_to_cells(self):
        priors = uniform_priors(1, 5)
        instance, _cells = build_sub_instance(priors, [0, 1], max_rounds=9)
        assert instance.max_rounds == 2

    def test_rejects_empty_candidates(self):
        with pytest.raises(SimulationError):
            build_sub_instance(uniform_priors(1, 4), [], max_rounds=2)


class TestPageWithStrategy:
    def test_stops_when_all_found(self):
        strategy = Strategy([[0, 1], [2, 3]])
        found, paged, rounds, complete = page_with_strategy(
            strategy, (10, 11, 12, 13), true_cells=(10, 11)
        )
        assert complete
        assert (paged, rounds) == (2, 1)
        assert found == {0: 10, 1: 11}

    def test_incomplete_when_device_outside(self):
        strategy = Strategy([[0, 1]])
        found, paged, rounds, complete = page_with_strategy(
            strategy, (10, 11), true_cells=(10, 99)
        )
        assert not complete
        assert found == {0: 10}
        assert (paged, rounds) == (2, 1)


class TestPagers:
    def test_blanket_pages_all_candidates(self):
        pager = BlanketPager()
        outcome = pager.search(
            uniform_priors(2, 6), [0, 1, 2], true_cells=[1, 2], max_rounds=3,
            num_cells=6,
        )
        assert outcome.cells_paged == 3
        assert outcome.rounds_used == 1
        assert not outcome.used_fallback

    def test_heuristic_uses_multiple_rounds(self, rng):
        priors = [rng.dirichlet(np.ones(8)) for _ in range(2)]
        pager = HeuristicPager()
        outcome = pager.search(
            priors, list(range(8)), true_cells=[0, 1], max_rounds=3, num_cells=8
        )
        assert outcome.found_cells == {0: 0, 1: 1}
        assert outcome.cells_paged <= 8

    def test_fallback_sweeps_network(self):
        pager = HeuristicPager()
        outcome = pager.search(
            uniform_priors(1, 10), [0, 1, 2], true_cells=[7], max_rounds=2,
            num_cells=10,
        )
        assert outcome.used_fallback
        assert outcome.found_cells == {0: 7}
        assert outcome.cells_paged == 10  # candidates + the 7-cell sweep

    def test_adaptive_finds_devices(self, rng):
        priors = [rng.dirichlet(np.ones(6)) for _ in range(2)]
        pager = AdaptivePager()
        outcome = pager.search(
            priors, list(range(6)), true_cells=[3, 4], max_rounds=3, num_cells=6
        )
        assert outcome.found_cells == {0: 3, 1: 4}
        assert outcome.rounds_used <= 3

    def test_adaptive_fallback_outside_candidates(self):
        pager = AdaptivePager()
        outcome = pager.search(
            uniform_priors(1, 8), [0, 1], true_cells=[5], max_rounds=2, num_cells=8
        )
        assert outcome.used_fallback
        assert outcome.found_cells == {0: 5}


class TestSearchMany:
    def _batch(self, rng, num_calls, num_cells):
        priors_batch = []
        true_cells_batch = []
        for call in range(num_calls):
            devices = 1 + call % 3  # mixed device counts across the batch
            priors_batch.append([rng.dirichlet(np.ones(num_cells)) for _ in range(devices)])
            true_cells_batch.append([call % num_cells] * devices)
        return priors_batch, true_cells_batch

    # "heuristic-batch" is the former name of the same pager.
    @pytest.mark.parametrize("solver", ["heuristic", "heuristic-batch"])
    def test_matches_per_call_search(self, rng, solver):
        num_cells = 10
        candidates = list(range(num_cells))
        priors_batch, true_cells_batch = self._batch(rng, 7, num_cells)
        pager = PAGER_FACTORIES[solver]()
        assert isinstance(pager, HeuristicPager)
        many = pager.search_many(
            priors_batch, candidates, true_cells_batch, max_rounds=3,
            num_cells=num_cells,
        )
        assert len(many) == 7
        for priors, true_cells, outcome in zip(
            priors_batch, true_cells_batch, many
        ):
            single = pager.search(
                priors, candidates, true_cells, max_rounds=3, num_cells=num_cells
            )
            assert outcome.found_cells == single.found_cells
            assert outcome.cells_paged == single.cells_paged
            assert outcome.rounds_used == single.rounds_used
            assert outcome.used_fallback == single.used_fallback

    def test_fallback_calls_still_resolve(self, rng):
        # Device 0 of call 1 sits outside the candidate set -> sweep.
        num_cells = 12
        candidates = [0, 1, 2, 3]
        priors_batch = [
            [rng.dirichlet(np.ones(num_cells))],
            [rng.dirichlet(np.ones(num_cells))],
        ]
        outcomes = HeuristicPager().search_many(
            priors_batch, candidates, [[2], [9]], max_rounds=2,
            num_cells=num_cells,
        )
        assert not outcomes[0].used_fallback or outcomes[0].found_cells == {0: 2}
        assert outcomes[1].used_fallback
        assert outcomes[1].found_cells == {0: 9}


class TestCostAwarePager:
    def test_finds_devices(self, rng):
        from repro.cellnet import CostAwarePager

        costs = [float(v) for v in rng.uniform(1.0, 5.0, size=8)]
        pager = CostAwarePager(costs)
        priors = [rng.dirichlet(np.ones(8)) for _ in range(2)]
        outcome = pager.search(
            priors, list(range(8)), true_cells=[2, 6], max_rounds=3, num_cells=8
        )
        assert outcome.found_cells == {0: 2, 1: 6}
        assert outcome.rounds_used <= 3

    def test_unit_costs_match_heuristic_pager(self, rng):
        from repro.cellnet import CostAwarePager, HeuristicPager

        priors = [rng.dirichlet(np.ones(6)) for _ in range(2)]
        flat = CostAwarePager([1.0] * 6).search(
            priors, list(range(6)), true_cells=[0, 1], max_rounds=3, num_cells=6
        )
        plain = HeuristicPager().search(
            priors, list(range(6)), true_cells=[0, 1], max_rounds=3, num_cells=6
        )
        assert flat.cells_paged == plain.cells_paged

    def test_avoids_expensive_cells_early(self, rng):
        """A pricey cell leaves the first round when costs are considered."""
        from repro.cellnet import CostAwarePager

        priors = [np.full(6, 1.0 / 6) for _ in range(2)]
        priors[0] = np.array([0.4, 0.12, 0.12, 0.12, 0.12, 0.12])
        costs = [50.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        pager = CostAwarePager(costs)
        instance_cells = list(range(6))
        outcome = pager.search(
            priors, instance_cells, true_cells=[1, 2], max_rounds=2, num_cells=6
        )
        assert outcome.found_cells == {0: 1, 1: 2}

    def test_validation(self):
        from repro.cellnet import CostAwarePager

        with pytest.raises(SimulationError):
            CostAwarePager([1.0, 0.0])
        pager = CostAwarePager([1.0] * 4)
        with pytest.raises(SimulationError, match="cost table"):
            pager.search(
                uniform_priors(1, 8), [0, 1], true_cells=[0], max_rounds=2,
                num_cells=8,
            )

    def test_cost_of_cells(self):
        from repro.cellnet import CostAwarePager

        pager = CostAwarePager([1.0, 2.0, 3.0])
        assert pager.cost_of_cells([0, 2]) == 4.0
