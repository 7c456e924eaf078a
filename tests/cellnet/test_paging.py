"""Unit tests for the paging engine."""

from fractions import Fraction

import numpy as np
import pytest

from repro.cellnet import (
    PAGER_FACTORIES,
    AdaptivePager,
    BlanketPager,
    CellTopology,
    CellularSimulator,
    ConferenceCallRequest,
    CostAwarePager,
    FaultInjector,
    FaultModel,
    HeuristicPager,
    LocationAreaPlan,
    RandomWalk,
    RecoveryPolicy,
    ResilientPager,
    SimulationConfig,
    build_sub_instance,
    execute_search,
)
from repro.cellnet.paging import _global_groups
from repro.core import PagingInstance
from repro.errors import SimulationError
from repro.solvers import get_solver


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
    """The executor on a fixed page schedule (global cell ids)."""

    def test_stops_when_all_found(self):
        outcome = execute_search(
            [[10, 11], [12, 13]], (10, 11, 12, 13), true_cells=(10, 11),
            max_rounds=2, num_cells=14,
        )
        assert outcome.complete and not outcome.used_fallback
        assert (outcome.cells_paged, outcome.rounds_used) == (2, 1)
        assert outcome.found_cells == {0: 10, 1: 11}

    def test_incomplete_when_device_outside(self):
        # Under a policy the budget d=1 is spent on the plan: no sweep fits.
        outcome = execute_search(
            [[10, 11]], (10, 11), true_cells=(10, 99), max_rounds=1,
            num_cells=100, policy=RecoveryPolicy(max_retries=0),
        )
        assert not outcome.complete
        assert outcome.failed_devices == (1,)
        assert outcome.found_cells == {0: 10}
        assert (outcome.cells_paged, outcome.rounds_used) == (2, 1)


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

    def test_adaptive_plans_obliviously_without_true_cells(self, rng):
        priors = [rng.dirichlet(np.ones(6)) for _ in range(2)]
        instance, cells = build_sub_instance(priors, [1, 2, 3, 5], max_rounds=3)
        assert AdaptivePager().plan(instance, cells) == HeuristicPager().plan(
            instance, cells
        )

    def test_adaptive_fallback_outside_candidates(self):
        pager = AdaptivePager()
        outcome = pager.search(
            uniform_priors(1, 8), [0, 1], true_cells=[5], max_rounds=2, num_cells=8
        )
        assert outcome.used_fallback
        assert outcome.found_cells == {0: 5}


def _random_call(rng, num_cells, *, outside):
    """Seeded priors, a candidate set, and true cells for one search."""
    devices = int(rng.integers(1, 4))
    priors = [rng.dirichlet(np.ones(num_cells)) for _ in range(devices)]
    size = int(rng.integers(2, num_cells - 1))
    candidates = sorted(int(c) for c in rng.choice(num_cells, size, replace=False))
    others = [cell for cell in range(num_cells) if cell not in candidates]
    true_cells = [int(rng.choice(candidates)) for _ in range(devices)]
    if outside:
        true_cells[int(rng.integers(devices))] = int(rng.choice(others))
    return priors, candidates, true_cells


class TestSynchronousModes:
    """The fault-free search is the zero-fault case of the resilient one."""

    NUM_CELLS = 12

    def _resilient(self, pager):
        injector = FaultInjector(FaultModel(), np.random.default_rng(0))
        return ResilientPager(pager, injector, RecoveryPolicy(max_retries=0))

    @pytest.mark.parametrize("pager", ["blanket", "heuristic"])
    @pytest.mark.parametrize("seed", range(10))
    def test_equal_when_every_device_is_a_candidate(self, pager, seed):
        rng = np.random.default_rng(seed)
        priors, candidates, true_cells = _random_call(
            rng, self.NUM_CELLS, outside=False
        )
        d = int(rng.integers(1, 5))
        plain = PAGER_FACTORIES[pager]().search(
            priors, candidates, true_cells, d, self.NUM_CELLS
        )
        resilient = self._resilient(pager).search(
            priors, candidates, true_cells, d, self.NUM_CELLS
        )
        assert resilient == plain
        assert plain.complete and not plain.used_fallback

    @pytest.mark.parametrize("seed", range(10))
    def test_sweep_at_d_plus_one_versus_degrade_at_d(self, seed):
        rng = np.random.default_rng(seed)
        priors, candidates, true_cells = _random_call(
            rng, self.NUM_CELLS, outside=True
        )
        d = int(rng.integers(1, 5))
        rounds = min(d, len(candidates))  # the plan's group count
        plain = HeuristicPager().search(
            priors, candidates, true_cells, rounds, self.NUM_CELLS
        )
        resilient = self._resilient("heuristic").search(
            priors, candidates, true_cells, rounds, self.NUM_CELLS
        )
        outside = tuple(
            device for device, cell in enumerate(true_cells)
            if cell not in candidates
        )
        assert plain.used_fallback and plain.complete
        assert plain.rounds_used == rounds + 1
        assert plain.found_cells == dict(enumerate(true_cells))
        assert not resilient.used_fallback
        assert resilient.rounds_used == rounds
        assert resilient.failed_devices == outside
        assert resilient.cells_paged == len(candidates)


def _scalar_sub_rows(priors, cells, floor=1e-12):
    """The per-cell formula ``build_sub_instance`` must reproduce bit for bit."""
    rows = []
    for prior in priors:
        restricted = np.array([max(float(prior[cell]), floor) for cell in cells])
        rows.append(restricted / restricted.sum())
    return np.array(rows)


def _random_admission(rng):
    """Seeded priors (some strided views) and an unsorted candidate set.

    About a fifth of the prior entries are zero, so candidate cells with
    zero mass, and now and then a device with no mass on any candidate,
    come up often.
    """
    num_cells = int(rng.integers(2, 40))
    devices = int(rng.integers(1, 6))
    priors = []
    for _ in range(devices):
        prior = rng.dirichlet(np.ones(num_cells) * rng.uniform(0.2, 2.0))
        prior[rng.random(num_cells) < 0.2] = 0.0
        if rng.random() < 0.5:  # a non-contiguous view of the same values
            padded = np.zeros(2 * num_cells)
            padded[::2] = prior
            prior = padded[::2]
        priors.append(prior)
    size = int(rng.integers(1, num_cells + 1))
    cells = [int(cell) for cell in rng.choice(num_cells, size, replace=False)]
    return priors, cells


class TestArrayAdmission:
    """The array-native sub-instance and plan step equal the scalar ones."""

    def test_sub_instance_rows_match_scalar_formula(self):
        rng = np.random.default_rng(1405)
        for _ in range(500):
            priors, cells = _random_admission(rng)
            instance, mapped = build_sub_instance(priors, cells, max_rounds=3)
            assert mapped == tuple(cells)
            expected = _scalar_sub_rows(priors, cells)
            assert instance.float_rows().tobytes() == expected.tobytes()
            assert instance.rows == tuple(tuple(row) for row in expected)

    def test_sub_instance_of_a_zero_mass_device_is_uniform(self):
        priors = [np.array([1.0, 0.0, 0.0, 0.0])]
        instance, _cells = build_sub_instance(priors, [3, 1, 2], max_rounds=2)
        assert instance.rows == ((1 / 3, 1 / 3, 1 / 3),)

    def test_heuristic_plan_matches_registry_strategy(self, backend):
        rng = np.random.default_rng(2602)
        planner = get_solver("heuristic")
        for _ in range(300):
            priors, cells = _random_admission(rng)
            d = int(rng.integers(1, 5))
            instance, cells = build_sub_instance(priors, cells, max_rounds=d)
            expected = _global_groups(planner(instance).strategy, cells)
            assert HeuristicPager().plan(instance, cells) == expected
            assert AdaptivePager().plan(instance, cells) == expected

    def test_gathered_online_priors_equal_estimated_prior_bytes(self, backend):
        # Online priors are one gather of the visit-count rows; each row
        # must be the bytes of the per-device estimate.
        rng = np.random.default_rng(3107)
        topology = CellTopology.hexagonal_disk(2)
        models = [RandomWalk(topology, stay_probability=0.3) for _ in range(7)]
        config = SimulationConfig(
            horizon=60,
            call_rate=1.5,
            arrival_mode="poisson",
            channel_capacity=1,
            prior_smoothing=0.37,
        )
        simulator = CellularSimulator(
            topology, LocationAreaPlan.by_bfs(topology, 3), models, config, rng=rng
        )
        simulator.run()
        for _ in range(200):
            size = int(rng.integers(1, 8))
            participants = tuple(sorted(rng.choice(7, size, replace=False).tolist()))
            request = ConferenceCallRequest(time=60, participants=participants)
            _cells, priors = simulator._call_inputs(request)
            assert priors.shape == (size, topology.num_cells)
            for row, device in zip(priors, participants):
                assert row.tobytes() == simulator.estimated_prior(device).tobytes()

    def test_pager_groups_match_registry_over_gathered_priors(self, backend):
        rng = np.random.default_rng(2207)
        planner = get_solver("heuristic")
        for _ in range(300):
            priors, cells = _random_admission(rng)
            stacked = np.array(priors)
            d = int(rng.integers(1, 5))
            instance, cells = build_sub_instance(stacked, cells, max_rounds=d)
            rows, _ = build_sub_instance(priors, cells, max_rounds=d)
            assert instance.float_rows().tobytes() == rows.float_rows().tobytes()
            expected = _global_groups(planner(instance).strategy, cells)
            assert HeuristicPager().plan(instance, cells) == expected

    def test_sub_instance_leaves_stacked_priors_unchanged(self):
        priors = np.array([[0.5, 0.0, 0.5], [0.2, 0.3, 0.5]])
        before = priors.copy()
        build_sub_instance(priors, [2, 1], max_rounds=2)
        assert np.array_equal(priors, before)

    def test_exact_instance_plans_through_the_reference(self):
        instance = PagingInstance(
            [[Fraction(1, 2), Fraction(1, 4), Fraction(1, 8), Fraction(1, 8)]], 2
        )
        cells = (40, 10, 30, 20)
        expected = _global_groups(get_solver("heuristic")(instance).strategy, cells)
        assert HeuristicPager().plan(instance, cells) == expected


class TestCostAwarePager:
    def test_finds_devices(self, rng):
        costs = [float(v) for v in rng.uniform(1.0, 5.0, size=8)]
        pager = CostAwarePager(costs)
        priors = [rng.dirichlet(np.ones(8)) for _ in range(2)]
        outcome = pager.search(
            priors, list(range(8)), true_cells=[2, 6], max_rounds=3, num_cells=8
        )
        assert outcome.found_cells == {0: 2, 1: 6}
        assert outcome.rounds_used <= 3

    def test_unit_costs_match_heuristic_pager(self, rng):
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
        with pytest.raises(SimulationError):
            CostAwarePager([1.0, 0.0])
        pager = CostAwarePager([1.0] * 4)
        with pytest.raises(SimulationError, match="cost table"):
            pager.search(
                uniform_priors(1, 8), [0, 1], true_cells=[0], max_rounds=2,
                num_cells=8,
            )

    def test_cost_of_cells(self):
        pager = CostAwarePager([1.0, 2.0, 3.0])
        assert pager.cost_of_cells([0, 2]) == 4.0
