"""Tests for the time-varying layer: kernels, belief propagation, HMY.

The module's promises, machine-checked: analytic transition matrices match
long empirical traces, matrix-power propagation matches brute-force matrix
powers, registration cycles conserve probability, policy evaluation batches
through the solver registry without changing the answer, and the HMY
alternation produces a monotone non-increasing cost trajectory that reaches
a fixed point.
"""

import dataclasses

import numpy as np
import pytest

from repro.cellnet import timevary
from repro.cellnet import (
    BeliefPropagator,
    CellTopology,
    GravityMobility,
    RandomWalk,
    RandomWaypoint,
    distance_cycle,
    empirical_transition_matrix,
    evaluate_registration,
    gravity_transition_matrix,
    hmy_fixed_point,
    random_walk_transition_matrix,
    registration_cycle,
    stationary_from_matrix,
    timer_cycle,
    transition_matrix,
    validate_transition_matrix,
)
from repro.errors import SimulationError
from repro.solvers import get_solver


@pytest.fixture
def topology():
    return CellTopology.hexagonal_disk(2)


class TestTransitionMatrices:
    def test_random_walk_rows_are_stochastic(self, topology):
        matrix = random_walk_transition_matrix(
            RandomWalk(topology, stay_probability=0.4), topology
        )
        assert matrix.shape == (topology.num_cells, topology.num_cells)
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_random_walk_matches_model_support(self, topology):
        walk = RandomWalk(topology, stay_probability=0.25)
        matrix = random_walk_transition_matrix(walk, topology)
        for cell in range(topology.num_cells):
            neighbors = topology.neighbors(cell)
            assert matrix[cell, cell] == pytest.approx(0.25)
            for neighbor in neighbors:
                assert matrix[cell, neighbor] == pytest.approx(
                    0.75 / len(neighbors)
                )

    def test_gravity_rows_are_stochastic_and_hotspot_biased(self, topology):
        attraction = [1.0 + (cell % 3) for cell in range(topology.num_cells)]
        model = GravityMobility(topology, attraction, stay_bonus=2.0)
        matrix = gravity_transition_matrix(model, topology)
        assert np.allclose(matrix.sum(axis=1), 1.0)
        # a more attractive neighbor draws more mass than a less attractive one
        for cell in range(topology.num_cells):
            neighbors = topology.neighbors(cell)
            for a in neighbors:
                for b in neighbors:
                    if attraction[a] > attraction[b]:
                        assert matrix[cell, a] > matrix[cell, b]

    def test_analytic_matches_empirical_random_walk(self, topology, rng):
        """The closed form agrees with a long trace of the actual model."""
        walk = RandomWalk(topology, stay_probability=0.4)
        analytic = random_walk_transition_matrix(walk, topology)
        empirical = empirical_transition_matrix(
            walk, topology, samples=120_000, rng=rng
        )
        assert np.abs(analytic - empirical).max() < 0.05

    def test_dispatch_is_analytic_for_closed_forms(self, topology):
        # no rng needed: these never sample
        walk_matrix = transition_matrix(RandomWalk(topology), topology)
        gravity_matrix = transition_matrix(
            GravityMobility(topology, [1.0] * topology.num_cells), topology
        )
        assert np.allclose(walk_matrix.sum(axis=1), 1.0)
        assert np.allclose(gravity_matrix.sum(axis=1), 1.0)

    def test_dispatch_requires_rng_for_stateful_models(self, topology):
        with pytest.raises(SimulationError, match="rng"):
            transition_matrix(RandomWaypoint(topology), topology)

    def test_empirical_waypoint_is_stochastic(self, topology, rng):
        matrix = transition_matrix(
            RandomWaypoint(topology), topology, rng=rng, samples=5_000
        )
        assert np.allclose(matrix.sum(axis=1), 1.0)

    def test_empirical_rejects_nonpositive_samples(self, topology, rng):
        with pytest.raises(SimulationError, match="samples"):
            empirical_transition_matrix(
                RandomWalk(topology), topology, samples=0, rng=rng
            )

    def test_validate_rejects_bad_matrices(self):
        with pytest.raises(SimulationError, match="square"):
            validate_transition_matrix(np.ones((2, 3)))
        with pytest.raises(SimulationError, match="non-negative"):
            validate_transition_matrix(np.array([[1.5, -0.5], [0.0, 1.0]]))
        with pytest.raises(SimulationError, match="sum"):
            validate_transition_matrix(np.array([[0.5, 0.4], [0.0, 1.0]]))


class TestBeliefPropagator:
    def test_matches_brute_force_matrix_power(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        propagator = BeliefPropagator(matrix)
        for steps in (0, 1, 2, 3, 7, 13, 64):
            expected = np.linalg.matrix_power(matrix, steps)
            for cell in (0, topology.num_cells - 1):
                assert np.allclose(
                    propagator.distribution(cell, steps), expected[cell]
                )

    def test_distribution_stays_normalized(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        propagator = BeliefPropagator(matrix)
        for steps in (0, 5, 100):
            assert propagator.distribution(3, steps).sum() == pytest.approx(1.0)

    def test_zero_steps_is_a_point_mass(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        belief = BeliefPropagator(matrix).distribution(4, 0)
        assert belief[4] == pytest.approx(1.0)
        assert belief.sum() == pytest.approx(1.0)

    def test_rejects_bad_inputs(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        propagator = BeliefPropagator(matrix)
        with pytest.raises(SimulationError, match="steps"):
            propagator.evolve(np.full(topology.num_cells, 1.0), -1)
        with pytest.raises(SimulationError, match="cell"):
            propagator.distribution(topology.num_cells, 1)
        with pytest.raises(SimulationError, match="shape"):
            propagator.evolve(np.ones(3), 1)

    def test_stationary_from_matrix_is_a_fixed_point(self, topology):
        attraction = [1.0 + (cell % 4) for cell in range(topology.num_cells)]
        matrix = gravity_transition_matrix(
            GravityMobility(topology, attraction), topology
        )
        stationary = stationary_from_matrix(matrix)
        assert stationary.sum() == pytest.approx(1.0)
        assert np.allclose(stationary @ matrix, stationary, atol=1e-8)


class TestRegistrationCycles:
    def test_timer_cycle_shape(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        cycle = timer_cycle(BeliefPropagator(matrix), 0, 5)
        assert cycle.ages == (0, 1, 2, 3, 4)
        assert cycle.report_rate == pytest.approx(0.2)
        assert cycle.candidate_cells == tuple(range(topology.num_cells))
        for conditional in cycle.conditionals:
            assert conditional.sum() == pytest.approx(1.0)

    def test_distance_cycle_confined_to_ring_interior(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        start = 0
        threshold = 2
        cycle = distance_cycle(
            BeliefPropagator(matrix), topology, start, threshold
        )
        for cell in cycle.candidate_cells:
            assert topology.hop_distance(start, cell) < threshold
        for conditional in cycle.conditionals:
            assert conditional.shape == (len(cycle.candidate_cells),)
            assert conditional.sum() == pytest.approx(1.0)

    def test_distance_cycle_report_rate_from_survival(self, topology):
        """1/rate is the expected cycle length = sum of survival weights."""
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        cycle = distance_cycle(BeliefPropagator(matrix), topology, 0, 2)
        assert 1.0 / cycle.report_rate == pytest.approx(sum(cycle.age_weights))
        # survival is non-increasing in age
        weights = list(cycle.age_weights)
        assert all(b <= a + 1e-12 for a, b in zip(weights, weights[1:]))

    def test_dispatch_rejects_unknown_kind(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        with pytest.raises(SimulationError, match="kind"):
            registration_cycle(
                BeliefPropagator(matrix), topology, 0, kind="psychic", threshold=2
            )

    def test_validation(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        propagator = BeliefPropagator(matrix)
        with pytest.raises(SimulationError, match="period"):
            timer_cycle(propagator, 0, 0)
        with pytest.raises(SimulationError, match="threshold"):
            distance_cycle(propagator, topology, 0, 0)


class TestEvaluateRegistration:
    def test_batched_and_loop_planners_agree(self, topology, monkeypatch):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        batched = evaluate_registration(
            topology, matrix, kind="timer", threshold=5, max_rounds=3,
            call_rate=0.1, planner="heuristic",
        )
        # The same entry without its batch adapter takes the per-instance loop.
        scalar_only = dataclasses.replace(
            get_solver("heuristic"), batch_adapter=None
        )
        monkeypatch.setattr(timevary, "get_solver", lambda name: scalar_only)
        loop = evaluate_registration(
            topology, matrix, kind="timer", threshold=5, max_rounds=3,
            call_rate=0.1, planner="heuristic",
        )
        assert batched.batched
        assert not loop.batched
        assert batched.combined_cost == pytest.approx(loop.combined_cost)
        assert batched.plans == loop.plans

    def test_cost_decomposition(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        evaluation = evaluate_registration(
            topology, matrix, kind="distance", threshold=2, max_rounds=3,
            call_rate=0.25, report_cost=2.0,
        )
        assert evaluation.combined_cost == pytest.approx(
            2.0 * evaluation.report_rate + 0.25 * evaluation.paging_per_call
        )
        assert evaluation.paging_per_call >= 1.0

    def test_more_frequent_timer_reports_cheapen_paging(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        frequent = evaluate_registration(
            topology, matrix, kind="timer", threshold=2, max_rounds=3,
            call_rate=0.1,
        )
        rare = evaluate_registration(
            topology, matrix, kind="timer", threshold=20, max_rounds=3,
            call_rate=0.1,
        )
        assert frequent.report_rate > rare.report_rate
        assert frequent.paging_per_call < rare.paging_per_call

    def test_validation(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        with pytest.raises(SimulationError, match="call_rate"):
            evaluate_registration(
                topology, matrix, kind="timer", threshold=2, max_rounds=3,
                call_rate=-0.1,
            )
        with pytest.raises(SimulationError, match="start weight"):
            evaluate_registration(
                topology, matrix, kind="timer", threshold=2, max_rounds=3,
                call_rate=0.1, start_cells=[0, 1], start_weights=[1.0],
            )


class TestHMYIteration:
    def test_trajectory_is_monotone_and_converges(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        result = hmy_fixed_point(
            topology, matrix, kind="timer", candidates=[2, 5, 10, 20],
            max_rounds=3, call_rate=0.1,
        )
        costs = result.costs
        assert all(b <= a + 1e-12 for a, b in zip(costs, costs[1:]))
        assert result.converged
        assert result.threshold in (2, 5, 10, 20)
        assert result.evaluation.combined_cost == pytest.approx(costs[-1])

    def test_fixed_point_is_the_sweep_minimum(self, topology):
        """Deterministic evaluation: the fixed point is the global argmin."""
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        candidates = [1, 2, 3]
        result = hmy_fixed_point(
            topology, matrix, kind="distance", candidates=candidates,
            max_rounds=3, call_rate=0.1,
        )
        sweep = {
            threshold: evaluate_registration(
                topology, matrix, kind="distance", threshold=threshold,
                max_rounds=3, call_rate=0.1,
            ).combined_cost
            for threshold in candidates
        }
        assert result.threshold == min(sweep, key=lambda t: sweep[t])
        assert result.evaluation.combined_cost == pytest.approx(
            sweep[result.threshold]
        )

    def test_phases_alternate(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        result = hmy_fixed_point(
            topology, matrix, kind="timer", candidates=[5, 2],
            max_rounds=3, call_rate=0.1,
        )
        assert result.trajectory[0].phase == "paging"
        assert all(
            step.phase == "registration" for step in result.trajectory[1:]
        )

    def test_validation(self, topology):
        matrix = random_walk_transition_matrix(RandomWalk(topology), topology)
        with pytest.raises(SimulationError, match="candidate"):
            hmy_fixed_point(
                topology, matrix, kind="timer", candidates=[],
                max_rounds=3, call_rate=0.1,
            )
        with pytest.raises(SimulationError, match="distinct"):
            hmy_fixed_point(
                topology, matrix, kind="timer", candidates=[2, 2],
                max_rounds=3, call_rate=0.1,
            )
