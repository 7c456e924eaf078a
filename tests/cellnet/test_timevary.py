"""Tests for the time-varying layer: kernels, belief propagation, HMY.

The module's promises, machine-checked: analytic transition matrices match
long empirical traces, matrix-power propagation matches brute-force matrix
powers, registration cycles conserve probability, policy evaluation on
stacked priors equals planning each prior alone bit for bit, bad inputs
raise ``SimulationError``, and the HMY
alternation produces a monotone non-increasing cost trajectory that reaches
a fixed point.
"""

import inspect
import math

import numpy as np
import pytest

from repro.cellnet import (
    BeliefPropagator,
    CellTopology,
    GravityMobility,
    RandomWalk,
    RandomWaypoint,
    build_sub_instance,
    distance_cycle,
    empirical_transition_matrix,
    evaluate_registration,
    gravity_transition_matrix,
    hex_disk,
    hmy_fixed_point,
    random_walk_transition_matrix,
    registration_cycle,
    stationary_from_matrix,
    timer_cycle,
    transition_matrix,
    validate_transition_matrix,
)
from repro.core import PagingInstance
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


def _relabelled_disk(seed):
    """``hexagonal_disk(2)`` with its cells relabelled by a seeded permutation."""
    hexes = hex_disk(2)
    order = np.random.default_rng(seed).permutation(len(hexes))
    return CellTopology.from_hexes([hexes[int(i)] for i in order])


def _per_instance_evaluation(topology, matrix, kind, threshold, max_rounds, call_rate):
    """Reference: one floored ``PagingInstance`` per conditional, planned alone.

    Each conditional is floored at 1e-12 and renormalized with a per-row
    ``sum()``, then planned by a scalar ``heuristic`` call; ages and starts
    are averaged in the same order as ``evaluate_registration``.
    """
    planner = get_solver("heuristic")
    propagator = BeliefPropagator(matrix)
    stationary = stationary_from_matrix(matrix)
    weights = np.array([stationary[cell] for cell in range(topology.num_cells)])
    weights = weights / weights.sum()
    paging = 0.0
    report_rate = 0.0
    plans = 0
    for weight, start in zip(weights, range(topology.num_cells)):
        cycle = registration_cycle(
            propagator, topology, start, kind=kind, threshold=threshold
        )
        values = []
        for conditional in cycle.conditionals:
            row = np.maximum(conditional, 1e-12)
            row = row / row.sum()
            rounds = min(max_rounds, row.shape[0])
            instance = PagingInstance([row.tolist()], rounds, allow_zero=True)
            values.append(planner(instance).expected_paging)
        plans += len(values)
        age_weights = np.asarray(cycle.age_weights)
        age_share = age_weights / age_weights.sum()
        paging += float(weight) * float(np.dot(age_share, np.asarray(values)))
        report_rate += float(weight) * cycle.report_rate
    return paging, 1.0 * report_rate + call_rate * paging, plans


class TestEvaluateRegistration:
    @pytest.mark.parametrize("relabel", [None, 11])
    @pytest.mark.parametrize(
        "kind, threshold",
        [("timer", 2), ("timer", 5), ("distance", 1), ("distance", 2)],
    )
    def test_stacked_plans_equal_per_instance_plans(
        self, backend, relabel, kind, threshold
    ):
        """The stacked path is bit-identical to planning each prior alone."""
        topology = (
            CellTopology.hexagonal_disk(2) if relabel is None
            else _relabelled_disk(relabel)
        )
        matrix = random_walk_transition_matrix(
            RandomWalk(topology, stay_probability=0.4), topology
        )
        evaluation = evaluate_registration(
            topology, matrix, kind=kind, threshold=threshold, max_rounds=3,
            call_rate=0.1,
        )
        paging, combined, plans = _per_instance_evaluation(
            topology, matrix, kind, threshold, 3, 0.1
        )
        assert evaluation.paging_per_call == paging
        assert evaluation.combined_cost == combined
        assert evaluation.plans == plans

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


def _evaluate(topology, matrix, **overrides):
    options = dict(kind="timer", threshold=2, max_rounds=3, call_rate=0.1)
    options.update(overrides)
    return evaluate_registration(topology, matrix, **options)


def _fixed_point(topology, matrix, **overrides):
    options = dict(kind="timer", candidates=[1, 2], max_rounds=3, call_rate=0.1)
    options.update(overrides)
    return hmy_fixed_point(topology, matrix, **options)


class TestRejectsBadInputs:
    """Bad inputs raise ``SimulationError`` instead of a wrong or NaN cost."""

    @pytest.fixture
    def matrix(self, topology):
        return random_walk_transition_matrix(RandomWalk(topology), topology)

    @pytest.mark.parametrize("entry", [_evaluate, _fixed_point])
    @pytest.mark.parametrize("max_rounds", [0, -5])
    def test_max_rounds_below_one(self, topology, matrix, entry, max_rounds):
        with pytest.raises(SimulationError, match="max_rounds"):
            entry(topology, matrix, max_rounds=max_rounds)

    @pytest.mark.parametrize("entry", [_evaluate, _fixed_point])
    @pytest.mark.parametrize("name", ["call_rate", "report_cost"])
    @pytest.mark.parametrize("value", [math.nan, math.inf, -0.5])
    def test_rates_must_be_finite_and_non_negative(
        self, topology, matrix, entry, name, value
    ):
        with pytest.raises(SimulationError, match=name):
            entry(topology, matrix, **{name: value})

    @pytest.mark.parametrize("entry", [_evaluate, _fixed_point])
    @pytest.mark.parametrize("kind", ["timer", "distance"])
    @pytest.mark.parametrize("cell", [-1, 99])
    def test_start_cells_outside_the_network(
        self, topology, matrix, entry, kind, cell
    ):
        with pytest.raises(SimulationError, match="start cells"):
            entry(topology, matrix, kind=kind, start_cells=[cell])

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_start_weights_must_be_finite(self, topology, matrix, weight):
        with pytest.raises(SimulationError, match="start weights"):
            _evaluate(
                topology, matrix, start_cells=[0, 1], start_weights=[1.0, weight]
            )

    @pytest.mark.parametrize("entry", [_evaluate, _fixed_point])
    @pytest.mark.parametrize("radius", [1, 3])
    def test_matrix_must_cover_the_topology(self, topology, entry, radius):
        other = CellTopology.hexagonal_disk(radius)
        matrix = random_walk_transition_matrix(RandomWalk(other), other)
        with pytest.raises(SimulationError, match="transition matrix covers"):
            entry(topology, matrix, kind="distance")

    def test_max_age_must_be_non_negative(self, topology, matrix):
        with pytest.raises(SimulationError, match="max_age"):
            _evaluate(topology, matrix, kind="distance", max_age=-1)

    def test_one_round_is_still_accepted(self, topology, matrix):
        one = _evaluate(topology, matrix, max_rounds=1)
        assert one.paging_per_call == pytest.approx(topology.num_cells)


class TestNoCallerChoice:
    """The HMY path always plans with ``heuristic`` and one prior floor."""

    def test_hmy_path_takes_no_planner(self):
        for function in (evaluate_registration, hmy_fixed_point):
            assert "planner" not in inspect.signature(function).parameters

    def test_sub_instances_take_no_floor(self):
        assert "floor" not in inspect.signature(build_sub_instance).parameters
