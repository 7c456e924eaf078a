"""Time-varying operation: conditional priors and joint paging/registration.

The paper's planner consumes a *static* per-device location prior.  Real
systems do not enjoy one: a device's distribution is conditioned on when
and where it last reported, and it spreads as the report ages (the
cell-residence-time effect Koukoutsidis et al. measure for sequential
paging, PAPERS.md).  This module derives that evolution analytically and
feeds it back into the paper's machinery:

* :func:`transition_matrix` — one-step cell-to-cell transition matrix of a
  mobility model: closed form for :class:`~repro.cellnet.mobility.RandomWalk`
  and :class:`~repro.cellnet.mobility.GravityMobility` (their step rule is a
  Markov kernel over the topology), empirical for the stateful
  :class:`~repro.cellnet.mobility.RandomWaypoint` (estimated from one long
  seeded trace).
* :class:`BeliefPropagator` — matrix-power belief propagation: the
  conditional location distribution ``k`` steps after a report from cell
  ``s`` is ``e_s P^k``, computed via cached binary powers of ``P``.
* :func:`evaluate_registration` — the per-device cost of a registration
  policy (timer period or distance threshold) under *re-planned* paging:
  every reachable report age gets its own conditional prior and its own
  Fig. 1 plan; the priors of one candidate-set size are planned as one
  array by the ``heuristic`` solver's ``run_batch`` entry.
* :func:`hmy_fixed_point` — the Hajek–Mitzel–Yang iteration (PAPERS.md:
  *Paging and Registration in Cellular Networks: Jointly Optimal Policies
  and an Iterative Algorithm*): pick the registration threshold whose
  re-planned paging gives the lowest combined wireless cost.  A
  threshold's paging is planned from its own conditional priors
  (:func:`evaluate_registration` has no incumbent input), so the first
  sweep over the candidates already lands on the fixed point, and a
  second sweep, run only when that argmin is not the first candidate,
  re-evaluates every other threshold to confirm it.

The simulator consumes the same machinery through
``SimulationConfig(prior_mode="conditional")``: each device's prior is
evolved from its last *successful* report (the location registry's belief,
which already accounts for PR 4's update-loss and staleness faults) instead
of a static visit-count profile.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs.instrument import count, span
from ..solvers import get_solver
from .mobility import GravityMobility, MobilityModel, RandomWalk
from .paging import floor_and_renormalize
from .topology import CellTopology

#: Registration policy families the joint iteration optimizes over.
REGISTRATION_KINDS: Tuple[str, ...] = ("timer", "distance")

# ---------------------------------------------------------------------------
# Transition matrices
# ---------------------------------------------------------------------------

def random_walk_transition_matrix(
    model: RandomWalk, topology: CellTopology
) -> np.ndarray:
    """Closed-form kernel of :class:`RandomWalk`: stay or hop uniformly."""
    c = topology.num_cells
    matrix = np.zeros((c, c))
    stay = model.stay_probability
    for cell in range(c):
        neighbors = topology.neighbors(cell)
        if not neighbors:
            matrix[cell, cell] = 1.0
            continue
        matrix[cell, cell] = stay
        share = (1.0 - stay) / len(neighbors)
        for neighbor in neighbors:
            matrix[cell, neighbor] += share
    return matrix


def gravity_transition_matrix(
    model: GravityMobility, topology: CellTopology
) -> np.ndarray:
    """Closed-form kernel of :class:`GravityMobility` (attraction-weighted)."""
    c = topology.num_cells
    attraction = model.attraction
    matrix = np.zeros((c, c))
    for cell in range(c):
        candidates = [cell] + list(topology.neighbors(cell))
        weights = np.array(
            [attraction[cell] * model.stay_bonus]
            + [attraction[neighbor] for neighbor in candidates[1:]]
        )
        weights = weights / weights.sum()
        for candidate, weight in zip(candidates, weights):
            matrix[cell, candidate] += float(weight)
    return matrix


def empirical_transition_matrix(
    model: MobilityModel,
    topology: CellTopology,
    *,
    samples: int = 20_000,
    rng: np.random.Generator,
    start_cell: int = 0,
) -> np.ndarray:
    """Estimate a one-step kernel from one long seeded trace.

    Stateful models (:class:`RandomWaypoint`) have no closed-form kernel;
    this walks ``samples`` continuous steps — continuity keeps the model's
    per-device path state coherent — and normalizes the observed transition
    counts.  Rows the trace never left from fall back to the topology's
    lazy-motion support (stay or hop to a neighbor, uniformly), so the
    result is always row-stochastic.
    """
    if samples < 1:
        raise SimulationError("samples must be at least 1")
    c = topology.num_cells
    counts = np.zeros((c, c))
    cell = int(start_cell)
    for _ in range(samples):
        nxt = model.step(cell, rng)
        counts[cell, nxt] += 1.0
        cell = nxt
    matrix = np.zeros((c, c))
    for row in range(c):
        total = counts[row].sum()
        if total > 0:
            matrix[row] = counts[row] / total
        else:
            support = [row] + list(topology.neighbors(row))
            matrix[row, support] = 1.0 / len(support)
    return matrix


def transition_matrix(
    model: MobilityModel,
    topology: CellTopology,
    *,
    rng: Optional[np.random.Generator] = None,
    samples: int = 20_000,
) -> np.ndarray:
    """The one-step transition matrix of any mobility model.

    Analytic for :class:`RandomWalk` and :class:`GravityMobility`; every
    other model is estimated empirically, which needs a seeded generator
    (``rng``) so the derived matrix is reproducible.
    """
    if isinstance(model, RandomWalk):
        return random_walk_transition_matrix(model, topology)
    if isinstance(model, GravityMobility):
        return gravity_transition_matrix(model, topology)
    if rng is None:
        raise SimulationError(
            f"{type(model).__name__} has no closed-form kernel; pass a seeded "
            "rng for empirical estimation"
        )
    return empirical_transition_matrix(model, topology, samples=samples, rng=rng)


def validate_transition_matrix(matrix: np.ndarray) -> np.ndarray:
    """Check a square row-stochastic matrix; returns it as float64."""
    matrix = np.asarray(matrix, dtype=float)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise SimulationError(
            f"transition matrix must be square, got shape {matrix.shape}"
        )
    if np.any(matrix < 0):
        raise SimulationError("transition matrix entries must be non-negative")
    if not np.allclose(matrix.sum(axis=1), 1.0, atol=1e-9):
        raise SimulationError("transition matrix rows must sum to 1")
    return matrix


def stationary_from_matrix(
    matrix: np.ndarray, *, tol: float = 1e-12, max_iterations: int = 10_000
) -> np.ndarray:
    """Long-run occupancy by deterministic power iteration (no sampling)."""
    matrix = validate_transition_matrix(matrix)
    c = matrix.shape[0]
    belief = np.full(c, 1.0 / c)
    for _ in range(max_iterations):
        updated = belief @ matrix
        if float(np.abs(updated - belief).sum()) < tol:
            belief = updated
            break
        belief = updated
    return belief / belief.sum()


class BeliefPropagator:
    """Matrix-power belief propagation over one transition matrix.

    ``distribution(cell, k)`` is the conditional location distribution
    ``e_cell P^k`` — where a device that reported from ``cell`` ``k`` steps
    ago is now, absent any further information.  Powers of two of ``P`` are
    cached, so a query costs ``O(log k)`` vector-matrix products.
    """

    def __init__(self, matrix: np.ndarray) -> None:
        self._powers: List[np.ndarray] = [validate_transition_matrix(matrix)]

    @property
    def num_cells(self) -> int:
        return self._powers[0].shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return self._powers[0]

    def _power(self, index: int) -> np.ndarray:
        while len(self._powers) <= index:
            last = self._powers[-1]
            self._powers.append(last @ last)
        return self._powers[index]

    def evolve(self, belief: np.ndarray, steps: int) -> np.ndarray:
        """``belief @ P^steps`` via the binary expansion of ``steps``."""
        if steps < 0:
            raise SimulationError("steps must be non-negative")
        result = np.asarray(belief, dtype=float)
        if result.shape != (self.num_cells,):
            raise SimulationError(
                f"belief must have shape ({self.num_cells},), got {result.shape}"
            )
        bit = 0
        while steps:
            if steps & 1:
                result = result @ self._power(bit)
            steps >>= 1
            bit += 1
        return result

    def distribution(self, cell: int, steps: int) -> np.ndarray:
        """Conditional location distribution ``steps`` after a fix at ``cell``."""
        if not 0 <= cell < self.num_cells:
            raise SimulationError(f"cell {cell} outside 0..{self.num_cells - 1}")
        belief = np.zeros(self.num_cells)
        belief[cell] = 1.0
        return self.evolve(belief, steps)


# ---------------------------------------------------------------------------
# Registration cycle models
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RegistrationCycle:
    """One report-to-report cycle as seen from the last report cell.

    ``ages`` and ``age_weights`` describe the age of the last report at a
    uniformly random observation time (renewal theory: the weight of age
    ``k`` is the probability the cycle has survived ``k`` steps).
    ``conditionals[i]`` is the device's location distribution over
    ``candidate_cells`` at age ``ages[i]``; ``report_rate`` is expected
    reports per time step (the uplink cost rate).
    """

    start_cell: int
    candidate_cells: Tuple[int, ...]
    ages: Tuple[int, ...]
    age_weights: Tuple[float, ...]
    conditionals: Tuple[np.ndarray, ...]
    report_rate: float


def timer_cycle(
    propagator: BeliefPropagator, start_cell: int, period: int
) -> RegistrationCycle:
    """The timer policy's cycle: report every ``period`` steps, regardless.

    The age at a random time is uniform over ``0..period-1``; the timer
    gives no spatial bound, so the candidate set is the whole network.
    """
    if period < 1:
        raise SimulationError("timer period must be at least 1")
    cells = tuple(range(propagator.num_cells))
    ages = tuple(range(period))
    conditionals = []
    belief = propagator.distribution(start_cell, 0)
    for age in ages:
        if age:
            belief = propagator.evolve(belief, 1)
        conditionals.append(belief.copy())
    return RegistrationCycle(
        start_cell=start_cell,
        candidate_cells=cells,
        ages=ages,
        age_weights=tuple(1.0 for _ in ages),
        conditionals=tuple(conditionals),
        report_rate=1.0 / period,
    )


def distance_cycle(
    propagator: BeliefPropagator,
    topology: CellTopology,
    start_cell: int,
    threshold: int,
    *,
    max_age: int = 512,
    tol: float = 1e-9,
) -> RegistrationCycle:
    """The distance policy's cycle: report on drifting ``threshold`` hops.

    Between reports the device provably sits strictly inside the ring
    (``hop_distance < threshold`` — the candidate-set invariant the
    simulator's ring fix restores), so the belief evolves under the
    sub-stochastic restriction of ``P`` to the ring interior.  The mass
    still inside after ``k`` steps is the cycle's survival probability;
    ages are truncated once the surviving mass drops below ``tol`` (or at
    ``max_age``), with the tail's weight folded into the report rate.
    """
    if threshold < 1:
        raise SimulationError("distance threshold must be at least 1")
    if max_age < 0:
        raise SimulationError(f"max_age must be non-negative, got {max_age}")
    interior = tuple(
        np.flatnonzero(topology.hop_distances[start_cell] < threshold).tolist()
    )
    index_of = {cell: j for j, cell in enumerate(interior)}
    sub = propagator.matrix[np.ix_(interior, interior)]
    belief = np.zeros(len(interior))
    belief[index_of[start_cell]] = 1.0
    ages: List[int] = []
    weights: List[float] = []
    conditionals: List[np.ndarray] = []
    expected_cycle = 0.0
    for age in range(max_age + 1):
        survival = float(belief.sum())
        if survival < tol:
            break
        ages.append(age)
        weights.append(survival)
        conditionals.append(belief / survival)
        expected_cycle += survival
        belief = belief @ sub
    return RegistrationCycle(
        start_cell=start_cell,
        candidate_cells=interior,
        ages=tuple(ages),
        age_weights=tuple(weights),
        conditionals=tuple(conditionals),
        report_rate=1.0 / expected_cycle,
    )


def registration_cycle(
    propagator: BeliefPropagator,
    topology: CellTopology,
    start_cell: int,
    *,
    kind: str,
    threshold: int,
    max_age: int = 512,
    tol: float = 1e-9,
) -> RegistrationCycle:
    """Dispatch to :func:`timer_cycle` / :func:`distance_cycle` by kind."""
    if kind == "timer":
        return timer_cycle(propagator, start_cell, threshold)
    if kind == "distance":
        return distance_cycle(
            propagator, topology, start_cell, threshold, max_age=max_age, tol=tol
        )
    raise SimulationError(
        f"unknown registration kind {kind!r}; choose from {REGISTRATION_KINDS}"
    )


# ---------------------------------------------------------------------------
# Policy evaluation with re-planned paging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicyEvaluation:
    """Expected per-step wireless cost of one registration threshold.

    ``combined_cost = report_cost * report_rate + call_rate * paging_per_call``
    — the Section 1.1 trade-off with both sides priced per time step.
    """

    kind: str
    threshold: int
    report_rate: float
    #: expected cells paged by the re-planned strategy at a random call
    paging_per_call: float
    combined_cost: float
    #: conditional priors planned (across start cells and ages)
    plans: int


def _plan_expected_paging(
    cycles: Sequence[RegistrationCycle], max_rounds: int
) -> List[np.ndarray]:
    """The heuristic's expected paging at every age of every cycle.

    The conditionals of all cycles with the same number of candidate cells
    form one C-contiguous ``(rows, 1, cells)`` stack, floored like the
    simulator's paging priors and planned by one ``run_batch`` call.
    Returns one array of values per cycle, in age order.
    """
    planner = get_solver("heuristic")
    by_cells: Dict[int, List[int]] = {}
    for index, cycle in enumerate(cycles):
        by_cells.setdefault(len(cycle.candidate_cells), []).append(index)
    values: List[np.ndarray] = [np.empty(0)] * len(cycles)
    for cells, indices in by_cells.items():
        rows = np.array(
            [row for i in indices for row in cycles[i].conditionals],
            dtype=np.float64,
        )
        stack = floor_and_renormalize(rows).reshape(len(rows), 1, cells)
        planned = planner.run_batch(stack, max_rounds=min(max_rounds, cells))
        splits = np.cumsum([len(cycles[i].conditionals) for i in indices])
        for index, part in zip(indices, np.split(planned.values, splits[:-1])):
            values[index] = part
    return values


def evaluate_registration(
    topology: CellTopology,
    matrix: np.ndarray,
    *,
    kind: str,
    threshold: int,
    max_rounds: int,
    call_rate: float,
    report_cost: float = 1.0,
    start_cells: Optional[Sequence[int]] = None,
    start_weights: Optional[Sequence[float]] = None,
    max_age: int = 512,
    tol: float = 1e-9,
) -> PolicyEvaluation:
    """Per-step cost of one registration threshold under re-planned paging.

    Report locations are weighted by ``start_weights`` (default: the
    stationary distribution of ``matrix``, restricted to ``start_cells``
    when given).  For every start cell and reachable report age, the
    conditional prior is planned by the Fig. 1 heuristic and scored by its
    own expected paging; ages of one cycle are averaged by their renewal
    weights, starts by their weights.
    """
    if max_rounds < 1:
        raise SimulationError(f"max_rounds must be at least 1, got {max_rounds}")
    for name, rate in (("call_rate", call_rate), ("report_cost", report_cost)):
        if not (np.isfinite(rate) and rate >= 0):
            raise SimulationError(f"{name} must be finite and non-negative, got {rate}")
    propagator = BeliefPropagator(matrix)
    if propagator.num_cells != topology.num_cells:
        raise SimulationError(
            f"transition matrix covers {propagator.num_cells} cells, "
            f"the topology {topology.num_cells}"
        )
    if start_cells is None:
        start_cells = tuple(range(topology.num_cells))
    starts = tuple(int(cell) for cell in start_cells)
    if not all(0 <= cell < topology.num_cells for cell in starts):
        raise SimulationError(
            f"start cells must lie in 0..{topology.num_cells - 1}, got {list(starts)}"
        )
    if start_weights is None:
        stationary = stationary_from_matrix(matrix)
        weights = np.array([stationary[cell] for cell in starts])
    else:
        weights = np.asarray(list(start_weights), dtype=float)
        if weights.shape != (len(starts),):
            raise SimulationError("need one start weight per start cell")
    if not (np.all(np.isfinite(weights) & (weights >= 0)) and weights.sum() > 0):
        raise SimulationError("start weights must be finite, non-negative and non-zero")
    weights = weights / weights.sum()

    with span(
        "timevary.evaluate", kind=kind, threshold=threshold, starts=len(starts)
    ):
        cycles = [
            registration_cycle(
                propagator,
                topology,
                cell,
                kind=kind,
                threshold=threshold,
                max_age=max_age,
                tol=tol,
            )
            for cell in starts
        ]
        values = _plan_expected_paging(cycles, int(max_rounds))
        plans = sum(len(cycle.ages) for cycle in cycles)
        count("timevary.replans", plans)
        paging = 0.0
        report_rate = 0.0
        for weight, cycle, cycle_values in zip(weights, cycles, values):
            age_weights = np.asarray(cycle.age_weights)
            age_share = age_weights / age_weights.sum()
            paging += float(weight) * float(np.dot(age_share, cycle_values))
            report_rate += float(weight) * cycle.report_rate
    combined = report_cost * report_rate + call_rate * paging
    return PolicyEvaluation(
        kind=kind,
        threshold=int(threshold),
        report_rate=report_rate,
        paging_per_call=paging,
        combined_cost=combined,
        plans=plans,
    )


# ---------------------------------------------------------------------------
# The Hajek–Mitzel–Yang iteration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HMYStep:
    """One recorded step of the joint paging/registration loop."""

    iteration: int
    #: "paging" evaluated the first candidate under re-planned paging;
    #: "registration" is the cheapest threshold of one sweep
    phase: str
    evaluation: PolicyEvaluation


@dataclass(frozen=True)
class HMYResult:
    """The fixed point plus the full (monotone) cost trajectory."""

    kind: str
    threshold: int
    evaluation: PolicyEvaluation
    trajectory: Tuple[HMYStep, ...]
    converged: bool

    @property
    def costs(self) -> Tuple[float, ...]:
        return tuple(step.evaluation.combined_cost for step in self.trajectory)


def hmy_fixed_point(
    topology: CellTopology,
    matrix: np.ndarray,
    *,
    kind: str = "timer",
    candidates: Sequence[int],
    max_rounds: int,
    call_rate: float,
    report_cost: float = 1.0,
    start_cells: Optional[Sequence[int]] = None,
    max_iterations: int = 8,
    max_age: int = 512,
    tol: float = 1e-9,
) -> HMYResult:
    """The registration threshold with the lowest re-planned combined cost.

    Iteration 0 evaluates the first candidate threshold with its paging
    re-planned for its own conditional priors (a ``"paging"`` step).  Each
    later iteration sweeps ``candidates`` and records the threshold whose
    re-planned cost is lowest (a ``"registration"`` step, ties to the
    earlier candidate); the loop stops when that argmin is the incumbent
    or after ``max_iterations``.

    :func:`evaluate_registration` takes no incumbent input, so a sweep's
    costs do not depend on the incumbent: the result is the argmin of the
    first sweep.  When that argmin is not the first candidate, a second
    sweep re-evaluates every other threshold, finds the same argmin and
    stops.  The trajectory thus has two or three steps and is monotone
    non-increasing.
    """
    thresholds = tuple(int(t) for t in candidates)
    if not thresholds:
        raise SimulationError("need at least one candidate threshold")
    if len(set(thresholds)) != len(thresholds):
        raise SimulationError("candidate thresholds must be distinct")

    def evaluate(threshold: int) -> PolicyEvaluation:
        return evaluate_registration(
            topology,
            matrix,
            kind=kind,
            threshold=threshold,
            max_rounds=max_rounds,
            call_rate=call_rate,
            report_cost=report_cost,
            start_cells=start_cells,
            max_age=max_age,
            tol=tol,
        )

    with span("timevary.hmy", kind=kind, candidates=len(thresholds)):
        incumbent = thresholds[0]
        trajectory: List[HMYStep] = []
        current = evaluate(incumbent)
        trajectory.append(HMYStep(iteration=0, phase="paging", evaluation=current))
        converged = False
        for iteration in range(1, max_iterations + 1):
            sweep = {
                threshold: (current if threshold == incumbent else evaluate(threshold))
                for threshold in thresholds
            }
            best = min(sweep, key=lambda t: sweep[t].combined_cost)
            trajectory.append(
                HMYStep(
                    iteration=iteration,
                    phase="registration",
                    evaluation=sweep[best],
                )
            )
            if best == incumbent:
                converged = True
                break
            incumbent = best
            current = sweep[best]
    return HMYResult(
        kind=kind,
        threshold=incumbent,
        evaluation=trajectory[-1].evaluation,
        trajectory=tuple(trajectory),
        converged=converged,
    )
