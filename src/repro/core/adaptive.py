"""Adaptive paging strategies (Section 5 of the paper).

The paper's heuristic extends naturally to an adaptive strategy: after each
round, compute the conditional location distributions of the devices not yet
found (they are known to lie in the unpaged cells), re-run the Fig. 1
algorithm on the conditioned sub-instance with the remaining round budget,
and page its first group.  The paper leaves the performance ratio of this
adaptive scheme open; this module makes it executable and measurable.

The same idea applies to Section 5's own generalizations: when the goal is
to find *k of m* devices (Signature; Yellow Pages is ``k = 1``), the devices
found so far reduce the outstanding quorum and the continuation is a smaller
Signature problem.  The Conference Call problem is the quorum-``m`` case, so
one engine serves both: each routine below takes the quorum and a planner
``plan(sub_instance, outstanding)`` as inputs.

* Expected paging of a replanning policy is computed *exactly* by recursing
  over the subsets of devices found in each round (devices are independent,
  so outcome probabilities factor), and validated by Monte-Carlo simulation.
* The exact optimal adaptive policy, for small instances, is a dynamic
  program over ``(cells already paged, devices still missing, outstanding
  quorum, rounds left)`` — the missing devices' conditional distributions
  are their priors restricted to the unpaged cells, which the mask
  determines::

      V(mask, B, k, t) = min over non-empty ext of the complement of
          |ext| + sum over found-patterns of B leaving k' > 0 outstanding
                   Pr[pattern] * V(mask|ext, missing, k', t-1)

  with ``V = 0`` once the quorum is met and the last round forced to page
  everything left.  For Conference Call the value is a true lower bound on
  every adaptive (and hence every oblivious) strategy, so
  ``optimal_oblivious / optimal_adaptive`` measures the *adaptivity gap* —
  experiment E19.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, FrozenSet, List, Optional, Protocol, Sequence, Tuple

import numpy as np

from ..errors import InvalidStrategyError, SolverLimitError
from .exact import _popcount_table, _subset_sums, _zero_one
from .heuristic import conference_call_heuristic
from .instance import Number, PagingInstance
from .signature import _check_quorum, signature_heuristic
from .strategy import Strategy

#: Cell cap for the exact optimal adaptive DP (3^c-flavored state space).
MAX_ADAPTIVE_CELLS = 12


class _HasStrategy(Protocol):
    strategy: Strategy


Planner = Callable[[PagingInstance], _HasStrategy]
QuorumPlanner = Callable[[PagingInstance, int], _HasStrategy]


@dataclass(frozen=True)
class AdaptiveTrace:
    """One adaptive search run.

    ``groups`` are the per-round groups (original cell ids) and
    ``devices_found`` the devices that answered, in id order.
    """

    groups: Tuple[Tuple[int, ...], ...]
    cells_paged: int
    rounds_used: int
    devices_found: Tuple[int, ...]


@dataclass(frozen=True)
class AdaptiveOptimalResult:
    """The optimal adaptive expected paging, with the first-round group."""

    expected_paging: Number
    first_group: Tuple[int, ...]


def _conference_plan(planner: Planner) -> QuorumPlanner:
    """A Conference Call planner as a quorum planner (the quorum is all left)."""
    return lambda sub, _outstanding: planner(sub)


def _plan_next_group(
    instance: PagingInstance,
    device_subset: Sequence[int],
    cell_subset: Sequence[int],
    outstanding: int,
    rounds_left: int,
    plan: QuorumPlanner,
) -> Tuple[int, ...]:
    """The cells (original ids) the adaptive policy pages next."""
    cells = tuple(cell_subset)
    if rounds_left <= 1 or len(cells) == 1:
        return cells
    effective_rounds = min(rounds_left, len(cells))
    sub, mapping = instance.restrict(device_subset, cells, effective_rounds)
    first = plan(sub, outstanding).strategy.group(0)
    return tuple(sorted(mapping[j] for j in first))


def _search(
    instance: PagingInstance, quorum: int, locations: Sequence[int], plan: QuorumPlanner
) -> AdaptiveTrace:
    """Run one adaptive search until ``quorum`` devices have answered."""
    m = instance.num_devices
    if len(locations) != m:
        raise InvalidStrategyError(f"expected {m} locations, got {len(locations)}")
    remaining_devices = tuple(range(m))
    remaining_cells = tuple(range(instance.num_cells))
    outstanding = quorum
    rounds_left = instance.max_rounds
    paged = 0
    groups = []
    found: List[int] = []
    while outstanding > 0:
        if rounds_left <= 0:
            raise InvalidStrategyError(
                f"round budget exhausted before finding {quorum} of {m} devices"
            )
        group = _plan_next_group(
            instance, remaining_devices, remaining_cells, outstanding, rounds_left, plan
        )
        groups.append(group)
        paged += len(group)
        group_set = set(group)
        hits = [i for i in remaining_devices if locations[i] in group_set]
        found.extend(hits)
        outstanding -= len(hits)
        remaining_devices = tuple(
            i for i in remaining_devices if locations[i] not in group_set
        )
        remaining_cells = tuple(j for j in remaining_cells if j not in group_set)
        rounds_left -= 1
    return AdaptiveTrace(
        groups=tuple(groups),
        cells_paged=paged,
        rounds_used=len(groups),
        devices_found=tuple(sorted(found)),
    )


def _expected_paging(instance: PagingInstance, quorum: int, plan: QuorumPlanner) -> Number:
    """Exact expected paging of the replanning policy, by found-subset recursion.

    The branching is ``2^(remaining devices)`` per round, so this is intended
    for the small ``m`` regimes the paper targets (conference calls between a
    few parties).
    """
    one = _zero_one(instance)[1]

    def recurse(
        device_subset: Tuple[int, ...],
        cell_subset: Tuple[int, ...],
        outstanding: int,
        rounds_left: int,
    ) -> Number:
        group = _plan_next_group(
            instance, device_subset, cell_subset, outstanding, rounds_left, plan
        )
        cost: Number = len(group) * one
        group_set = set(group)
        next_cells = tuple(j for j in cell_subset if j not in group_set)
        if not next_cells:
            return cost  # everything paged; every device is necessarily found
        # Conditional probability that each device is inside the paged group.
        hit = []
        for i in device_subset:
            row = instance.row(i)
            mass = sum((row[j] for j in cell_subset), start=0 * one)
            inside = sum((row[j] for j in group), start=0 * one)
            hit.append(inside / mass)
        for pattern in itertools.product((False, True), repeat=len(device_subset)):
            still_needed = outstanding - sum(pattern)
            if still_needed <= 0:
                continue  # quorum reached on this branch: no further cost
            probability = one
            for was_found, q in zip(pattern, hit):
                probability = probability * (q if was_found else one - q)
            if float(probability) <= 0.0:
                continue
            missing = tuple(
                device
                for device, was_found in zip(device_subset, pattern)
                if not was_found
            )
            cost = cost + probability * recurse(
                missing, next_cells, still_needed, rounds_left - 1
            )
        return cost

    return recurse(
        tuple(range(instance.num_devices)),
        tuple(range(instance.num_cells)),
        quorum,
        instance.max_rounds,
    )


def _monte_carlo(
    instance: PagingInstance,
    quorum: int,
    trials: int,
    rng: np.random.Generator,
    plan: QuorumPlanner,
) -> float:
    """Monte-Carlo estimate of the replanning policy's expected paging.

    Locations for all trials are drawn in one batched kernel
    (:func:`repro.core.batch.sample_locations_batch`); the adaptive search
    itself is inherently sequential per trial.
    """
    from .batch import sample_locations_batch

    if trials <= 0:
        raise ValueError("trials must be positive")
    locations = sample_locations_batch(instance, trials, rng)
    total = 0
    for k in range(trials):
        draw = tuple(int(cell) for cell in locations[:, k])
        total += _search(instance, quorum, draw, plan).cells_paged
    return total / trials


def _optimal_adaptive(
    instance: PagingInstance, quorum: int, d: int
) -> Tuple[Number, int]:
    """``(optimal adaptive value, first group as a cell mask)``."""
    c = instance.num_cells
    if c > MAX_ADAPTIVE_CELLS:
        raise SolverLimitError(
            f"adaptive optimal solver limited to {MAX_ADAPTIVE_CELLS} cells"
        )
    zero, one = _zero_one(instance)
    full = (1 << c) - 1
    popcount = _popcount_table(full + 1)
    sums = _subset_sums(instance.rows, zero)

    @lru_cache(maxsize=None)
    def value(
        mask: int, devices: FrozenSet[int], outstanding: int, rounds_left: int
    ) -> Tuple[Number, int]:
        complement = full ^ mask
        if outstanding <= 0:
            return zero, 0
        if rounds_left <= 1:
            return popcount[complement] * one, complement  # page everything left
        device_list = sorted(devices)
        # Every found-pattern that leaves the quorum unmet, with the devices
        # it leaves missing and the quorum still outstanding.
        branches = []
        for pattern in itertools.product((False, True), repeat=len(device_list)):
            still_needed = outstanding - sum(pattern)
            if still_needed > 0:
                missing = frozenset(
                    device
                    for device, found in zip(device_list, pattern)
                    if not found
                )
                branches.append((pattern, missing, still_needed))
        # Conditional hit probability of each missing device for a given ext:
        # q_i = P_i(ext) / P_i(complement).  At the root P_i(all cells) = 1,
        # so the hit probability is P_i(ext) itself.
        denominators = [sums[i][complement] for i in device_list]
        degenerate = any(float(denominator) <= 0.0 for denominator in denominators)
        best: Optional[Number] = None
        best_ext = complement
        sub = complement
        while sub:
            cost: Number = popcount[sub] * one
            if sub != complement and not degenerate:
                if mask:
                    hit = [
                        sums[i][sub] / denominator
                        for i, denominator in zip(device_list, denominators)
                    ]
                else:
                    hit = [sums[i][sub] for i in device_list]
                for pattern, missing, still_needed in branches:
                    probability = one
                    for found, q in zip(pattern, hit):
                        probability = probability * (q if found else one - q)
                    if float(probability) <= 0.0:
                        continue
                    cost = cost + probability * value(
                        mask | sub, missing, still_needed, rounds_left - 1
                    )[0]
            if best is None or cost < best:
                best = cost
                best_ext = sub
            sub = (sub - 1) & complement
        assert best is not None
        return best, best_ext

    return value(0, frozenset(range(instance.num_devices)), quorum, min(d, c))


def adaptive_search(
    instance: PagingInstance,
    locations: Sequence[int],
    *,
    planner: Planner = conference_call_heuristic,
) -> AdaptiveTrace:
    """Run one adaptive search against fixed device locations."""
    return _search(
        instance, instance.num_devices, locations, _conference_plan(planner)
    )


def adaptive_expected_paging(
    instance: PagingInstance,
    *,
    planner: Planner = conference_call_heuristic,
) -> Number:
    """Exact expected paging of the adaptive policy.

    replint: solver
    """
    return _expected_paging(
        instance, instance.num_devices, _conference_plan(planner)
    )


def adaptive_monte_carlo(
    instance: PagingInstance,
    *,
    trials: int,
    rng: np.random.Generator,
    planner: Planner = conference_call_heuristic,
) -> float:
    """Monte-Carlo estimate of the adaptive policy's expected paging."""
    return _monte_carlo(
        instance, instance.num_devices, trials, rng, _conference_plan(planner)
    )


def optimal_adaptive_expected_paging(
    instance: PagingInstance, *, max_rounds: Optional[int] = None
) -> AdaptiveOptimalResult:
    """Exact minimum expected paging over all adaptive policies.

    replint: solver
    """
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    best, first = _optimal_adaptive(instance, instance.num_devices, d)
    first_group = tuple(j for j in range(instance.num_cells) if first >> j & 1)
    return AdaptiveOptimalResult(expected_paging=best, first_group=first_group)


def adaptivity_gap(
    instance: PagingInstance, *, max_rounds: Optional[int] = None
) -> Tuple[Number, Number, float]:
    """``(optimal_oblivious, optimal_adaptive, ratio)`` for one instance.

    The ratio is at least 1; how large it can grow is the paper's open
    question, which experiment E19 probes empirically.
    """
    from .exact import optimal_strategy

    oblivious = optimal_strategy(instance, max_rounds=max_rounds).expected_paging
    adaptive = optimal_adaptive_expected_paging(
        instance, max_rounds=max_rounds
    ).expected_paging
    ratio = float(oblivious) / float(adaptive) if float(adaptive) > 0 else 1.0
    return oblivious, adaptive, ratio


def adaptive_quorum_search(
    instance: PagingInstance,
    quorum: int,
    locations: Sequence[int],
    *,
    planner: QuorumPlanner = signature_heuristic,
) -> AdaptiveTrace:
    """Run one adaptive search until ``quorum`` devices have answered."""
    _check_quorum(instance.num_devices, quorum)
    return _search(instance, quorum, locations, planner)


def adaptive_quorum_expected_paging(
    instance: PagingInstance,
    quorum: int,
    *,
    planner: QuorumPlanner = signature_heuristic,
) -> Number:
    """Exact expected paging of the adaptive quorum policy.

    replint: solver
    """
    _check_quorum(instance.num_devices, quorum)
    return _expected_paging(instance, quorum, planner)


def adaptive_quorum_monte_carlo(
    instance: PagingInstance,
    quorum: int,
    *,
    trials: int,
    rng: np.random.Generator,
    planner: QuorumPlanner = signature_heuristic,
) -> float:
    """Monte-Carlo estimate of the adaptive quorum policy's expected paging."""
    _check_quorum(instance.num_devices, quorum)
    return _monte_carlo(instance, quorum, trials, rng, planner)


def optimal_adaptive_quorum_expected_paging(
    instance: PagingInstance, quorum: int
) -> Number:
    """The exact optimal ADAPTIVE policy for the find-k-of-m objective.

    Small instances only (:data:`MAX_ADAPTIVE_CELLS`).

    replint: solver
    """
    _check_quorum(instance.num_devices, quorum)
    return _optimal_adaptive(instance, quorum, instance.max_rounds)[0]


def adaptive_yellow_pages_expected_paging(
    instance: PagingInstance,
    *,
    planner: Optional[QuorumPlanner] = None,
) -> Number:
    """Adaptive Yellow Pages: find any one device, replanning each round."""
    if planner is None:
        planner = signature_heuristic
    return adaptive_quorum_expected_paging(instance, 1, planner=planner)
