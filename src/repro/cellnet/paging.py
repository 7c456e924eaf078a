"""The paging engine: executing search strategies over real cells.

Bridges the optimizer (which works on a contiguous sub-instance) and the
simulated network (global cell ids, true device positions).  A search:

1. restricts each wanted device's prior to the candidate cells and
   renormalizes,
2. plans a strategy — blanket (the GSM baseline), the paper's heuristic, or
   the adaptive replanner,
3. pages group by group against the true locations, counting every cell
   paged, and
4. falls back to sweeping the rest of the network if a device was outside
   the candidate set (possible under lazy reporting policies).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Sequence, Tuple

import numpy as np

from ..core.adaptive import adaptive_search
from ..core.instance import PagingInstance
from ..core.strategy import Strategy
from ..errors import SimulationError
from ..solvers import get_solver


@dataclass(frozen=True)
class PagingOutcome:
    """The result of one search operation.

    The fault-free pagers always locate everyone, so ``failed_devices`` is
    empty and ``retries_used`` zero for them; the fault-aware
    :class:`~repro.cellnet.faults.ResilientPager` fills both when a search
    degrades into a partial conference (docs/robustness.md).
    """

    found_cells: Dict[int, int]  # device -> cell where it answered
    cells_paged: int
    rounds_used: int
    used_fallback: bool
    #: local participant indices the search gave up on (degraded call)
    failed_devices: Tuple[int, ...] = ()
    #: re-page retry rounds spent by the recovery policy
    retries_used: int = 0

    @property
    def complete(self) -> bool:
        """True when every wanted device was located."""
        return not self.failed_devices


def build_sub_instance(
    priors: Sequence[np.ndarray],
    candidate_cells: Sequence[int],
    max_rounds: int,
    *,
    floor: float = 1e-12,
) -> Tuple[PagingInstance, Tuple[int, ...]]:
    """Restrict per-device priors to the candidate cells and renormalize.

    Returns the sub-instance plus the map from sub-index to global cell id.
    ``floor`` keeps renormalized rows strictly positive so the optimizer's
    model assumptions hold even when the prior gives a candidate cell zero
    mass.
    """
    cells = tuple(int(cell) for cell in candidate_cells)
    if not cells:
        raise SimulationError("cannot page an empty candidate set")
    rows = []
    for prior in priors:
        restricted = np.array([max(float(prior[cell]), floor) for cell in cells])
        rows.append(restricted / restricted.sum())
    d = max(1, min(int(max_rounds), len(cells)))
    return PagingInstance(rows, d, allow_zero=True), cells


def page_with_strategy(
    strategy: Strategy,
    cell_map: Sequence[int],
    true_cells: Sequence[int],
) -> Tuple[Dict[int, int], int, int, bool]:
    """Execute an oblivious strategy; returns (found, paged, rounds, complete)."""
    remaining = {device: cell for device, cell in enumerate(true_cells)}
    found: Dict[int, int] = {}
    paged = 0
    rounds = 0
    for group in strategy.groups:
        rounds += 1
        paged += len(group)
        global_group = {cell_map[j] for j in group}
        for device in list(remaining):
            if remaining[device] in global_group:
                found[device] = remaining.pop(device)
        if not remaining:
            return found, paged, rounds, True
    return found, paged, rounds, False


class BlanketPager:
    """The GSM MAP / IS-41 baseline: page every candidate cell at once."""

    name = "blanket"

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        cells = tuple(candidate_cells)
        strategy = Strategy.single_round(len(cells))
        found, paged, rounds, complete = page_with_strategy(
            strategy, cells, true_cells
        )
        if complete:
            return PagingOutcome(found, paged, rounds, used_fallback=False)
        return _fallback(found, paged, rounds, cells, true_cells, num_cells)


class HeuristicPager:
    """The paper's e/(e-1) strategy within the delay budget.

    Plans come from the ``heuristic`` registry entry (``repro.solvers``),
    whose float path is the batched Fig. 1 kernel.
    """

    name = "heuristic"

    def __init__(self) -> None:
        self._planner = get_solver("heuristic")

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        instance, cells = build_sub_instance(priors, candidate_cells, max_rounds)
        plan = self._planner(instance)
        found, paged, rounds, complete = page_with_strategy(
            plan.strategy, cells, true_cells
        )
        if complete:
            return PagingOutcome(found, paged, rounds, used_fallback=False)
        return _fallback(found, paged, rounds, cells, true_cells, num_cells)

    def search_many(
        self,
        priors_batch: Sequence[Sequence[np.ndarray]],
        candidate_cells: Sequence[int],
        true_cells_batch: Sequence[Sequence[int]],
        max_rounds: int,
        num_cells: int,
    ) -> List[PagingOutcome]:
        """Page many concurrent calls over one candidate set.

        The paging-controller shape: one location area, a stack of calls,
        one plan per call.  All same-device-count sub-instances are
        planned in one ``run_batch`` kernel call; every plan is
        bit-identical to what :meth:`search` would compute.
        """
        instances = []
        cell_maps = []
        for priors in priors_batch:
            instance, cells = build_sub_instance(
                priors, candidate_cells, max_rounds
            )
            instances.append(instance)
            cell_maps.append(cells)
        strategies: Dict[int, Strategy] = {}
        by_devices: Dict[int, List[int]] = {}
        for index, instance in enumerate(instances):
            by_devices.setdefault(instance.num_devices, []).append(index)
        for indices in by_devices.values():
            plans = self._planner.run_batch([instances[i] for i in indices])
            for row, index in enumerate(indices):
                strategies[index] = plans.strategy(row)
        outcomes = []
        for index, true_cells in enumerate(true_cells_batch):
            found, paged, rounds, complete = page_with_strategy(
                strategies[index], cell_maps[index], true_cells
            )
            if complete:
                outcomes.append(
                    PagingOutcome(found, paged, rounds, used_fallback=False)
                )
            else:
                outcomes.append(
                    _fallback(
                        found, paged, rounds, cell_maps[index], true_cells, num_cells
                    )
                )
        return outcomes


class AdaptivePager:
    """The Section 5 adaptive replanner."""

    name = "adaptive"

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        instance, cells = build_sub_instance(priors, candidate_cells, max_rounds)
        index_of = {cell: j for j, cell in enumerate(cells)}
        inside = all(cell in index_of for cell in true_cells)
        if not inside:
            # Some device left the candidate set; page it all, then sweep.
            strategy = Strategy.single_round(len(cells))
            found, paged, rounds, complete = page_with_strategy(
                strategy, cells, true_cells
            )
            return _fallback(found, paged, rounds, cells, true_cells, num_cells)
        local_locations = [index_of[cell] for cell in true_cells]
        trace = adaptive_search(instance, local_locations)
        found = {device: cell for device, cell in enumerate(true_cells)}
        return PagingOutcome(
            found_cells=found,
            cells_paged=trace.cells_paged,
            rounds_used=trace.rounds_used,
            used_fallback=False,
        )


class CostAwarePager:
    """Plans with heterogeneous per-cell paging costs (density ordering).

    ``costs`` maps every global cell id to a positive paging cost (airtime,
    channel load, sector count).  Planning minimizes expected *cost* via the
    weighted Fig. 1 analogue; the returned outcome still reports cells paged
    so results stay comparable with the other pagers.
    """

    name = "cost-aware"

    def __init__(self, costs: Sequence[float]) -> None:
        if any(float(cost) <= 0 for cost in costs):
            raise SimulationError("paging costs must be strictly positive")
        self._costs = [float(cost) for cost in costs]

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        if len(self._costs) != num_cells:
            raise SimulationError(
                f"cost table covers {len(self._costs)} cells, network has {num_cells}"
            )
        instance, cells = build_sub_instance(priors, candidate_cells, max_rounds)
        local_costs = [self._costs[cell] for cell in cells]
        plan = get_solver("weighted-heuristic")(instance, costs=local_costs)
        found, paged, rounds, complete = page_with_strategy(
            plan.strategy, cells, true_cells
        )
        if complete:
            return PagingOutcome(found, paged, rounds, used_fallback=False)
        return _fallback(found, paged, rounds, cells, true_cells, num_cells)

    def cost_of_cells(self, paged_cells: Sequence[int]) -> float:
        """Total cost of an explicit list of paged cells."""
        return sum(self._costs[cell] for cell in paged_cells)


def _fallback(
    found: Dict[int, int],
    paged: int,
    rounds: int,
    searched_cells: Sequence[int],
    true_cells: Sequence[int],
    num_cells: int,
) -> PagingOutcome:
    """Sweep outside the candidate set for devices that were not found.

    Models the system-wide page a real network issues when a device is not
    where the registry believed: one extra round covering the complement.
    """
    searched = set(searched_cells)
    missing = {
        device: cell
        for device, cell in enumerate(true_cells)
        if device not in found
    }
    outside = {cell for cell in missing.values() if cell not in searched}
    sweep = set(range(num_cells)) - searched
    paged += len(sweep)
    rounds += 1
    for device, cell in missing.items():
        found[device] = cell
    if outside - sweep:
        raise SimulationError("fallback sweep failed to cover a device")
    return PagingOutcome(
        found_cells=found, cells_paged=paged, rounds_used=rounds, used_fallback=True
    )


#: Registry of pager implementations by name (used by the simulator config).
PAGER_FACTORIES: Dict[str, Callable[[], object]] = {
    "blanket": BlanketPager,
    "heuristic": HeuristicPager,
    # Former name of the same pager, kept so stored configurations resolve.
    "heuristic-batch": HeuristicPager,
    "adaptive": AdaptivePager,
}
