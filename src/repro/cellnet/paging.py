"""The paging engine: executing search strategies over real cells.

Bridges the optimizer (which works on a contiguous sub-instance) and the
simulated network (global cell ids, true device positions).  Every
synchronous search is the same three steps:

1. :func:`build_sub_instance` restricts each wanted device's prior to the
   candidate cells and renormalizes;
2. the pager's ``plan`` step turns the sub-instance into groups of global
   cells, one group per round — one group (blanket, the GSM baseline), the
   paper's heuristic, its cost-weighted analogue, or the rounds of the
   adaptive replanner;
3. :func:`execute_search` pages the groups against the true locations,
   counting every cell paged, and sweeps the rest of the network if a
   device was outside the candidate set (possible under lazy reporting
   policies).

Given a fault injector and a recovery policy, the same executor is the
fault-aware search of :class:`~repro.cellnet.faults.ResilientPager`:
lost pages, re-page retries with backoff, and graceful degradation at the
delay budget.  The contention engine queues the plan step's groups on its
shared channels instead (:func:`~repro.cellnet.engine.plan_pending_call`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.adaptive import adaptive_search
from ..core.instance import PagingInstance
from ..core.strategy import Strategy
from ..errors import InvalidInstanceError, InvalidStrategyError, SimulationError
from ..solvers import RegisteredSolver, get_solver

if TYPE_CHECKING:
    from .faults import FaultInjector, RecoveryPolicy

#: A page schedule: the global cell ids paged in each round, in order.
Groups = List[List[int]]


@dataclass(frozen=True)
class PagingOutcome:
    """The result of one search operation.

    The fault-free search always locates everyone, so ``failed_devices`` is
    empty and ``retries_used`` zero for it; the fault-aware
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


#: Least mass a renormalized prior gives a candidate cell: rows stay strictly
#: positive, as the optimizer assumes, when a prior misses a candidate cell.
PRIOR_FLOOR = 1e-12


def floor_and_renormalize(rows: np.ndarray) -> np.ndarray:
    """Floor C-contiguous float64 ``rows`` and renormalize each, in place.

    Cells are the last axis.  Over C-contiguous rows the sums round exactly
    like a per-row ``sum()``; over a column-major gather they differ in the
    last bit.
    """
    np.maximum(rows, PRIOR_FLOOR, out=rows)
    rows /= rows.sum(axis=-1, keepdims=True)
    return rows


#: One prior per device: a ``(devices, cells)`` array or a sequence of rows.
Priors = Union[np.ndarray, Sequence[np.ndarray]]


def build_sub_instance(
    priors: Priors,
    candidate_cells: Sequence[int],
    max_rounds: int,
) -> Tuple[PagingInstance, Tuple[int, ...]]:
    """Restrict per-device priors to the candidate cells and renormalize.

    ``priors`` is one prior per device: a ``(devices, cells)`` array or a
    sequence of rows.  Returns the sub-instance plus the map from sub-index
    to global cell id.  Rows are floored and renormalized by
    :func:`floor_and_renormalize`; ``priors`` itself is never written.
    """
    cells = tuple(map(int, candidate_cells))
    if not cells:
        raise SimulationError("cannot page an empty candidate set")
    if not len(priors):
        raise InvalidInstanceError("instance needs at least one device and one cell")
    # One gather of the candidate columns (a new array), made C-contiguous
    # for the sums.
    rows = np.ascontiguousarray(
        np.asarray(priors, dtype=np.float64).take(cells, axis=1)
    )
    floor_and_renormalize(rows)
    rows.setflags(write=False)
    d = max(1, min(int(max_rounds), len(cells)))
    return PagingInstance(rows, d, allow_zero=True), cells


def execute_search(
    groups: Sequence[Sequence[int]],
    candidate_cells: Sequence[int],
    true_cells: Sequence[int],
    max_rounds: int,
    num_cells: int,
    *,
    injector: Optional["FaultInjector"] = None,
    policy: Optional["RecoveryPolicy"] = None,
    time: int = 0,
) -> PagingOutcome:
    """Page ``groups`` one round each against devices that stay put.

    Devices sit at ``true_cells`` for the whole search.  The search runs
    four phases and stops as soon as everyone has answered:

    1. the planned groups, in order;
    2. up to ``policy.max_retries`` re-pages of the whole candidate set,
       retry ``k`` after a backoff wait of ``policy.backoff(k)`` rounds;
    3. one sweep of the cells outside the candidate set, if a missing
       device is there;
    4. whoever is still missing goes into ``failed_devices``.

    With neither ``injector`` nor ``policy`` this is the fault-free
    search: every page is answered, there are no retries, and no round cap
    applies, so a device outside the candidate set is found by the sweep
    in the round after the plan (round d+1 after a d-round plan).  An
    ``injector`` decides per page whether it is delivered at ``time``.  A
    ``policy`` caps the search at ``policy.budget(max_rounds)`` rounds,
    waits included: a retry or sweep that does not fit is skipped and the
    call degrades.
    """
    if policy is None:
        budget: float = math.inf
        retry_waits: List[int] = []
    else:
        budget = policy.budget(max_rounds)
        retry_waits = [policy.backoff(k) for k in range(1, policy.max_retries + 1)]
    remaining = {device: int(cell) for device, cell in enumerate(true_cells)}
    found: Dict[int, int] = {}
    paged = 0
    rounds = 0
    retries = 0

    def page(cells: Sequence[int]) -> None:
        nonlocal paged
        paged += len(cells)
        if injector is None:
            delivered = set(cells)
        else:
            delivered = {cell for cell in cells if injector.page_delivered(cell, time)}
        for device in sorted(remaining):
            if remaining[device] in delivered:
                found[device] = remaining.pop(device)

    for group in groups:
        if not remaining or rounds >= budget:
            break
        rounds += 1
        page(group)

    # A lost page says nothing about where the device is, so a retry rules
    # no cell out: it re-pages the whole candidate set.
    candidate_set = set(candidate_cells)
    for wait in retry_waits:
        if not remaining:
            break
        if rounds + wait + 1 > budget:
            break  # the retry would overrun the delay constraint
        rounds += wait + 1
        retries += 1
        page(sorted(candidate_set))

    used_fallback = False
    if (
        remaining
        and rounds < budget
        and any(cell not in candidate_set for cell in remaining.values())
    ):
        sweep = sorted(set(range(num_cells)) - candidate_set)
        if sweep:
            rounds += 1
            used_fallback = True
            page(sweep)

    return PagingOutcome(
        found_cells=found,
        cells_paged=paged,
        rounds_used=rounds,
        used_fallback=used_fallback,
        failed_devices=tuple(sorted(remaining)),
        retries_used=retries,
    )


def _global_groups(strategy: Strategy, cells: Sequence[int]) -> Groups:
    """A sub-instance strategy's groups as global cell ids."""
    return [[cells[j] for j in sorted(group)] for group in strategy.groups]


def _heuristic_groups(
    planner: RegisteredSolver, instance: PagingInstance, cells: Sequence[int]
) -> Groups:
    """The Fig. 1 plan of ``instance`` as global cell ids, one group a round.

    A float instance goes straight to the planner's batch entry point as a
    batch of one, and its order is cut into groups here, with the checks
    :meth:`~repro.core.strategy.Strategy.from_order_and_sizes` makes; an
    exact one keeps the reference planner's ``Fraction`` arithmetic.
    """
    if instance.is_exact:
        return _global_groups(planner(instance).strategy, cells)
    plan = planner.run_batch(
        instance.float_rows()[None], max_rounds=instance.max_rounds
    )
    (order,) = plan.orders.tolist()
    (sizes,) = plan.group_sizes.tolist()
    if sum(sizes) != len(order):
        raise InvalidStrategyError(
            f"group sizes {tuple(sizes)} do not sum to {len(order)} cells"
        )
    groups: Groups = []
    start = 0
    for size in sizes:
        if size <= 0:
            raise InvalidStrategyError("group sizes must be positive")
        groups.append(list(map(cells.__getitem__, sorted(order[start : start + size]))))
        start += size
    return groups


class Pager:
    """A paging policy: a plan step inside the shared fault-free search.

    ``plan`` turns a sub-instance and its cell map into the groups to
    page.  Only the fault-free :meth:`search` passes ``true_cells``: there
    devices answer every page and do not move, so a pager may work out
    online what it would page next (the adaptive replanner).  The fault
    and contention paths plan obliviously, without them.  The ``priors`` a
    search takes may be a ``(devices, cells)`` array (the simulator's
    online priors) as well as a sequence of rows.
    """

    name: str

    def plan(
        self,
        instance: PagingInstance,
        cells: Sequence[int],
        true_cells: Optional[Sequence[int]] = None,
    ) -> Groups:
        raise NotImplementedError

    def search(
        self,
        priors: Priors,
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        """The fault-free search: sub-instance, plan step, execute."""
        instance, cells = build_sub_instance(priors, candidate_cells, max_rounds)
        groups = self.plan(instance, cells, true_cells)
        return execute_search(groups, cells, true_cells, max_rounds, num_cells)


class BlanketPager(Pager):
    """The GSM MAP / IS-41 baseline: page every candidate cell at once."""

    name = "blanket"

    def plan(
        self,
        instance: PagingInstance,
        cells: Sequence[int],
        true_cells: Optional[Sequence[int]] = None,
    ) -> Groups:
        return [list(cells)]


class HeuristicPager(Pager):
    """The paper's e/(e-1) strategy within the delay budget.

    Plans come from the ``heuristic`` registry entry (``repro.solvers``),
    whose float path is the batched Fig. 1 kernel.
    """

    name = "heuristic"

    def __init__(self) -> None:
        self._planner = get_solver("heuristic")

    def plan(
        self,
        instance: PagingInstance,
        cells: Sequence[int],
        true_cells: Optional[Sequence[int]] = None,
    ) -> Groups:
        return _heuristic_groups(self._planner, instance, cells)

    # Bound on this class itself: bench/layers.py hooks the name through
    # the class namespace.
    search = Pager.search


class AdaptivePager(Pager):
    """The Section 5 adaptive replanner.

    In the fault-free search the groups it pages online are exactly the
    rounds of an :func:`~repro.core.adaptive.adaptive_search` trace against
    the true cells.  Without them (faults, contention) a non-answer may be
    a lost or deferred page, so eliminating cells on silence would be
    unsound: it plans the oblivious heuristic strategy instead.
    """

    name = "adaptive"

    def __init__(self) -> None:
        self._planner = get_solver("heuristic")

    def plan(
        self,
        instance: PagingInstance,
        cells: Sequence[int],
        true_cells: Optional[Sequence[int]] = None,
    ) -> Groups:
        if true_cells is None:
            return _heuristic_groups(self._planner, instance, cells)
        index_of = {cell: j for j, cell in enumerate(cells)}
        if not all(cell in index_of for cell in true_cells):
            # Some device left the candidate set; page it all, then sweep.
            return [list(cells)]
        trace = adaptive_search(
            instance, [index_of[cell] for cell in true_cells], planner=self._planner
        )
        return [[cells[j] for j in group] for group in trace.groups]


class CostAwarePager(Pager):
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

    def plan(
        self,
        instance: PagingInstance,
        cells: Sequence[int],
        true_cells: Optional[Sequence[int]] = None,
    ) -> Groups:
        local_costs = [self._costs[cell] for cell in cells]
        plan = get_solver("weighted-heuristic")(instance, costs=local_costs)
        return _global_groups(plan.strategy, cells)

    def search(
        self,
        priors: Priors,
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
    ) -> PagingOutcome:
        if len(self._costs) != num_cells:
            raise SimulationError(
                f"cost table covers {len(self._costs)} cells, network has {num_cells}"
            )
        return super().search(
            priors, candidate_cells, true_cells, max_rounds, num_cells
        )

    def cost_of_cells(self, paged_cells: Sequence[int]) -> float:
        """Total cost of an explicit list of paged cells."""
        return sum(self._costs[cell] for cell in paged_cells)


#: Registry of pager implementations by name (used by the simulator config).
PAGER_FACTORIES: Dict[str, Callable[[], Pager]] = {
    "blanket": BlanketPager,
    "heuristic": HeuristicPager,
    "adaptive": AdaptivePager,
}
