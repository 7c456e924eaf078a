"""Imperfect detection: paging a cell may miss a device that is there.

The last modeling extension of Section 5: a paged cell detects a present
device only with some probability, and that probability *decreases* with the
number of devices answering in the same cell (collision of response
signals).  Related search-theoretic treatments are [Awduche et al. 1996;
Stone 1975], which the paper cites.

We model oblivious *cyclic* strategies: page ``S_1, ..., S_d`` and repeat the
whole sweep until every device has answered.  For a single device with a
constant detection probability ``q`` the expected paging has a closed form::

    EP = c (1 - q) / q  +  sum_j p_j L(j)

(``L(j)`` = cells paged through the round containing ``j``): failures cost
whole sweeps, so the *ordering problem is unchanged* — the optimal strategy
under imperfect detection is the optimal strategy under perfect detection.
The multi-device collision model has no such form and is evaluated by
Monte-Carlo; experiment E20 sweeps it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Protocol, Sequence, Tuple

import numpy as np

from ..errors import InvalidInstanceError, SimulationError
from .instance import PagingInstance
from .strategy import Strategy


class DetectionModel(Protocol):
    """Probability that one device answers, given cell congestion."""

    def detection_probability(self, devices_in_cell: int) -> float:
        """Chance a paged device is detected when ``devices_in_cell`` answer."""
        ...


@dataclass(frozen=True)
class ConstantDetection:
    """Every page detects a present device with fixed probability ``q``."""

    q: float

    def __post_init__(self) -> None:
        if not 0 < self.q <= 1:
            raise InvalidInstanceError("detection probability must lie in (0, 1]")

    def detection_probability(self, devices_in_cell: int) -> float:
        return self.q


@dataclass(frozen=True)
class CollisionDetection:
    """Detection degrades geometrically with co-located answering devices.

    ``q_k = q * collision_factor^(k-1)`` for ``k`` devices in the cell —
    the paper's "chances of finding out decrease with the number of devices
    in the cell".
    """

    q: float
    collision_factor: float = 0.5

    def __post_init__(self) -> None:
        if not 0 < self.q <= 1:
            raise InvalidInstanceError("detection probability must lie in (0, 1]")
        if not 0 < self.collision_factor <= 1:
            raise InvalidInstanceError("collision_factor must lie in (0, 1]")

    def detection_probability(self, devices_in_cell: int) -> float:
        if devices_in_cell < 1:
            raise InvalidInstanceError("need at least one device in the cell")
        return self.q * self.collision_factor ** (devices_in_cell - 1)


@dataclass(frozen=True)
class ImperfectSearchOutcome:
    """One cyclic search under imperfect detection."""

    cells_paged: int
    sweeps_used: int
    rounds_used: int


def simulate_imperfect_search(
    instance: PagingInstance,
    strategy: Strategy,
    locations: Sequence[int],
    model: DetectionModel,
    rng: np.random.Generator,
    *,
    max_sweeps: int = 10_000,
) -> ImperfectSearchOutcome:
    """Cyclically page the strategy until every device answers."""
    if len(locations) != instance.num_devices:
        raise InvalidInstanceError(
            f"expected {instance.num_devices} locations, got {len(locations)}"
        )
    missing: Dict[int, int] = dict(enumerate(locations))
    paged = 0
    rounds = 0
    for sweep in range(1, max_sweeps + 1):
        for group in strategy.groups:
            rounds += 1
            paged += len(group)
            # Congestion is per cell: count missing devices in each paged cell.
            congestion: Dict[int, int] = {}
            for cell in missing.values():
                if cell in group:
                    congestion[cell] = congestion.get(cell, 0) + 1
            for device, cell in list(missing.items()):
                if cell not in group:
                    continue
                q = model.detection_probability(congestion[cell])
                if rng.random() < q:
                    del missing[device]
            if not missing:
                return ImperfectSearchOutcome(
                    cells_paged=paged, sweeps_used=sweep, rounds_used=rounds
                )
    raise SimulationError(
        f"search did not terminate within {max_sweeps} sweeps "
        "(detection probability too small?)"
    )


def expected_paging_imperfect_monte_carlo(
    instance: PagingInstance,
    strategy: Strategy,
    model: DetectionModel,
    *,
    trials: int,
    rng: np.random.Generator,
) -> float:
    """Monte-Carlo expected paging of the cyclic strategy.

    The per-trial location draws are batched through
    :func:`repro.core.batch.sample_locations_batch`; the detection coin
    flips stay inside the per-trial sweep simulation.
    """
    from .batch import sample_locations_batch

    if trials <= 0:
        raise ValueError("trials must be positive")
    locations = sample_locations_batch(instance, trials, rng)
    total = 0
    for k in range(trials):
        total += simulate_imperfect_search(
            instance,
            strategy,
            tuple(int(cell) for cell in locations[:, k]),
            model,
            rng,
        ).cells_paged
    return total / trials


def expected_paging_imperfect_single(
    instance: PagingInstance, strategy: Strategy, q: float
) -> float:
    """Closed-form EP for one device under constant detection ``q``.

    Each sweep independently detects the device with probability ``q`` when
    its cell is paged, so the number of *failed* full sweeps is geometric
    with mean ``(1 - q)/q``, each costing ``c``; the successful sweep costs
    the prefix through the device's round.
    """
    if instance.num_devices != 1:
        raise InvalidInstanceError("the closed form applies to m = 1")
    if not 0 < q <= 1:
        raise InvalidInstanceError("detection probability must lie in (0, 1]")
    c = instance.num_cells
    prefix_cost = {}
    cumulative = 0
    for group in strategy.groups:
        cumulative += len(group)
        for cell in group:
            prefix_cost[cell] = cumulative
    success_sweep = sum(
        float(p) * prefix_cost[cell] for cell, p in enumerate(instance.row(0))
    )
    return c * (1.0 - q) / q + success_sweep


def imperfect_ordering_invariance(
    instance: PagingInstance, strategy_a: Strategy, strategy_b: Strategy, q: float
) -> Tuple[float, float, bool]:
    """Check the closed form's corollary: EP ordering is q-independent.

    Returns the two EPs at detection ``q`` and whether their order matches
    the perfect-detection (``q = 1``) order — always true for ``m = 1``
    because the ``q`` term is an additive constant.
    """
    ep_a = expected_paging_imperfect_single(instance, strategy_a, q)
    ep_b = expected_paging_imperfect_single(instance, strategy_b, q)
    perfect_a = expected_paging_imperfect_single(instance, strategy_a, 1.0)
    perfect_b = expected_paging_imperfect_single(instance, strategy_b, 1.0)
    return ep_a, ep_b, (ep_a <= ep_b) == (perfect_a <= perfect_b)
