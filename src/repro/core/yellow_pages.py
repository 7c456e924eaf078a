"""The Yellow Pages problem: find at least ONE of the ``m`` devices (Section 5).

The search stops as soon as any device responds, so the stopping probability
for a prefix ``L`` is ``1 - prod_i (1 - P_i(L))``.  Conditioning on "no device
in the prefix" keeps the per-device distributions independent, so both the
Lemma 4.7-style recursion and the generic cut DP are exact over a fixed
order.

The paper reports (without details) an ``m``-approximation based on a
different heuristic than the weight ordering, and that the weight ordering is
*not* a constant-factor approximation here.  We implement the natural
candidate: solve the optimal single-device problem for each device separately
and keep the best of those strategies — finding any one device can never cost
more than finding the cheapest single device, and the optimum for ``m``
devices is at least ``1/m`` of the sum bound, yielding the ``m`` factor.
Empirical comparisons live in experiment E11.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ..errors import InvalidInstanceError
from .dp import optimize_cuts
from .instance import Number, PagingInstance
from .ordering import by_device_probability, by_miss_probability, validate_order
from .strategy import Strategy


@dataclass(frozen=True)
class YellowPagesResult:
    """A Yellow Pages strategy with its expected paging."""

    strategy: Strategy
    expected_paging: Number
    order: Tuple[int, ...]


def prefix_stop_probabilities(
    instance: PagingInstance, order: Sequence[int]
) -> Tuple[Number, ...]:
    """``F[k] = 1 - prod_i (1 - P_i(first k cells))`` for ``k = 0..c``."""
    order = validate_order(order, instance.num_cells)
    exact = instance.is_exact
    zero: Number = Fraction(0) if exact else 0.0
    one: Number = Fraction(1) if exact else 1.0
    sums = [zero] * instance.num_devices
    out = [zero]
    for cell in order:
        product = one
        for i, row in enumerate(instance.rows):
            sums[i] = sums[i] + row[cell]
            product = product * (one - sums[i])
        out.append(one - product)
    return tuple(out)


def expected_paging_yellow(instance: PagingInstance, strategy: Strategy) -> Number:
    """Expected cells paged until the first device is found."""
    from .expected_paging import expected_paging_from_stop_probabilities

    order = strategy.cells_in_order()
    finds = prefix_stop_probabilities(instance, order)
    sizes = strategy.group_sizes()
    stops = []
    position = 0
    for size in sizes:
        position += size
        stops.append(finds[position])
    return expected_paging_from_stop_probabilities(strategy, stops)


def optimize_yellow_over_order(
    instance: PagingInstance,
    order: Sequence[int],
    *,
    max_rounds: Optional[int] = None,
    max_group_size: Optional[int] = None,
) -> YellowPagesResult:
    """Optimal cut points of ``order`` for the Yellow Pages stopping rule.

    replint: solver
    """
    order = validate_order(order, instance.num_cells)
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    finds = prefix_stop_probabilities(instance, order)
    sizes, value = optimize_cuts(finds, d, max_group_size=max_group_size)
    strategy = Strategy.from_order_and_sizes(order, sizes)
    return YellowPagesResult(strategy=strategy, expected_paging=value, order=order)


def yellow_pages_greedy(
    instance: PagingInstance,
    *,
    max_rounds: Optional[int] = None,
) -> YellowPagesResult:
    """Cut the hit-probability ordering: page likely-occupied cells first.

    replint: solver
    """
    return optimize_yellow_over_order(
        instance, by_miss_probability(instance), max_rounds=max_rounds
    )


def yellow_pages_m_approximation(
    instance: PagingInstance,
    *,
    max_rounds: Optional[int] = None,
) -> YellowPagesResult:
    """The ``m``-approximation: best per-device optimal single-user order.

    For each device ``i``, order cells by ``p[i][j]`` (the optimal single-user
    sequence) and optimize cuts under the Yellow Pages rule; return the best.
    Searching optimally for any single device stops at least as soon when the
    other ``m - 1`` devices can also answer, which caps the cost at the
    cheapest single-device optimum — at most ``m`` times the Yellow Pages
    optimum.

    replint: solver
    """
    if instance.num_devices < 1:
        raise InvalidInstanceError("need at least one device")
    best: Optional[YellowPagesResult] = None
    for device in range(instance.num_devices):
        order = by_device_probability(instance, device)
        candidate = optimize_yellow_over_order(instance, order, max_rounds=max_rounds)
        if best is None or candidate.expected_paging < best.expected_paging:
            best = candidate
    assert best is not None
    return best


def yellow_pages_weight_order(
    instance: PagingInstance,
    *,
    max_rounds: Optional[int] = None,
) -> YellowPagesResult:
    """The Conference Call weight ordering applied to Yellow Pages.

    The paper notes this is NOT a constant-factor approximation for the
    Yellow Pages objective; experiment E11 measures how it degrades.

    replint: solver
    """
    from .ordering import by_expected_devices

    return optimize_yellow_over_order(
        instance, by_expected_devices(instance), max_rounds=max_rounds
    )
