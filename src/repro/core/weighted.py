"""Heterogeneous paging costs (the Search Theory cost model, §5.1).

The paper's related-work section points at Search Theory [Stone 1975], where
each lookup carries its own cost.  In cellular terms: paging a macro cell
with many sectors, or a congested cell, costs more than paging a femto cell.
The model generalizes cleanly — replace *cells paged* with *cost paid*:

    EP_w = W([c]) - sum_{r=1}^{t-1} W(S_{r+1}) * F(L_r),    W(S) = sum_{j in S} w_j

which telescopes exactly like Lemma 2.1.  Over a fixed cell order, the cut
objective couples only consecutive cut points (with weighted gaps), so the
same quadratic DP applies; and the exact subset DP carries over with
``W(ext)`` in place of ``|ext|``.

The natural ordering heuristic becomes *density*: sort cells by
``sum_i p[i][j] / w_j`` — probability mass per unit of paging cost —
degenerating to the paper's weight order at uniform costs.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..errors import InfeasibleError
from .dp import _best_cuts
from .exact import _best_chain, _check_size, _find_table, _round_budget, _subset_sums
from .expected_paging import stop_probabilities
from .instance import Number, PagingInstance
from .strategy import Strategy


def _validate_costs(costs: Sequence[Number], num_cells: int) -> Tuple[Number, ...]:
    costs = tuple(costs)
    if len(costs) != num_cells:
        raise InfeasibleError(
            f"need one cost per cell ({num_cells}), got {len(costs)}"
        )
    if any(float(cost) <= 0 for cost in costs):
        raise InfeasibleError("paging costs must be strictly positive")
    return costs


@dataclass(frozen=True)
class WeightedResult:
    """A strategy with its expected paging cost."""

    strategy: Strategy
    expected_cost: Number
    order: Tuple[int, ...]


def weighted_expected_paging(
    instance: PagingInstance, strategy: Strategy, costs: Sequence[Number]
) -> Number:
    """Expected total paging cost (weighted Lemma 2.1)."""
    costs = _validate_costs(costs, instance.num_cells)
    stops = stop_probabilities(instance, strategy)
    total = sum(costs)
    value: Number = total
    groups = strategy.groups
    for r in range(len(groups) - 1):
        group_cost = sum(costs[j] for j in groups[r + 1])
        value = value - group_cost * stops[r]
    return value


def by_density(
    instance: PagingInstance, costs: Sequence[Number]
) -> Tuple[int, ...]:
    """Cells by non-increasing ``sum_i p[i][j] / w_j`` (mass per cost)."""
    costs = _validate_costs(costs, instance.num_cells)
    weights = instance.cell_weights()
    return tuple(
        sorted(
            range(instance.num_cells),
            key=lambda j: (-float(weights[j]) / float(costs[j]), j),
        )
    )


def optimize_cuts_weighted(
    prefix_stops: Sequence[Number],
    prefix_costs: Sequence[Number],
    num_rounds: int,
) -> Tuple[Tuple[int, ...], Number]:
    """Optimal cut points for weighted costs over a fixed order.

    ``prefix_costs[j]`` is the cost of the first ``j`` cells of the order;
    maximizes ``sum_r (prefix_costs[j_{r+1}] - prefix_costs[j_r]) F[j_r]``.
    Returns ``(group_sizes, expected_cost)``.
    """
    finds = tuple(prefix_stops)
    wsum = tuple(prefix_costs)
    c = len(finds) - 1
    if len(wsum) != c + 1:
        raise InfeasibleError("prefix_costs must align with prefix_stops")
    d = int(num_rounds)
    if not 1 <= d <= c:
        raise InfeasibleError(f"number of rounds must satisfy 1 <= d <= {c}")
    return _best_cuts(finds, wsum, d, c)


def weighted_heuristic(
    instance: PagingInstance,
    costs: Sequence[Number],
    *,
    max_rounds: Optional[int] = None,
) -> WeightedResult:
    """Density ordering + weighted cut DP (the Fig. 1 analogue).

    replint: solver
    """
    costs = _validate_costs(costs, instance.num_cells)
    order = by_density(instance, costs)
    return _cut_order_weighted(instance, order, costs, max_rounds)


def weighted_weight_order(
    instance: PagingInstance,
    costs: Sequence[Number],
    *,
    max_rounds: Optional[int] = None,
) -> WeightedResult:
    """The paper's pure weight ordering under heterogeneous costs.

    Orders cells by expected devices (ignoring the costs) and then cuts
    with the weighted DP — the ablation experiment E25 compares against the
    density ordering to show why mass-per-cost matters.

    replint: solver
    """
    from .ordering import by_expected_devices

    costs = _validate_costs(costs, instance.num_cells)
    order = by_expected_devices(instance)
    return _cut_order_weighted(instance, order, costs, max_rounds)


def _cut_order_weighted(
    instance: PagingInstance,
    order: Sequence[int],
    costs: Tuple[Number, ...],
    max_rounds: Optional[int],
) -> WeightedResult:
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    finds = instance.prefix_find_probabilities(order)
    prefix_costs: List[Number] = [0 * costs[0]]
    for cell in order:
        prefix_costs.append(prefix_costs[-1] + costs[cell])
    sizes, value = optimize_cuts_weighted(finds, prefix_costs, d)
    strategy = Strategy.from_order_and_sizes(order, sizes)
    return WeightedResult(strategy=strategy, expected_cost=value, order=order)


def optimal_weighted_strategy(
    instance: PagingInstance,
    costs: Sequence[Number],
    *,
    max_rounds: Optional[int] = None,
) -> WeightedResult:
    """Exact minimum expected cost by the weighted subset DP (small c).

    replint: solver
    """
    c = instance.num_cells
    _check_size(c)
    costs = _validate_costs(costs, c)
    d = _round_budget(instance, max_rounds)
    # Plans in floats as soon as any cost is a float, even on an exact
    # instance, so the F table is built here in that arithmetic.
    exact = instance.is_exact and all(
        isinstance(cost, (int, Fraction)) for cost in costs
    )
    one: Number = Fraction(1) if exact else 1.0
    zero: Number = 0 * one
    finds = _find_table(instance.rows, zero, one)
    mask_cost = _subset_sums([costs], zero)[0]
    strategy = _best_chain(finds, mask_cost, c, d, c)
    return WeightedResult(
        strategy=strategy,
        expected_cost=weighted_expected_paging(instance, strategy, costs),
        order=tuple(range(c)),
    )
