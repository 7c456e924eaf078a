"""The paper's e/(e-1)-approximation heuristic (Section 4.2, Theorem 4.8).

Sequence the cells in non-increasing order of the expected number of devices
per cell (``sum_i p[i][j]``), then find the optimal cut points for that
sequence with the Lemma 4.7 dynamic program.  The resulting strategy pages at
most ``e/(e-1) ~ 1.582`` times the cells of an optimal strategy, and the
factor cannot be below ``320/317`` (Section 4.3).
"""

from __future__ import annotations

import math
from typing import Optional

from ..obs.instrument import span
from .dp import OrderedDPResult, optimize_over_order
from .instance import PagingInstance
from .ordering import by_expected_devices

#: The proven approximation guarantee of :func:`conference_call_heuristic`.
APPROXIMATION_FACTOR = math.e / (math.e - 1.0)

#: The paper's lower bound on the heuristic's performance ratio (Section 4.3).
LOWER_BOUND_RATIO = 320.0 / 317.0


def conference_call_heuristic(
    instance: PagingInstance,
    *,
    max_rounds: Optional[int] = None,
    max_group_size: Optional[int] = None,
) -> OrderedDPResult:
    """The Fig. 1 algorithm: greedy ordering + optimal cuts.

    Runs in ``O(c(m + dc))`` time and ``O(m + dc)`` space (Theorem 4.8).  With
    ``max_group_size`` set it solves the bandwidth-limited extension of
    Section 5, for which the same approximation argument applies.

    replint: solver
    """
    with span(
        "core.heuristic",
        cells=instance.num_cells,
        devices=instance.num_devices,
        rounds=instance.max_rounds if max_rounds is None else max_rounds,
    ):
        order = by_expected_devices(instance)
        return optimize_over_order(
            instance,
            order,
            max_rounds=max_rounds,
            max_group_size=max_group_size,
        )


def guarantee_bound(optimal_value: float) -> float:
    """The largest expected paging the heuristic may incur (Theorem 4.8)."""
    return APPROXIMATION_FACTOR * optimal_value


def profile_heuristic(instance: PagingInstance) -> OrderedDPResult:
    """Closed-form cuts from the Lemma 3.4 ``b``-profile (no DP).

    Orders cells by weight, then cuts at positions ``round(b_r)`` where
    ``b_1 < ... < b_d = c`` is the alpha-recursion chain — the group-size
    profile that is exactly optimal for the hardness gadget's worst case.
    ``O(c log c)`` total: an ablation of the DP component (ablation A3).
    Falls back to balanced groups when ``m = 1`` or ``d = 1`` is degenerate
    for the recursion.

    replint: solver
    """
    from .bounds import b_sequence
    from .expected_paging import expected_paging
    from .strategy import Strategy

    c = instance.num_cells
    d = min(instance.max_rounds, c)
    m = instance.num_devices
    order = by_expected_devices(instance)
    if d == 1:
        cuts = [0, c]
    elif m >= 2:
        chain = b_sequence(m, d, float(c))
        cuts = [0]
        for value in chain[1:]:
            position = int(round(value))
            position = max(cuts[-1] + 1, min(position, c - (d - len(cuts))))
            cuts.append(position)
        cuts[-1] = c
    else:
        # m = 1: the recursion needs m >= 2; use equal groups.
        base = c // d
        extra = c % d
        cuts = [0]
        for r in range(d):
            cuts.append(cuts[-1] + base + (1 if r < extra else 0))
    sizes = tuple(cuts[r + 1] - cuts[r] for r in range(d))
    strategy = Strategy.from_order_and_sizes(order, sizes)
    return OrderedDPResult(
        strategy=strategy,
        expected_paging=expected_paging(instance, strategy),
        order=order,
        group_sizes=sizes,
    )
