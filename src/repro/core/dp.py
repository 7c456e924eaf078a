"""The dynamic program of Lemma 4.7 / Fig. 1 of the paper.

Given a fixed sequence of cells, the best strategy that pages cells in that
sequence is found by the recursion::

    E(1, k) = k
    E(l, k) = min_{1 <= x <= k-l+1}  x + (1 - F[c-k+x]) / (1 - F[c-k]) * E(l-1, k-x)

where ``F[j]`` is the probability that the search would already stop within
the first ``j`` cells of the sequence (for the Conference Call problem,
``F[j] = prod_i P_i(first j cells)``).  ``E(l, k)`` is the minimal expected
number of cells paged by an ``l``-round strategy over the last ``k`` cells,
conditioned on the search reaching them.  ``E(d, c)`` is the minimal expected
paging over the whole family, achieved by the group sizes recovered from the
argmin table — exactly the pseudocode of Fig. 1.

The implementation follows Theorem 4.8: ``O(c(m + dc))`` time.  It accepts an
optional per-round group-size cap (the bandwidth-limited model of Section 5).
The recursion's conditioning ``(1 - F[c-k+x]) / (1 - F[c-k])`` is the
Conference Call product form; stopping rules without it (the Yellow Pages and
Signature variants) use :func:`optimize_cuts`, which maximizes the telescoped
Lemma 2.1 bonus directly and needs only a monotone prefix rule ``F``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from ..errors import InfeasibleError
from ..obs.instrument import traced
from .expected_paging import expected_paging
from .instance import Number, PagingInstance
from .ordering import validate_order
from .strategy import Strategy


@dataclass(frozen=True)
class OrderedDPResult:
    """Outcome of optimizing cut points over a fixed cell sequence."""

    strategy: Strategy
    expected_paging: Number
    order: Tuple[int, ...]
    group_sizes: Tuple[int, ...]

    @property
    def num_rounds(self) -> int:
        return len(self.group_sizes)


@traced("core.dp")
def optimize_over_order(
    instance: PagingInstance,
    order: Sequence[int],
    *,
    max_rounds: Optional[int] = None,
    max_group_size: Optional[int] = None,
) -> OrderedDPResult:
    """Best strategy paging cells in the given sequence (Lemma 4.7).

    Parameters
    ----------
    instance:
        The problem data.  Exact instances produce exact (Fraction) values.
    order:
        A permutation of the cells; groups are consecutive runs of it.
    max_rounds:
        Overrides ``instance.max_rounds`` when given.
    max_group_size:
        Bandwidth limit ``b``: no round may page more than ``b`` cells
        (Section 5 extension).  Requires ``d * b >= c``.

    replint: solver
    """
    c = instance.num_cells
    order = validate_order(order, c)
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    if not 1 <= d <= c:
        raise InfeasibleError(f"number of rounds must satisfy 1 <= d <= {c}, got {d}")
    b = c if max_group_size is None else int(max_group_size)
    if b < 1:
        raise InfeasibleError("max_group_size must be at least 1")
    if d * b < c:
        raise InfeasibleError(
            f"cannot page {c} cells within {d} rounds of at most {b} cells each"
        )

    finds = instance.prefix_find_probabilities(order)
    one: Number = Fraction(1) if instance.is_exact else 1.0

    # survivor[j] = probability the search continues past the first j cells.
    survivor = [one - f for f in finds]

    infinity = float("inf")
    # Row l of the DP: E[l][k] for k = 0..c (k < l unused).
    previous = [infinity] * (c + 1)
    for k in range(1, c + 1):
        previous[k] = k if k <= b else infinity
    # choices[l][k] = argmin x for E(l+1, k); row 0 is the base case.
    choices = [[k if k <= b else 0 for k in range(c + 1)]]

    for level in range(2, d + 1):
        current = [infinity] * (c + 1)
        current_choice = [0] * (c + 1)
        for k in range(level, c + 1):
            if k > level * b:
                continue  # even b-sized groups cannot cover k cells in `level` rounds
            denominator = survivor[c - k]
            best = infinity
            best_x = 0
            upper = min(k - level + 1, b)
            for x in range(1, upper + 1):
                tail = previous[k - x]
                if tail == infinity:
                    continue
                if float(denominator) <= 0.0:
                    # The search never reaches these cells; any feasible split
                    # works and contributes nothing upstream.
                    value: Number = x
                else:
                    value = x + (survivor[c - k + x] / denominator) * tail
                if value < best:
                    best = value
                    best_x = x
            current[k] = best
            current_choice[k] = best_x
        previous = current
        choices.append(current_choice)

    if previous[c] == infinity:
        raise InfeasibleError("no feasible strategy found (check group-size cap)")

    # Recover group sizes: walk the argmin table from (d, c) downwards.
    sizes = []
    k = c
    for level in range(d, 0, -1):
        x = choices[level - 1][k]
        sizes.append(x)
        k -= x
    if k != 0:
        raise AssertionError("dynamic program reconstruction did not consume all cells")

    strategy = Strategy.from_order_and_sizes(order, sizes)
    return OrderedDPResult(
        strategy=strategy,
        expected_paging=expected_paging(instance, strategy),
        order=order,
        group_sizes=tuple(sizes),
    )


def optimize_cuts(
    prefix_stop_probabilities: Sequence[Number],
    num_rounds: int,
    *,
    max_group_size: Optional[int] = None,
) -> Tuple[Tuple[int, ...], Number]:
    """Optimal cut points for ANY prefix-monotone stopping rule.

    Given ``F[j]`` — the probability that the search would stop within the
    first ``j`` cells of a fixed order (``F[c] = 1``) — the telescoped
    expected paging of cutting the order at ``0 < j_1 < ... < j_{d-1} < c``
    is ``c - sum_r (j_{r+1} - j_r) F[j_r]`` (with ``j_d = c``).  Each term
    couples only consecutive cuts, so a quadratic DP maximizes the bonus
    exactly.  Unlike the Lemma 4.7 recursion this needs no product-form
    conditioning, so it also covers the Signature stopping rule of Section 5.

    Returns ``(group_sizes, expected_paging)``.
    """
    finds = tuple(prefix_stop_probabilities)
    c = len(finds) - 1
    if c < 1:
        raise ValueError("need at least one cell")
    d = int(num_rounds)
    if not 1 <= d <= c:
        raise InfeasibleError(f"number of rounds must satisfy 1 <= d <= {c}, got {d}")
    b = c if max_group_size is None else int(max_group_size)
    if b < 1 or d * b < c:
        raise InfeasibleError(
            f"cannot page {c} cells within {d} rounds of at most {b} cells each"
        )
    return _best_cuts(finds, range(c + 1), d, b)


def _best_cuts(
    finds: Sequence[Number], costs: Sequence[Number], d: int, b: int
) -> Tuple[Tuple[int, ...], Number]:
    """The cut DP body: maximize ``sum_r (costs[j_{r+1}] - costs[j_r]) F[j_r]``.

    ``costs[j]`` is what paging the first ``j`` cells costs (``j`` itself
    for cell counts, prefix sums of per-cell costs for the weighted model);
    groups hold at most ``b`` cells.  Returns ``(group_sizes, costs[c] -
    best bonus)``.
    """
    c = len(finds) - 1
    minus_infinity = float("-inf")
    zero = 0 * finds[c]

    # best[j] = max bonus over strategies whose r-th cut lands at position j.
    best = [zero if j <= b else minus_infinity for j in range(c + 1)]
    best[0] = minus_infinity  # cuts are strictly increasing and start past 0
    parent = [[0] * (c + 1)]
    for _level in range(2, d + 1):
        new_best = [minus_infinity] * (c + 1)
        new_parent = [0] * (c + 1)
        for j in range(1, c + 1):
            for prev in range(max(1, j - b), j):
                tail = best[prev]
                if tail == minus_infinity:
                    continue
                value = tail + (costs[j] - costs[prev]) * finds[prev]
                if value > new_best[j]:
                    new_best[j] = value
                    new_parent[j] = prev
        best = new_best
        parent.append(new_parent)

    if best[c] == minus_infinity:
        raise InfeasibleError("no feasible cut sequence (check group-size cap)")
    cuts = [c]
    for level in range(d - 1, 0, -1):
        cuts.append(parent[level][cuts[-1]])
    cuts.append(0)
    cuts.reverse()
    sizes = tuple(cuts[r + 1] - cuts[r] for r in range(d))
    return sizes, costs[c] - best[c]


def dp_value_table(
    instance: PagingInstance,
    order: Sequence[int],
    *,
    max_rounds: Optional[int] = None,
) -> Tuple[Tuple[Number, ...], ...]:
    """The full ``E(l, k)`` table (for inspection and tests).

    Entry ``[l-1][k]`` is ``E(l, k)``; unreachable entries hold ``inf``.
    """
    c = instance.num_cells
    order = validate_order(order, c)
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    finds = instance.prefix_find_probabilities(order)
    exact = instance.is_exact
    one: Number = Fraction(1) if exact else 1.0
    survivor = [one - f for f in finds]
    infinity = float("inf")

    table = []
    row = [infinity] + [k for k in range(1, c + 1)]
    table.append(tuple(row))
    for level in range(2, d + 1):
        new_row = [infinity] * (c + 1)
        for k in range(level, c + 1):
            denominator = survivor[c - k]
            best = infinity
            for x in range(1, k - level + 2):
                tail = table[-1][k - x]
                if tail == infinity:
                    continue
                if float(denominator) <= 0.0:
                    value: Number = x
                else:
                    value = x + (survivor[c - k + x] / denominator) * tail
                if value < best:
                    best = value
            new_row[k] = best
        table.append(tuple(new_row))
    return tuple(table)
