"""The Signature problem: find any ``k`` of the ``m`` devices (Section 5).

The paper proposes this generalization — "finding k managers out of m
managers to sign a document" — with the Conference Call problem as ``k = m``
and Yellow Pages as ``k = 1``.  The search stops once at least ``k`` devices
have been found, so the prefix stopping probability is the Poisson-binomial
tail ``Pr[#devices in prefix >= k]`` with per-device success ``P_i(prefix)``.

Over a fixed cell order the optimal cut points are found exactly by the
generic pairwise-cut dynamic program (the stopping rule is prefix-monotone,
which is all the telescoped objective needs).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple

from ..errors import InvalidInstanceError
from .dp import optimize_cuts
from .instance import Number, PagingInstance
from .ordering import by_expected_devices, validate_order
from .strategy import Strategy


@dataclass(frozen=True)
class SignatureResult:
    """A Signature-problem strategy with its expected paging."""

    strategy: Strategy
    expected_paging: Number
    order: Tuple[int, ...]
    quorum: int


def _check_quorum(num_devices: int, quorum: int) -> None:
    """Raise unless ``1 <= quorum <= num_devices``."""
    if not 1 <= quorum <= num_devices:
        raise InvalidInstanceError(
            f"quorum must satisfy 1 <= k <= m={num_devices}, got {quorum}"
        )


def poisson_binomial_tail(successes: Sequence[Number], quorum: int) -> Number:
    """``Pr[at least `quorum` of the independent events occur]``.

    Standard Poisson-binomial DP over the count distribution; exact when the
    probabilities are Fractions.
    """
    if quorum <= 0:
        return 1 if not successes else 0 * successes[0] + 1
    exact = all(isinstance(p, (int, Fraction)) for p in successes)
    zero: Number = Fraction(0) if exact else 0.0
    one: Number = Fraction(1) if exact else 1.0
    counts: List[Number] = [one]  # distribution of the running success count
    for p in successes:
        nxt = [zero] * (len(counts) + 1)
        for count, probability in enumerate(counts):
            nxt[count] = nxt[count] + probability * (one - p)
            nxt[count + 1] = nxt[count + 1] + probability * p
        counts = nxt
    tail = zero
    for count in range(quorum, len(counts)):
        tail = tail + counts[count]
    return tail


def prefix_stop_probabilities(
    instance: PagingInstance, order: Sequence[int], quorum: int
) -> Tuple[Number, ...]:
    """``F[j] = Pr[>= quorum devices lie in the first j cells of order]``."""
    order = validate_order(order, instance.num_cells)
    _check_quorum(instance.num_devices, quorum)
    exact = instance.is_exact
    zero: Number = Fraction(0) if exact else 0.0
    sums = [zero] * instance.num_devices
    out = [poisson_binomial_tail(sums, quorum)]
    for cell in order:
        for i, row in enumerate(instance.rows):
            sums[i] = sums[i] + row[cell]
        out.append(poisson_binomial_tail(sums, quorum))
    return tuple(out)


def expected_paging_signature(
    instance: PagingInstance, strategy: Strategy, quorum: int
) -> Number:
    """Expected cells paged until at least ``quorum`` devices are found."""
    from .expected_paging import expected_paging_from_stop_probabilities

    order = strategy.cells_in_order()
    finds = prefix_stop_probabilities(instance, order, quorum)
    stops = []
    position = 0
    for size in strategy.group_sizes():
        position += size
        stops.append(finds[position])
    return expected_paging_from_stop_probabilities(strategy, stops)


def optimize_signature_over_order(
    instance: PagingInstance,
    order: Sequence[int],
    quorum: int,
    *,
    max_rounds: Optional[int] = None,
    max_group_size: Optional[int] = None,
) -> SignatureResult:
    """Optimal cuts of ``order`` for the quorum-``k`` stopping rule.

    replint: solver
    """
    order = validate_order(order, instance.num_cells)
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    finds = prefix_stop_probabilities(instance, order, quorum)
    sizes, value = optimize_cuts(finds, d, max_group_size=max_group_size)
    strategy = Strategy.from_order_and_sizes(order, sizes)
    return SignatureResult(
        strategy=strategy, expected_paging=value, order=order, quorum=quorum
    )


def signature_heuristic(
    instance: PagingInstance,
    quorum: int,
    *,
    max_rounds: Optional[int] = None,
) -> SignatureResult:
    """Weight-ordered heuristic for the Signature problem.

    Uses the Conference Call ordering (expected devices per cell).  For
    ``quorum = m`` this coincides with the paper's e/(e-1) heuristic; for
    smaller quorums it is a natural but unanalyzed heuristic whose behavior
    experiment E11 sweeps.

    replint: solver
    """
    return optimize_signature_over_order(
        instance, by_expected_devices(instance), quorum, max_rounds=max_rounds
    )
