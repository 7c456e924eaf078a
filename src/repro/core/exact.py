"""Exact (exponential-time) solvers for the Conference Call problem and its
Section 5 stopping-rule and cost variants.

The problem is NP-hard (Section 3 of the paper), so exact solutions are only
tractable for small instances; they serve as ground truth when measuring the
heuristic's empirical approximation ratio and when verifying the NP-hardness
reductions.

Lemma 2.1's telescoping holds for any stopping rule that depends only on the
*set* of cells paged so far: ``EP = c - sum_r |S_{r+1}| F(L_r)`` where
``F(L)`` is the probability that the search would already have stopped with
prefix ``L``.  Hence one subset dynamic program over prefixes
``L_1 ⊂ L_2 ⊂ ... ⊂ L_d = [c]`` (:func:`_best_chain`, over
``(prefix mask, rounds used)`` with submask enumeration, ``O(d 3^c)`` time,
exact in Fraction arithmetic) solves every variant; only the mask-indexed
``F`` table and the cost of a group change:

* Conference Call (:func:`optimal_strategy`): ``F(L) = prod_i P_i(L)``;
* Yellow Pages (:func:`optimal_yellow_pages`): ``F(L) = 1 - prod_i (1 - P_i(L))``;
* Signature (:func:`optimal_signature`): ``F(L) = Pr[#devices in L >= k]``
  (Poisson-binomial);
* weighted costs (:func:`repro.core.weighted.optimal_weighted_strategy`):
  the Conference Call ``F`` with ``W(S_{r+1})`` in place of ``|S_{r+1}|``.

:func:`optimal_strategy_bruteforce` is a literal enumeration of every
surjection of cells onto rounds, used to cross-check the subset DP in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Sequence, Tuple

from ..errors import InfeasibleError, SolverLimitError
from ..obs.instrument import traced
from .expected_paging import expected_paging
from .instance import Number, PagingInstance
from .signature import _check_quorum, expected_paging_signature, poisson_binomial_tail
from .strategy import Strategy
from .yellow_pages import expected_paging_yellow

#: Largest cell count accepted by the subset DP, for every stopping rule and
#: cost (3^18 transitions is already hundreds of millions of Python operations).
MAX_EXACT_CELLS = 18

#: How many per-instance ``F[mask]`` tables to keep memoized.  Each table has
#: ``2^c`` entries, so the cache is deliberately small; it exists so repeated
#: solves of the *same* instance (delay sweeps, bandwidth sweeps) pay for the
#: table once.
_FIND_TABLE_CACHE_SIZE = 8


if hasattr(int, "bit_count"):  # Python >= 3.10

    def _popcount_table(size: int) -> List[int]:
        """``popcount[mask]`` for every mask below ``size`` via int.bit_count."""
        return [mask.bit_count() for mask in range(size)]

else:  # pragma: no cover - exercised on the 3.9 CI floor

    def _popcount_table(size: int) -> List[int]:
        """Incremental fallback: ``popcount[m] = popcount[m >> 1] + (m & 1)``."""
        table = [0] * size
        for mask in range(1, size):
            table[mask] = table[mask >> 1] + (mask & 1)
        return table


@dataclass(frozen=True)
class ExactResult:
    """An optimal strategy together with its expected paging."""

    strategy: Strategy
    expected_paging: Number


def _subset_sums(rows: Sequence[Sequence[Number]], zero: Number) -> List[List[Number]]:
    """``sums[i][mask] = sum_{j in mask} rows[i][j]`` for every row and mask.

    Built from the lowest set bit: ``sums[mask] = sums[mask ^ low] + row[j]``
    where ``low = 2^j``.  A row may be a probability row ``P_i`` or a cost
    vector ``w`` (giving ``W(mask)``); ``zero`` fixes the arithmetic.
    """
    size = 1 << len(rows[0])
    tables: List[List[Number]] = []
    for row in rows:
        sums = [zero] * size
        for mask in range(1, size):
            low = mask & (-mask)
            sums[mask] = sums[mask ^ low] + row[low.bit_length() - 1]
        tables.append(sums)
    return tables


def _find_table(
    rows: Sequence[Sequence[Number]], zero: Number, one: Number
) -> List[Number]:
    """``F[mask] = prod_i P_i(mask)``, the Conference Call stop table."""
    sums = _subset_sums(rows, zero)
    finds = [one] * len(sums[0])
    for mask in range(len(finds)):
        value = one
        for device_sums in sums:
            value = value * device_sums[mask]
        finds[mask] = value
    return finds


def _zero_one(instance: PagingInstance) -> Tuple[Number, Number]:
    if instance.is_exact:
        return Fraction(0), Fraction(1)
    return 0.0, 1.0


@lru_cache(maxsize=_FIND_TABLE_CACHE_SIZE)
def _mask_find_probabilities(instance: PagingInstance) -> Tuple[Number, ...]:
    """``F[mask] = prod_i P_i(mask)`` for every subset of cells, via bit DP.

    Memoized per instance (instances are hashable): the table depends only
    on the probability rows, so delay/bandwidth sweeps such as
    :func:`optimal_value_by_round_budget` build the ``2^c`` table once and
    re-run only the chain DP.
    """
    return tuple(_find_table(instance.rows, *_zero_one(instance)))


def _check_size(c: int) -> None:
    if c > MAX_EXACT_CELLS:
        raise SolverLimitError(
            f"exact solver limited to {MAX_EXACT_CELLS} cells, got {c}"
        )


def _round_budget(instance: PagingInstance, max_rounds: Optional[int]) -> int:
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    return min(d, instance.num_cells)


def _best_chain(
    finds: Sequence[Number],
    group_cost: Sequence[Number],
    c: int,
    d: int,
    b: int,
) -> Strategy:
    """The prefix chain maximizing ``sum_r group_cost[S_{r+1}] F(L_r)``.

    ``finds[mask]`` is the stop table ``F``, ``group_cost[mask]`` what
    paging ``mask`` as one group costs (``|mask|`` or ``W(mask)``).  At most
    ``d`` groups of at most ``b`` cells each; the caller checks feasibility.
    """
    full = (1 << c) - 1
    popcount = _popcount_table(full + 1)

    minus_infinity = float("-inf")
    # bonus[mask] = best achievable sum of cost(S_{r+1}) * F(L_r) over the
    # remaining rounds, given prefix `mask` with `t` groups still to place.
    bonus: List = [minus_infinity] * (full + 1)
    bonus[full] = 0 * finds[0]  # exact zero in the table's arithmetic
    choice: List[List[int]] = []

    for t in range(1, d + 1):
        new_bonus: List = [minus_infinity] * (full + 1)
        new_choice = [0] * (full + 1)
        for mask in range(full + 1):
            complement = full ^ mask
            remaining = popcount[complement]
            if remaining < t or remaining > t * b:
                continue
            find_here = finds[mask]
            best = minus_infinity
            best_ext = 0
            sub = complement
            while sub:
                if popcount[sub] <= b and popcount[complement ^ sub] <= (t - 1) * b:
                    tail = bonus[mask | sub]
                    if tail != minus_infinity:
                        # Every group except the first earns cost * F(L_r);
                        # the first has mask = 0 and finds[0] = 0, so the same
                        # expression covers it.
                        value = group_cost[sub] * find_here + tail
                        if value > best:
                            best = value
                            best_ext = sub
                sub = (sub - 1) & complement
            if best != minus_infinity:
                new_bonus[mask] = best
                new_choice[mask] = best_ext
        bonus = new_bonus
        choice.append(new_choice)

    # Reconstruct the chain from the empty prefix.  choice[t-1] holds the
    # extension chosen when t groups remain; the first group uses t = d.
    groups = []
    mask = 0
    for t in range(d, 0, -1):
        ext = choice[t - 1][mask]
        groups.append([j for j in range(c) if ext >> j & 1])
        mask |= ext
    return Strategy(groups)


@traced("core.exact")
def optimal_strategy(
    instance: PagingInstance,
    *,
    max_rounds: Optional[int] = None,
    max_group_size: Optional[int] = None,
) -> ExactResult:
    """The minimum-expected-paging strategy, by subset dynamic programming.

    Maximizes the Lemma 2.1 bonus ``sum_r |S_{r+1}| F(L_r)`` over all chains
    of prefixes.  Supports the bandwidth-limited model via
    ``max_group_size``.  Raises :class:`SolverLimitError` above
    :data:`MAX_EXACT_CELLS` cells, and :class:`InfeasibleError` before any
    work when no ``d``-round strategy obeys the cap (``b < 1`` or
    ``d * b < c``).

    replint: solver
    """
    c = instance.num_cells
    _check_size(c)
    d = _round_budget(instance, max_rounds)
    b = c if max_group_size is None else int(max_group_size)
    if b < 1 or d * b < c:
        raise InfeasibleError(
            f"cannot page {c} cells within {d} rounds of at most {b} cells each"
        )
    finds = _mask_find_probabilities(instance)
    strategy = _best_chain(finds, _popcount_table(1 << c), c, d, b)
    return ExactResult(strategy=strategy, expected_paging=expected_paging(instance, strategy))


@dataclass(frozen=True)
class VariantExactResult:
    """An optimal strategy for a variant stopping rule."""

    strategy: Strategy
    expected_paging: Number
    rule: str


def optimal_yellow_pages(
    instance: PagingInstance, *, max_rounds: Optional[int] = None
) -> VariantExactResult:
    """The exact optimal strategy for the find-ANY stopping rule.

    replint: solver
    """
    c = instance.num_cells
    _check_size(c)
    d = _round_budget(instance, max_rounds)
    zero, one = _zero_one(instance)
    sums = _subset_sums(instance.rows, zero)
    finds: List[Number] = [one] * (1 << c)
    for mask in range(1 << c):
        survive = one
        for device_sums in sums:
            survive = survive * (one - device_sums[mask])
        finds[mask] = one - survive
    strategy = _best_chain(finds, _popcount_table(1 << c), c, d, c)
    return VariantExactResult(
        strategy=strategy,
        expected_paging=expected_paging_yellow(instance, strategy),
        rule="yellow-pages",
    )


def optimal_signature(
    instance: PagingInstance,
    quorum: int,
    *,
    max_rounds: Optional[int] = None,
) -> VariantExactResult:
    """The exact optimal strategy for the find-at-least-k stopping rule.

    replint: solver
    """
    c = instance.num_cells
    _check_size(c)
    _check_quorum(instance.num_devices, quorum)
    d = _round_budget(instance, max_rounds)
    sums = _subset_sums(instance.rows, _zero_one(instance)[0])
    finds = [
        poisson_binomial_tail([device_sums[mask] for device_sums in sums], quorum)
        for mask in range(1 << c)
    ]
    strategy = _best_chain(finds, _popcount_table(1 << c), c, d, c)
    return VariantExactResult(
        strategy=strategy,
        expected_paging=expected_paging_signature(instance, strategy, quorum),
        rule=f"signature-{quorum}",
    )


def enumerate_strategies(num_cells: int, num_rounds: int) -> Iterator[Strategy]:
    """Every strategy with exactly ``num_rounds`` groups (all surjections)."""
    for assignment in itertools.product(range(num_rounds), repeat=num_cells):
        if len(set(assignment)) != num_rounds:
            continue
        yield Strategy.from_assignment(assignment)


def optimal_strategy_bruteforce(
    instance: PagingInstance,
    *,
    max_rounds: Optional[int] = None,
    enumeration_limit: int = 2_000_000,
) -> ExactResult:
    """Literal enumeration of all strategies (ground truth for tiny instances).

    replint: solver
    """
    c = instance.num_cells
    d = _round_budget(instance, max_rounds)
    if d**c > enumeration_limit:
        raise SolverLimitError(
            f"{d}^{c} strategies exceed the enumeration limit {enumeration_limit}"
        )
    best: Optional[ExactResult] = None
    for strategy in enumerate_strategies(c, d):
        value = expected_paging(instance, strategy)
        if best is None or value < best.expected_paging:
            best = ExactResult(strategy=strategy, expected_paging=value)
    if best is None:
        raise SolverLimitError("no strategy enumerated; check parameters")
    return best


def optimal_value_by_round_budget(
    instance: PagingInstance, max_rounds_range: Tuple[int, int]
) -> Tuple[Number, ...]:
    """Optimal EP for each delay bound in an inclusive range (delay tradeoff)."""
    low, high = max_rounds_range
    out = []
    for d in range(low, high + 1):
        out.append(optimal_strategy(instance, max_rounds=d).expected_paging)
    return tuple(out)
