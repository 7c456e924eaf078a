"""Exact (exponential-time) solvers for the Conference Call problem.

The problem is NP-hard (Section 3 of the paper), so exact solutions are only
tractable for small instances; they serve as ground truth when measuring the
heuristic's empirical approximation ratio and when verifying the NP-hardness
reductions.

Two solvers are provided:

* :func:`optimal_strategy` — a subset dynamic program over prefixes
  ``L_1 ⊂ L_2 ⊂ ... ⊂ L_d = [c]``.  By Lemma 2.1 the objective depends only
  on this chain, so the DP over ``(prefix mask, rounds used)`` with submask
  enumeration finds the optimum in ``O(d 3^c)`` time — far faster than the
  naive ``d^c`` enumeration and exact in Fraction arithmetic when requested.
* :func:`optimal_strategy_bruteforce` — a literal enumeration of every
  surjection of cells onto rounds, used to cross-check the subset DP in tests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Optional, Tuple

from ..errors import InfeasibleError, SolverLimitError
from ..obs.instrument import traced
from .expected_paging import expected_paging
from .instance import Number, PagingInstance
from .strategy import Strategy

#: Largest cell count accepted by the subset DP (3^18 transitions is already
#: hundreds of millions of Python operations).
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


@lru_cache(maxsize=_FIND_TABLE_CACHE_SIZE)
def _mask_find_probabilities(instance: PagingInstance) -> Tuple[Number, ...]:
    """``F[mask] = prod_i P_i(mask)`` for every subset of cells, via bit DP.

    Memoized per instance (instances are hashable): the table depends only
    on the probability rows, so delay/bandwidth sweeps such as
    :func:`optimal_value_by_round_budget` build the ``2^c`` table once and
    re-run only the chain DP.
    """
    c = instance.num_cells
    exact = instance.is_exact
    zero: Number = Fraction(0) if exact else 0.0
    one: Number = Fraction(1) if exact else 1.0
    size = 1 << c
    # Per-device prefix-free subset sums, built from the lowest set bit.
    sums: List[List[Number]] = []
    for row in instance.rows:
        device_sums = [zero] * size
        for mask in range(1, size):
            low = mask & (-mask)
            device_sums[mask] = device_sums[mask ^ low] + row[low.bit_length() - 1]
        sums.append(device_sums)
    finds = [one] * size
    for mask in range(size):
        value = one
        for device_sums in sums:
            value = value * device_sums[mask]
        finds[mask] = value
    return tuple(finds)


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
    if c > MAX_EXACT_CELLS:
        raise SolverLimitError(
            f"exact solver limited to {MAX_EXACT_CELLS} cells, got {c}"
        )
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    d = min(d, c)
    b = c if max_group_size is None else int(max_group_size)
    if b < 1 or d * b < c:
        raise InfeasibleError(
            f"cannot page {c} cells within {d} rounds of at most {b} cells each"
        )
    finds = _mask_find_probabilities(instance)
    full = (1 << c) - 1
    popcount = _popcount_table(full + 1)

    minus_infinity = float("-inf")
    # bonus[mask] = best achievable sum of |S_{r+1}| * F(L_r) over the
    # remaining rounds, given prefix `mask` with `t` groups still to place.
    bonus = [0.0 if mask == full else minus_infinity for mask in range(full + 1)]
    bonus[full] = 0 * finds[0]  # exact zero in the instance's arithmetic
    choice: List[List[int]] = []

    for t in range(1, d + 1):
        new_bonus = [minus_infinity] * (full + 1)
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
                        # Every group except the first earns |S_{r+1}| F(L_r);
                        # the first has mask = 0 and finds[0] = 0, so the same
                        # expression covers it.
                        value = popcount[sub] * find_here + tail
                        if value > best:
                            best = value
                            best_ext = sub
                sub = (sub - 1) & complement
            if best != minus_infinity:
                new_bonus[mask] = best
                new_choice[mask] = best_ext
        bonus = new_bonus
        choice.append(new_choice)
        if t == d:
            break

    # Reconstruct the chain from the empty prefix.  choice[t-1] holds the
    # extension chosen when t groups remain; the first group uses t = d.
    groups = []
    mask = 0
    for t in range(d, 0, -1):
        ext = choice[t - 1][mask]
        groups.append([j for j in range(c) if ext >> j & 1])
        mask |= ext
    strategy = Strategy(groups)
    return ExactResult(strategy=strategy, expected_paging=expected_paging(instance, strategy))


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
    d = instance.max_rounds if max_rounds is None else int(max_rounds)
    d = min(d, c)
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
