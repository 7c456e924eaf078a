"""Quasipartition problems (Section 3 of the paper) and the Lemma 3.7 reduction.

``Quasipartition1`` — given ``c`` (divisible by 3) non-negative rational
sizes, decide whether some subset of exactly ``2c/3`` of them sums to half
the total.  It seeds the ``m = 2, d = 2`` NP-hardness proof (Lemma 3.2).

``Quasipartition2`` — the parameterized template behind Theorem 3.8: with
parameters ``(M, r_u, r_v, x_u, x_v)`` and ``n = M (r_u + r_v) h`` sizes,
decide whether a subset of exactly ``M r_v h`` sizes sums to the fraction
``x_v / (x_u + x_v)`` of the total.  Setting ``M = 3, r_u = 1/3, r_v = 2/3,
x_u = x_v = 1/2`` recovers Quasipartition1.

Lemma 3.7 reduces Partition to Quasipartition2 by padding each Partition size
with a large power of two (forcing the witness cardinality), adding filler
zeros, and planting two dominant "special" sizes that pin down which side of
the split each falls on.  :func:`reduce_partition_to_quasipartition2`
implements that construction verbatim; the round-trip is validated by exact
solvers on both ends in the tests and in experiment E14.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from ..errors import InvalidInstanceError
from .partition import PartitionInstance


@dataclass(frozen=True)
class QuasipartitionParameters:
    """The ``(M, r_u, r_v, x_u, x_v)`` template of Quasipartition2."""

    scale: int  # M
    r_u: Fraction
    r_v: Fraction
    x_u: Fraction
    x_v: Fraction

    def __post_init__(self) -> None:
        for name in ("r_u", "r_v", "x_u", "x_v"):
            value = getattr(self, name)
            if value <= 0:
                raise InvalidInstanceError(f"{name} must be positive, got {value}")
        if (self.scale * self.r_u).denominator != 1:
            raise InvalidInstanceError("M * r_u must be an integer")
        if (self.scale * self.r_v).denominator != 1:
            raise InvalidInstanceError("M * r_v must be an integer")
        if self.r_u > self.r_v:
            raise InvalidInstanceError(
                "the template assumes r_u <= r_v (u is the smaller-cardinality side)"
            )

    @property
    def mass_fraction(self) -> Fraction:
        """The target sum fraction ``x_v / (x_u + x_v)``."""
        return self.x_v / (self.x_u + self.x_v)

    def subset_size(self, h: int) -> int:
        """``M r_v h`` — the required witness cardinality."""
        return int(self.scale * self.r_v * h)

    def total_size(self, h: int) -> int:
        """``n = M (r_u + r_v) h`` — the instance length."""
        return int(self.scale * (self.r_u + self.r_v) * h)


#: The Quasipartition1 parameters (paper, end of Section 3.2).
QUASIPARTITION1 = QuasipartitionParameters(
    scale=3,
    r_u=Fraction(1, 3),
    r_v=Fraction(2, 3),
    x_u=Fraction(1, 2),
    x_v=Fraction(1, 2),
)


def subset_with_count_and_sum(
    sizes: Sequence[Fraction], count: int, target: Fraction
) -> Optional[Tuple[int, ...]]:
    """A subset of exactly ``count`` indices summing to ``target``, or ``None``.

    Rational sizes are scaled to integers by the common denominator, then a
    ``(count, sum)`` reachability DP with predecessor links finds a witness.
    """
    sizes = [Fraction(size) for size in sizes]
    if any(size < 0 for size in sizes):
        raise InvalidInstanceError("sizes must be non-negative")
    if not 0 <= count <= len(sizes):
        return None
    denominator = math.lcm(
        target.denominator, *(size.denominator for size in sizes)
    )
    scaled = [int(size * denominator) for size in sizes]
    goal_value = target * denominator
    if goal_value.denominator != 1:
        return None
    goal = (count, int(goal_value))
    if goal[1] < 0 or goal[1] > sum(scaled):
        return None

    reachable: Dict[Tuple[int, int], Optional[Tuple[int, Tuple[int, int]]]] = {
        (0, 0): None
    }
    for index, size in enumerate(scaled):
        updates = {}
        for (chosen, value), _parent in reachable.items():
            if chosen == count:
                continue
            state = (chosen + 1, value + size)
            if state[1] > goal[1]:
                continue
            if state not in reachable and state not in updates:
                updates[state] = (index, (chosen, value))
        reachable.update(updates)

    if goal not in reachable:
        return None
    subset: List[int] = []
    state: Tuple[int, int] = goal
    while reachable[state] is not None:
        index, parent = reachable[state]  # type: ignore[misc]
        subset.append(index)
        state = parent
    return tuple(sorted(subset))


# ----------------------------------------------------------------------
# Quasipartition1
# ----------------------------------------------------------------------
def solve_quasipartition1(sizes: Sequence[Fraction]) -> Optional[Tuple[int, ...]]:
    """A subset of ``2c/3`` indices summing to half the total, or ``None``."""
    sizes = [Fraction(size) for size in sizes]
    c = len(sizes)
    if c % 3 != 0 or c == 0:
        raise InvalidInstanceError("Quasipartition1 needs c divisible by 3")
    total = sum(sizes)
    return subset_with_count_and_sum(sizes, 2 * c // 3, total / 2)


def has_quasipartition1(sizes: Sequence[Fraction]) -> bool:
    """Decision version of :func:`solve_quasipartition1`."""
    return solve_quasipartition1(sizes) is not None


# ----------------------------------------------------------------------
# Quasipartition2 (the parameterized template)
# ----------------------------------------------------------------------
def solve_quasipartition2(
    sizes: Sequence[Fraction], parameters: QuasipartitionParameters
) -> Optional[Tuple[int, ...]]:
    """A witness for the Quasipartition2 template, or ``None``."""
    sizes = [Fraction(size) for size in sizes]
    n = len(sizes)
    per_h = parameters.total_size(1)
    if n % per_h != 0 or n == 0:
        raise InvalidInstanceError(
            f"instance length {n} is not a multiple of M(r_u + r_v) = {per_h}"
        )
    h = n // per_h
    total = sum(sizes)
    return subset_with_count_and_sum(
        sizes, parameters.subset_size(h), parameters.mass_fraction * total
    )


def has_quasipartition2(
    sizes: Sequence[Fraction], parameters: QuasipartitionParameters
) -> bool:
    """Decision version of :func:`solve_quasipartition2`."""
    return solve_quasipartition2(sizes, parameters) is not None


# ----------------------------------------------------------------------
# Lemma 3.7: Partition -> Quasipartition2
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class Lemma37Reduction:
    """The constructed Quasipartition2 instance with its bookkeeping."""

    sizes: Tuple[Fraction, ...]
    parameters: QuasipartitionParameters
    h: int
    padding_exponent: int
    #: index range of the rescaled Partition sizes within `sizes`
    partition_slice: Tuple[int, int]
    special_big_index: int
    special_small_index: int


def reduce_partition_to_quasipartition2(
    instance: PartitionInstance,
    parameters: QuasipartitionParameters = QUASIPARTITION1,
) -> Lemma37Reduction:
    """Lemma 3.7's construction, as executable code.

    * ``h = 2 * ceil(g / (2 M r_u))`` so both sides can absorb ``g/2`` real
      sizes plus one special size.
    * Each Partition size gains a ``2^p`` summand (``p = ceil(log2(sum+1))``),
      forcing every valid witness to take exactly ``g/2`` of them.
    * Filler zeros bring the cardinalities up to ``M r_u h - 1`` and
      ``M r_v h - 1``.
    * Two special sizes — ``(x_hi - x_lo/3)/X`` and ``(2/3) x_lo / X`` with
      ``X = x_u + x_v`` — dominate both sides, leaving exactly
      ``(x_lo/3)/X`` of slack per side for half of the real mass.
    """
    g = instance.count
    p = parameters
    m_ru = int(p.scale * p.r_u)
    m_rv = int(p.scale * p.r_v)
    h = 2 * math.ceil(g / (2 * m_ru))
    u_fill = m_ru * h - 1 - g // 2
    v_fill = m_rv * h - 1 - g // 2
    if u_fill < 0 or v_fill < 0:
        raise InvalidInstanceError("h too small to absorb the Partition sizes")

    padding_exponent = math.ceil(math.log2(instance.total + 1))
    padded = [Fraction(size + 2**padding_exponent) for size in instance.sizes]

    x_sum = p.x_u + p.x_v
    x_hi = max(p.x_u, p.x_v)
    x_lo = min(p.x_u, p.x_v)
    special_big = (x_hi - x_lo / 3) / x_sum
    special_small = Fraction(2, 3) * x_lo / x_sum
    real_mass = 1 - special_big - special_small  # equals (2/3) x_lo / X

    scale = real_mass / sum(padded)
    sizes: List[Fraction] = [size * scale for size in padded]
    sizes.extend([Fraction(0)] * (u_fill + v_fill))
    special_big_index = len(sizes)
    sizes.append(special_big)
    special_small_index = len(sizes)
    sizes.append(special_small)

    expected_length = p.total_size(h)
    if len(sizes) != expected_length:
        raise AssertionError(
            f"constructed {len(sizes)} sizes, expected n = {expected_length}"
        )
    return Lemma37Reduction(
        sizes=tuple(sizes),
        parameters=p,
        h=h,
        padding_exponent=padding_exponent,
        partition_slice=(0, g),
        special_big_index=special_big_index,
        special_small_index=special_small_index,
    )


def extract_partition_witness(
    reduction: Lemma37Reduction, quasi_witness: Sequence[int]
) -> Tuple[int, ...]:
    """Map a Quasipartition2 witness back to Partition indices (Lemma 3.7)."""
    start, stop = reduction.partition_slice
    return tuple(sorted(i for i in quasi_witness if start <= i < stop))
