"""Empirical approximation-ratio measurement (experiments E3, E16).

Theorem 4.8 guarantees ``EP_heuristic / EP_optimal <= e/(e-1)`` and Section
4.3 shows the ratio can reach ``320/317``.  This harness sweeps instance
families, solves each instance both heuristically and exactly, and aggregates
the observed ratios so the experiment tables can report where the heuristic
actually lands between those two bounds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exact import optimal_strategy
from ..core.expected_paging import expected_paging_float
from ..core.heuristic import conference_call_heuristic
from ..core.instance import PagingInstance
from ..core.special_case import two_device_two_round_heuristic

InstanceFactory = Callable[[np.random.Generator], PagingInstance]


@dataclass(frozen=True)
class RatioSample:
    """One instance's heuristic-vs-optimal comparison."""

    heuristic_value: float
    optimal_value: float
    num_devices: int
    num_cells: int
    max_rounds: int

    @property
    def ratio(self) -> float:
        if self.optimal_value <= 0:
            return 1.0
        return self.heuristic_value / self.optimal_value


@dataclass(frozen=True)
class RatioSummary:
    """Aggregate over many :class:`RatioSample` values."""

    count: int
    mean_ratio: float
    max_ratio: float
    quantile95: float
    worst_sample: Optional[RatioSample]

    @classmethod
    def from_samples(cls, samples: Sequence[RatioSample]) -> "RatioSummary":
        if not samples:
            return cls(0, 1.0, 1.0, 1.0, None)
        ratios = np.array([sample.ratio for sample in samples])
        worst = samples[int(np.argmax(ratios))]
        return cls(
            count=len(samples),
            mean_ratio=float(ratios.mean()),
            max_ratio=float(ratios.max()),
            quantile95=float(np.quantile(ratios, 0.95)),
            worst_sample=worst,
        )


def measure_ratio(instance: PagingInstance) -> RatioSample:
    """Heuristic vs exact optimal EP for one instance."""
    heuristic = conference_call_heuristic(instance)
    optimal = optimal_strategy(instance)
    return RatioSample(
        heuristic_value=float(heuristic.expected_paging),
        optimal_value=float(optimal.expected_paging),
        num_devices=instance.num_devices,
        num_cells=instance.num_cells,
        max_rounds=instance.max_rounds,
    )


def measure_special_case_ratio(instance: PagingInstance) -> RatioSample:
    """Section 4.1 scan vs exact optimal for ``m = 2, d = 2`` instances."""
    split = two_device_two_round_heuristic(instance)
    optimal = optimal_strategy(instance)
    return RatioSample(
        heuristic_value=float(split.expected_paging),
        optimal_value=float(optimal.expected_paging),
        num_devices=instance.num_devices,
        num_cells=instance.num_cells,
        max_rounds=instance.max_rounds,
    )


def sweep_ratios(
    factory: InstanceFactory,
    *,
    trials: int,
    rng: np.random.Generator,
    measurer: Callable[[PagingInstance], RatioSample] = measure_ratio,
) -> List[RatioSample]:
    """Draw instances from ``factory`` and measure each one."""
    return [measurer(factory(rng)) for _ in range(trials)]


def ratio_sweep_summary(
    factory: InstanceFactory,
    *,
    trials: int,
    rng: np.random.Generator,
    measurer: Callable[[PagingInstance], RatioSample] = measure_ratio,
) -> RatioSummary:
    """Convenience wrapper: sweep then aggregate."""
    return RatioSummary.from_samples(
        sweep_ratios(factory, trials=trials, rng=rng, measurer=measurer)
    )


def compare_strategies(
    instance: PagingInstance,
    strategies: Iterable[Tuple[str, "object"]],
) -> List[Tuple[str, float]]:
    """Evaluate labeled strategies on one instance (sorted by EP).

    Float instances score the whole stack in one call to
    :func:`repro.core.batch.expected_paging_batch`; exact instances keep the
    scalar Fraction evaluation per strategy.
    """
    pairs = list(strategies)
    if not pairs:
        return []
    if instance.is_exact:
        out = [
            (label, expected_paging_float(instance, strategy))  # type: ignore[arg-type]
            for label, strategy in pairs
        ]
    else:
        from ..core.batch import expected_paging_batch

        values = expected_paging_batch(
            instance, [strategy for _, strategy in pairs]  # type: ignore[misc]
        )
        out = [(label, float(value)) for (label, _), value in zip(pairs, values)]
    return sorted(out, key=lambda pair: pair[1])
