"""Fault injection and resilience for the cellular substrate.

The paper's model (Section 2, Lemma 2.1) assumes a perfect network: every
paging message is delivered, every paged device answers within its round,
and the location registry always reflects the latest report.  Production
paging systems enjoy none of that — pages are lost on congested downlinks,
cells go down for maintenance or failure, and location registries serve
stale fixes (the imperfect-information setting of the mobility-tracking
literature PAPERS.md collects, e.g. Rose & Yates' paging-under-delay model).

This module makes those failure modes *representable and recoverable*:

* :class:`FaultModel` / :class:`CellOutage` — a declarative, validated
  description of the faults to inject: a base per-page loss probability,
  per-cell overrides, scheduled cell outages, location-update (uplink) loss,
  and a registry staleness window after which confirmed fixes are
  distrusted.
* :class:`RecoveryPolicy` — bounded re-page retries with exponential
  backoff over rounds, plus an optional per-call round timeout.
* :class:`FaultInjector` — draws concrete fault events from the simulation's
  seeded ``np.random.Generator`` (so a faulty run is reproducible
  byte-for-byte) and accounts for them in
  :class:`~repro.cellnet.metrics.LinkUsageMetrics` and the active
  :mod:`repro.obs` tracer.
* :class:`ResilientPager` — plans with its base pager's plan step and
  runs the paging executor (:func:`~repro.cellnet.paging.execute_search`)
  under faults: lost pages go unanswered, retries re-page the candidate
  set after backoff waits, and a final complement sweep covers devices the
  registry mislaid.

Every recovery round — paging, backoff wait, and fallback sweep alike — is
counted against the delay budget ``d`` (``SimulationConfig.max_paging_rounds``),
so a resilient search **never pages past round d**; when the budget runs out
the call degrades gracefully into a partial conference and the unreachable
devices are reported in ``PagingOutcome.failed_devices``.  At fault rate
zero the simulator runs the executor with no injector, so ``EP`` stays
exactly comparable to Lemma 2.1's closed form.

One deliberate restriction: under faults the ``adaptive`` pager plans the
*oblivious* heuristic strategy.  Section 5's conditional replanning treats a
non-answer as proof of absence, which is unsound when the non-answer may be
a lost page; the oblivious plan keeps the executed strategy honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs.instrument import count
from .metrics import LinkUsageMetrics
from .paging import (
    PAGER_FACTORIES,
    PagingOutcome,
    Priors,
    build_sub_instance,
    execute_search,
)


@dataclass(frozen=True)
class CellOutage:
    """One scheduled outage: ``cell`` is down for ``start <= time < end``."""

    cell: int
    start: int
    end: int

    def __post_init__(self) -> None:
        if self.cell < 0:
            raise SimulationError("outage cell must be a valid cell id")
        if self.start < 0 or self.end < self.start:
            raise SimulationError("outage needs 0 <= start <= end")

    def active(self, time: int) -> bool:
        return self.start <= time < self.end


def _validate_probability(name: str, value: float) -> None:
    if not 0.0 <= float(value) <= 1.0:
        raise SimulationError(f"{name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class FaultModel:
    """Declarative fault description; all-zero by construction default.

    ``page_loss`` is the base probability that one downlink paging message
    to one cell is lost; ``cell_page_loss`` overrides it per cell id.
    ``update_loss`` applies to uplink location-update messages: a lost
    update costs the device its wireless message but never reaches the
    registry, which therefore serves stale beliefs.  ``stale_after`` ages
    out *confirmed* fixes: a fix older than that many steps is distrusted
    and the search falls back to the reported-area candidates.  ``outages``
    take cells down for whole time windows; pages to a down cell are never
    delivered.
    """

    page_loss: float = 0.0
    cell_page_loss: Mapping[int, float] = field(default_factory=dict)
    update_loss: float = 0.0
    stale_after: Optional[int] = None
    outages: Tuple[CellOutage, ...] = ()

    def __post_init__(self) -> None:
        _validate_probability("page_loss", self.page_loss)
        _validate_probability("update_loss", self.update_loss)
        for cell, probability in dict(self.cell_page_loss).items():
            if int(cell) < 0:
                raise SimulationError("cell_page_loss keys must be cell ids")
            _validate_probability(f"cell_page_loss[{cell}]", probability)
        if self.stale_after is not None and self.stale_after < 1:
            raise SimulationError("stale_after must be a positive step count")
        for outage in self.outages:
            if not isinstance(outage, CellOutage):
                raise SimulationError("outages must be CellOutage entries")

    @property
    def loses_pages(self) -> bool:
        """True when some page can be lost (``page_loss`` or a cell's own)."""
        if self.page_loss > 0.0:
            return True
        return any(float(p) > 0.0 for p in dict(self.cell_page_loss).values())

    @property
    def is_zero(self) -> bool:
        """True when the model injects nothing (the simulator bypasses it)."""
        if self.loses_pages or self.update_loss > 0.0:
            return False
        return not self.outages and self.stale_after is None

    def loss_probability(self, cell: int) -> float:
        if not self.cell_page_loss:
            return float(self.page_loss)
        return float(dict(self.cell_page_loss).get(cell, self.page_loss))

    def cell_down(self, cell: int, time: int) -> bool:
        for outage in self.outages:
            if outage.cell == cell and outage.active(time):
                return True
        return False


@dataclass(frozen=True)
class RecoveryPolicy:
    """Bounded re-page retries with exponential backoff, inside budget ``d``.

    Retry ``k`` (1-based) waits ``backoff_base * 2**(k-1)`` rounds and then
    re-pages the candidate set in one round.  Waits and retry rounds are
    counted against the call's delay budget, so the initial strategy is
    planned over ``budget - reserved_rounds()`` rounds (floor 1) to leave
    headroom.  ``call_timeout_rounds`` optionally tightens the budget below
    ``d``; it never extends it.
    """

    max_retries: int = 1
    backoff_base: int = 1
    call_timeout_rounds: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_retries < 0:
            raise SimulationError("max_retries must be non-negative")
        if self.backoff_base < 1:
            raise SimulationError("backoff_base must be at least 1")
        if self.call_timeout_rounds is not None and self.call_timeout_rounds < 1:
            raise SimulationError("call_timeout_rounds must be positive")

    def backoff(self, attempt: int) -> int:
        """Rounds waited before retry ``attempt`` (1-based)."""
        return self.backoff_base * (2 ** (attempt - 1))

    def reserved_rounds(self) -> int:
        """Worst-case rounds consumed by the full retry schedule."""
        return sum(self.backoff(k) + 1 for k in range(1, self.max_retries + 1))

    def budget(self, max_rounds: int) -> int:
        """The hard per-call round cap: never beyond the delay constraint."""
        if self.call_timeout_rounds is None:
            return max_rounds
        return min(max_rounds, self.call_timeout_rounds)

    def planning_rounds(self, max_rounds: int) -> int:
        """Rounds handed to the strategy planner (retry headroom reserved)."""
        return max(1, self.budget(max_rounds) - self.reserved_rounds())


#: The default recovery behavior when a fault model is active.
DEFAULT_RECOVERY = RecoveryPolicy()


class FaultInjector:
    """Draws fault events from the simulation RNG and accounts for them.

    One injector per simulator run: it shares the simulator's seeded
    ``Generator`` so fault draws are part of the same reproducible stream,
    and it reports what it injected to the run's
    :class:`~repro.cellnet.metrics.LinkUsageMetrics` plus the active
    :mod:`repro.obs` tracer (``faults.*`` counters).
    """

    def __init__(
        self,
        model: FaultModel,
        rng: np.random.Generator,
        metrics: Optional[LinkUsageMetrics] = None,
    ) -> None:
        self.model = model
        self._rng = rng
        self._metrics = metrics

    def page_delivered(self, cell: int, time: int) -> bool:
        """One paging message to ``cell``: delivered, lost, or blocked."""
        model = self.model
        if model.outages and model.cell_down(cell, time):
            if self._metrics is not None:
                self._metrics.record_outage_page()
            count("faults.outage_pages")
            return False
        probability = model.loss_probability(cell)
        if probability <= 0.0:
            return True
        if self._rng.random() < probability:
            if self._metrics is not None:
                self._metrics.record_page_lost()
            count("faults.pages_lost")
            return False
        return True

    def update_delivered(self, time: int) -> bool:
        """One uplink location-update message: delivered or lost."""
        probability = self.model.update_loss
        if probability <= 0.0:
            return True
        if self._rng.random() < probability:
            if self._metrics is not None:
                self._metrics.record_update_lost()
            count("faults.updates_lost")
            return False
        return True


class ResilientPager:
    """Fault-aware search: plan with the paper's machinery, execute with
    loss, retry within budget, degrade gracefully.

    Mirrors the ``search`` interface of the pagers in
    :mod:`repro.cellnet.paging` plus a ``time`` keyword (outages and loss
    draws are time-dependent).  The returned
    :class:`~repro.cellnet.paging.PagingOutcome` carries the devices the
    search had to give up on in ``failed_devices`` and the retry rounds
    spent in ``retries_used``; ``rounds_used`` includes backoff waits and
    never exceeds ``RecoveryPolicy.budget(max_rounds)``.
    """

    name = "resilient"

    def __init__(
        self,
        pager: str,
        injector: FaultInjector,
        policy: Optional[RecoveryPolicy] = None,
    ) -> None:
        if pager not in PAGER_FACTORIES:
            raise SimulationError(f"unknown base pager {pager!r}")
        self._pager = PAGER_FACTORIES[pager]()
        self._injector = injector
        self._policy = policy if policy is not None else DEFAULT_RECOVERY

    @property
    def policy(self) -> RecoveryPolicy:
        return self._policy

    def search(
        self,
        priors: Priors,
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
        *,
        time: int = 0,
    ) -> PagingOutcome:
        # The plan leaves headroom for the retry schedule inside the budget.
        instance, cells = build_sub_instance(
            priors, candidate_cells, self._policy.planning_rounds(max_rounds)
        )
        return execute_search(
            self._pager.plan(instance, cells),
            cells,
            true_cells,
            max_rounds,
            num_cells,
            injector=self._injector,
            policy=self._policy,
            time=time,
        )
