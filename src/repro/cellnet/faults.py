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
* :class:`ResilientPager` — plans with the paper's machinery (Fig. 1
  heuristic, or blanket paging) and executes the plan under faults: lost
  pages go unanswered, retries re-page the candidate set after backoff
  waits, and a final complement sweep covers devices the registry mislaid.

Every recovery round — paging, backoff wait, and fallback sweep alike — is
counted against the delay budget ``d`` (``SimulationConfig.max_paging_rounds``),
so a resilient search **never pages past round d**; when the budget runs out
the call degrades gracefully into a partial conference and the unreachable
devices are reported in ``PagingOutcome.failed_devices``.  At fault rate
zero the simulator bypasses this engine entirely, so ``EP`` stays exactly
comparable to Lemma 2.1's closed form.

One deliberate restriction: under faults the ``adaptive`` pager plans the
*oblivious* heuristic strategy.  Section 5's conditional replanning treats a
non-answer as proof of absence, which is unsound when the non-answer may be
a lost page; the oblivious plan keeps the executed strategy honest.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.strategy import Strategy
from ..errors import SimulationError
from ..obs.instrument import count
from ..solvers import get_solver
from .metrics import LinkUsageMetrics
from .paging import PagingOutcome, build_sub_instance


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
    def is_zero(self) -> bool:
        """True when the model injects nothing (the simulator bypasses it)."""
        if self.page_loss > 0.0 or self.update_loss > 0.0:
            return False
        if any(float(p) > 0.0 for p in dict(self.cell_page_loss).values()):
            return False
        return not self.outages and self.stale_after is None

    def loss_probability(self, cell: int) -> float:
        return float(dict(self.cell_page_loss).get(cell, self.page_loss))

    def cell_down(self, cell: int, time: int) -> bool:
        return any(o.cell == cell and o.active(time) for o in self.outages)


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
        if self.model.cell_down(cell, time):
            if self._metrics is not None:
                self._metrics.record_outage_page()
            count("faults.outage_pages")
            return False
        probability = self.model.loss_probability(cell)
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


def _collect_answers(
    remaining: Dict[int, int], found: Dict[int, int], delivered: set
) -> None:
    """Move every device whose true cell received a page into ``found``."""
    for device in sorted(remaining):
        if remaining[device] in delivered:
            found[device] = remaining.pop(device)


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
        if pager not in ("blanket", "heuristic", "adaptive"):
            raise SimulationError(f"unknown base pager {pager!r}")
        self._pager = pager
        self._injector = injector
        self._policy = policy if policy is not None else DEFAULT_RECOVERY
        # Non-blanket plans come from the registry's Fig. 1 heuristic.
        self._planner = get_solver("heuristic")

    @property
    def policy(self) -> RecoveryPolicy:
        return self._policy

    def _plan(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        rounds: int,
    ) -> Tuple[Strategy, Tuple[int, ...]]:
        cells = tuple(int(cell) for cell in candidate_cells)
        if self._pager == "blanket":
            if not cells:
                raise SimulationError("cannot page an empty candidate set")
            return Strategy.single_round(len(cells)), cells
        instance, cells = build_sub_instance(priors, candidate_cells, rounds)
        return self._planner(instance).strategy, cells

    def search(
        self,
        priors: Sequence[np.ndarray],
        candidate_cells: Sequence[int],
        true_cells: Sequence[int],
        max_rounds: int,
        num_cells: int,
        *,
        time: int = 0,
    ) -> PagingOutcome:
        policy = self._policy
        budget = policy.budget(max_rounds)
        strategy, cells = self._plan(
            priors, candidate_cells, policy.planning_rounds(max_rounds)
        )
        injector = self._injector
        remaining = {device: int(cell) for device, cell in enumerate(true_cells)}
        found: Dict[int, int] = {}
        paged = 0
        rounds = 0
        retries = 0

        # Phase 1 — the planned strategy, one round per group, under faults.
        for group in strategy.groups:
            if not remaining or rounds >= budget:
                break
            rounds += 1
            paged += len(group)
            delivered = {
                cells[j]
                for j in sorted(group)
                if injector.page_delivered(cells[j], time)
            }
            _collect_answers(remaining, found, delivered)

        # Phase 2 — bounded re-page retries with exponential backoff; each
        # retry blankets the candidate set (a lost page says nothing about
        # where the device is, so no cell can be ruled out).
        candidate_set = set(cells)
        for attempt in range(1, policy.max_retries + 1):
            if not remaining:
                break
            wait = policy.backoff(attempt)
            if rounds + wait + 1 > budget:
                break  # the retry would overrun the delay constraint
            rounds += wait + 1
            retries += 1
            targets = sorted(candidate_set)
            paged += len(targets)
            delivered = {
                cell for cell in targets if injector.page_delivered(cell, time)
            }
            _collect_answers(remaining, found, delivered)

        # Phase 3 — the system-wide fallback sweep for devices the registry
        # mislaid entirely, if (and only if) it still fits the budget.
        used_fallback = False
        if (
            remaining
            and rounds < budget
            and any(cell not in candidate_set for cell in remaining.values())
        ):
            sweep = sorted(set(range(num_cells)) - candidate_set)
            if sweep:
                rounds += 1
                used_fallback = True
                paged += len(sweep)
                delivered = {
                    cell for cell in sweep if injector.page_delivered(cell, time)
                }
                _collect_answers(remaining, found, delivered)

        # Phase 4 — graceful degradation: the conference proceeds without
        # whoever is still missing once the budget is exhausted.
        return PagingOutcome(
            found_cells=found,
            cells_paged=paged,
            rounds_used=rounds,
            used_fallback=used_fallback,
            failed_devices=tuple(sorted(remaining)),
            retries_used=retries,
        )
