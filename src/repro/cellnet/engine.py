"""The simulator's step loop and the shared per-cell paging channels.

The paper's bandwidth-limited variant (Section 5) caps a *single* call at
``b`` cells per round.  Under heavy traffic the cap is a property of the
network, not the call: every concurrent conference-call setup competes for
the same ``b`` paging slots per round on each cell's channel (and a cell
may carry ``k`` parallel paging carriers, Mostafa et al., PAPERS.md).  The
system is time-stepped (paper Section 1.1), and this module runs it so:

* :class:`EventEngine` — the fixed step loop of
  :class:`~repro.cellnet.simulator.CellularSimulator`.  Each step
  ``1..horizon`` runs movement, then the step's call arrivals, then, under
  contention, the shared paging round.  Every rng draw happens inside one
  of those phases, in that order, so same-seed runs are bit-identical.
* :class:`ChannelScheduler` — the call lifecycle under contention and the
  one ledger of per-cell page slots: ``capacity * carriers`` slots per
  cell per round, reset each round, none on a cell whose scheduled outage
  is active at that step.  Calls are admitted FIFO, page their planned
  strategy group by group, *stretch* a round over steps when slots run
  out, defer when fully starved, retry after fault losses (a retry waits
  out its backoff, then competes for slots like a fresh page), fall back
  to a network sweep for mislaid devices, and **block** when starved
  longer than ``max_wait`` steps — the quantity heavy-traffic provisioning
  is judged on (blocking probability vs offered load vs carriers,
  experiment E29).

The legacy path is the other half of the contract: with
``channel_capacity=None`` the loop runs movement then arrivals each step,
calls handled synchronously as they arrive, exactly the step loop the
simulator always ran, so every pre-existing configuration (faults, priors,
recovery included) replays **bit-identically**: same rng stream, same
reports (``tests/cellnet/test_legacy_equivalence.py`` pins it against
golden summaries).

Observability: the engine emits an ``engine.*`` event family through the
active :mod:`repro.obs` tracer — ``engine.events.<kind>`` counters (how
often each phase of the loop ran, see :data:`MOVEMENT` and its siblings),
``engine.queue_depth`` and ``engine.slot_occupancy`` histograms, and
``engine.pages_sent`` / ``engine.deferred_steps`` / ``engine.blocked_calls``
counters (docs/contention.md walks through a trace).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from ..errors import SimulationError
from ..obs.events import current_tracer
from .calls import ConferenceCallRequest
from .faults import CellOutage, FaultInjector, RecoveryPolicy
from .metrics import CallRecord, LinkUsageMetrics
from .paging import Pager, Priors, build_sub_instance

# The phases of one step, named as the ``engine.events.<kind>`` counters
# of a traced run count them.  A step runs movement (with the reporting
# and registration-renewal messages), then arrivals, then the retries
# whose backoff ends this step, then the shared paging round.  Outage
# starts and ends are counted at the step they take effect; the round
# reads which cells are down from the fault model itself.
OUTAGE_START = "outage-start"
OUTAGE_END = "outage-end"
MOVEMENT = "movement"
ARRIVAL = "arrival"
RETRY = "retry"
PAGING_ROUND = "paging-round"


class EventEngine:
    """The simulator's fixed step loop.

    Each step ``1..horizon`` calls ``movement(time)``, then
    ``arrivals(time)``, then, with a ``scheduler``, its
    :meth:`ChannelScheduler.serve_round`, which first re-queues the calls
    whose retry backoff ends at that step.  ``outages`` are only counted:
    a traced run reports each window's start and end that falls inside
    the horizon.
    """

    def __init__(
        self,
        movement: Callable[[int], None],
        arrivals: Callable[[int], None],
        scheduler: Optional[ChannelScheduler] = None,
        outages: Sequence[CellOutage] = (),
    ) -> None:
        self._movement = movement
        self._arrivals = arrivals
        self._scheduler = scheduler
        self._outages = outages

    def run(self, horizon: int) -> None:
        """Run steps ``1..horizon`` in order."""
        movement = self._movement
        arrivals = self._arrivals
        scheduler = self._scheduler
        for time in range(1, horizon + 1):
            movement(time)
            arrivals(time)
            if scheduler is not None:
                scheduler.serve_round(time)
        tracer = current_tracer()
        if tracer.enabled and horizon > 0:
            tracer.count(f"engine.events.{MOVEMENT}", horizon)
            tracer.count(f"engine.events.{ARRIVAL}", horizon)
            if scheduler is not None:
                tracer.count(f"engine.events.{PAGING_ROUND}", horizon)
            for outage in self._outages:
                if outage.start <= horizon:
                    tracer.count(f"engine.events.{OUTAGE_START}")
                if outage.end <= horizon:
                    tracer.count(f"engine.events.{OUTAGE_END}")


# Phases of a pending call's page schedule, in escalation order.
PHASE_STRATEGY = "strategy"
PHASE_RETRY = "retry"
PHASE_FALLBACK = "fallback"


@dataclass
class _Phase:
    """One group of cells the call still has to page."""

    kind: str
    pending: List[int]  # global cell ids not yet paged in this phase


@dataclass
class PendingCall:
    """One conference call working its way through the shared channels."""

    request: ConferenceCallRequest
    candidate_cells: Tuple[int, ...]
    phases: List[_Phase]
    #: local participant index -> global device id, for devices still unfound
    remaining: Dict[int, int]
    found_cells: Dict[int, int] = field(default_factory=dict)
    cells_paged: int = 0
    rounds_used: int = 0
    waited: int = 0
    retries_used: int = 0
    used_fallback: bool = False
    #: index of the phase being paged; ``len(phases)`` once all are spent
    phase_index: int = 0
    #: the step a call parked on a retry backoff pages again
    retry_at: int = 0


class ChannelScheduler:
    """Serves pending calls against the shared per-cell paging channels.

    Each cell offers ``capacity * carriers`` page slots per round (one
    round = one step): ``capacity`` slots per carrier, ``carriers``
    parallel paging carriers per cell (Mostafa et al.'s multi-carrier
    paging capacity).  A cell whose scheduled outage (the injector's
    :class:`~repro.cellnet.faults.CellOutage` windows) is active at the
    round's step offers none, so congestion and outages compound instead
    of being independent failure modes.

    Calls are served in FIFO admission order each paging round.  A call
    pages as many cells of its current group as it can take slots for;
    a group short of slots *stretches* into the next round; a call that
    takes nothing in a round is *deferred* (starved), and a call starved
    more than ``max_wait`` rounds in total is *blocked* and dropped — the
    blocking-probability numerator.  Devices keep moving while a call is
    in setup, so answers are judged against each device's position at the
    moment its cell is actually paged: ``device_cells()`` returns every
    device's cell, and is read once per round (devices do not move inside
    a round).
    """

    def __init__(
        self,
        metrics: LinkUsageMetrics,
        *,
        num_cells: int,
        capacity: int,
        carriers: int = 1,
        max_wait: int,
        device_cells: Callable[[], Sequence[int]],
        on_found: Callable[[int, int, int], None],
        injector: Optional[FaultInjector] = None,
        recovery: Optional[RecoveryPolicy] = None,
        on_complete: Optional[Callable[[PendingCall, int], None]] = None,
    ) -> None:
        if num_cells < 1:
            raise SimulationError("the paging channels need at least one cell")
        if capacity < 1:
            raise SimulationError("channel capacity must be at least 1 slot")
        if carriers < 1:
            raise SimulationError("carriers must be at least 1")
        self._metrics = metrics
        self._num_cells = num_cells
        self._slots = capacity * carriers
        self._outages = () if injector is None else injector.model.outages
        self._max_wait = max_wait
        self._device_cells = device_cells
        self._on_found = on_found
        self._injector = injector
        self._recovery = recovery
        self._on_complete = on_complete
        self._queue: List[PendingCall] = []
        #: calls waiting out a retry backoff, in the order they were parked
        self._parked: List[PendingCall] = []

    @property
    def active_calls(self) -> int:
        return len(self._queue) + len(self._parked)

    def admit(self, call: PendingCall) -> None:
        self._queue.append(call)
        self._metrics.record_offered_call()

    def _park_for_retry(self, call: PendingCall, time: int) -> bool:
        """Park the call for a re-page of its candidate set, if allowed.

        The call waits outside the queue until its backoff ends, then
        :meth:`on_retry` re-queues it, so a retry *competes for slots like
        a fresh page*.
        """
        if (
            self._injector is None
            or self._recovery is None
            or call.retries_used >= self._recovery.max_retries
        ):
            return False
        call.retries_used += 1
        call.retry_at = time + self._recovery.backoff(call.retries_used)
        self._parked.append(call)
        return True

    def _add_fallback(self, call: PendingCall) -> bool:
        """Append the network-wide sweep, once per call.

        Devices may have moved out of (or around) the candidate set while
        the call sat in the queue.  Returns False when the sweep was
        already spent.
        """
        if call.used_fallback:
            return False
        call.used_fallback = True
        call.phases.append(_Phase(PHASE_FALLBACK, list(range(self._num_cells))))
        return True

    def on_retry(self, call: PendingCall, time: int) -> None:
        """A backoff wait ended: re-queue the call with a re-page phase.

        A parked call is out of the queue, so nobody can answer it while
        it waits: it always still has someone to find.
        """
        call.phases.append(_Phase(PHASE_RETRY, list(call.candidate_cells)))
        self._queue.append(call)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count(f"engine.events.{RETRY}")

    def _complete(self, call: PendingCall, time: int) -> None:
        if self._on_complete is not None:
            self._on_complete(call, time)
        latency = time - call.request.time
        self._metrics.record_call(
            CallRecord(
                time=call.request.time,
                participants=call.request.size,
                cells_paged=call.cells_paged,
                rounds_used=call.rounds_used,
                used_fallback=call.used_fallback,
                failed_devices=len(call.remaining),
                retries=call.retries_used,
                setup_latency=latency,
            )
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("cellnet.calls")
            tracer.count("cellnet.cells_paged", call.cells_paged)
            tracer.observe("cellnet.rounds_to_find", call.rounds_used)
            tracer.observe("engine.setup_latency", latency)
            if call.remaining:
                tracer.count("cellnet.degraded_calls")

    def _block(self, call: PendingCall, time: int) -> None:
        self._metrics.record_blocked_call(time - call.request.time)
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("engine.blocked_calls")

    def serve_round(self, time: int) -> None:
        """One shared paging round: every pending call, FIFO, slot-limited.

        The calls whose retry backoff ends at ``time`` rejoin the queue
        first, in the order they were parked.  A call pages the cells of
        its current phase in order, skipping closed ones (down at ``time``
        or out of slots this round), until everyone has answered; each page
        takes one of its cell's slots.  The cells of a call's unfound
        participants are looked up at its first page of the round, and the
        participants a page finds answer in ascending local order.
        """
        if self._parked:
            waiting: List[PendingCall] = []
            due: List[PendingCall] = []
            for call in self._parked:
                (due if call.retry_at <= time else waiting).append(call)
            self._parked = waiting
            for call in due:
                self.on_retry(call, time)
        closed = {outage.cell for outage in self._outages if outage.active(time)}
        used = [0] * self._num_cells
        slots = self._slots
        injector = self._injector
        on_found = self._on_found
        record_deferred = self._metrics.record_deferred_step
        max_wait = self._max_wait
        positions = self._device_cells()
        tracer = current_tracer()
        traced = tracer.enabled
        if traced:
            tracer.observe("engine.queue_depth", self.active_calls)
        queued: List[PendingCall] = []
        finished: List[PendingCall] = []
        blocked: List[PendingCall] = []
        for call in self._queue:
            phases = call.phases
            index = call.phase_index
            if index >= len(phases):  # freshly admitted with an empty plan
                finished.append(call)
                continue
            phase = phases[index]
            remaining = call.remaining
            sent = 0
            # A call whose every pending cell is closed gets no slot: it is
            # deferred without asking the channels.
            if not closed.issuperset(phase.pending):
                located: Optional[Dict[int, List[int]]] = None
                still_pending: List[int] = []
                # Paging stops mid-group once everyone has answered.
                for cell in phase.pending if remaining else ():
                    if cell in closed:  # no slot left here this round
                        still_pending.append(cell)
                        continue
                    taken = used[cell] + 1
                    used[cell] = taken
                    if taken >= slots:
                        closed.add(cell)
                    sent += 1
                    if injector is not None and not injector.page_delivered(cell, time):
                        continue
                    if located is None:
                        located = {}
                        for local, device in remaining.items():
                            located.setdefault(positions[device], []).append(local)
                    answered = located.pop(cell, None)
                    if answered is not None:
                        for local in answered:
                            device = remaining.pop(local)
                            call.found_cells[local] = cell
                            on_found(device, cell, time)
                        if not remaining:
                            break
                phase.pending = still_pending
                call.cells_paged += sent
            if not remaining:
                call.rounds_used += 1
                finished.append(call)
                continue
            if sent == 0:
                call.waited += 1
                record_deferred()
                if traced:
                    tracer.count("engine.deferred_steps")
                if call.waited > max_wait:
                    blocked.append(call)
                else:
                    queued.append(call)
                continue
            call.rounds_used += 1
            if not phase.pending:
                call.phase_index = index = index + 1
                if index >= len(phases):
                    if self._park_for_retry(call, time):
                        continue
                    if not self._add_fallback(call):
                        finished.append(call)  # degraded: budget exhausted
                        continue
            queued.append(call)
        self._queue = queued
        for call in finished:
            self._complete(call, time)
        for call in blocked:
            self._block(call, time)
        if traced:
            pages = sum(used)
            if pages:
                tracer.count("engine.pages_sent", pages)
            tracer.observe("engine.slot_occupancy", pages)
        self._metrics.record_occupancy(used)

    def drain(self, time: int) -> None:
        """Horizon reached: complete whatever is still in flight, degraded.

        Covers the FIFO queue *and* calls parked on a retry backoff that
        ends past the horizon — every offered call ends as exactly one
        completed or blocked call.
        """
        for call in self._queue:
            self._complete(call, time)
        self._queue.clear()
        for call in self._parked:
            self._complete(call, time)
        self._parked.clear()


def plan_pending_call(
    request: ConferenceCallRequest,
    priors: Priors,
    candidate_cells: Sequence[int],
    max_rounds: int,
    *,
    pager: Pager,
) -> PendingCall:
    """Plan one call's oblivious page schedule for contention execution.

    ``pager``'s plan step turns the candidate sub-instance into groups of
    global cell ids, one strategy phase each.  It gets no true cells: under
    contention (and possibly faults) a non-answer may mean a lost or
    deferred page, so treating it as proof of absence would be unsound —
    the ``adaptive`` pager therefore plans its oblivious heuristic
    strategy, as under :class:`~repro.cellnet.faults.ResilientPager`.
    """
    instance, cells = build_sub_instance(priors, candidate_cells, max_rounds)
    return PendingCall(
        request=request,
        candidate_cells=cells,
        phases=[
            _Phase(PHASE_STRATEGY, group) for group in pager.plan(instance, cells)
        ],
        remaining=dict(enumerate(request.participants)),
    )
