"""The event-driven contention engine: shared per-cell paging channels.

The paper's bandwidth-limited variant (Section 5) caps a *single* call at
``b`` cells per round.  Under heavy traffic the cap is a property of the
network, not the call: every concurrent conference-call setup competes for
the same ``b`` paging slots per round on each cell's channel (and a cell
may carry ``k`` parallel paging carriers, Mostafa et al., PAPERS.md).  This
module turns the time-stepped :class:`~repro.cellnet.simulator.CellularSimulator`
loop into an event-driven engine where that sharing is first-class:

* :class:`EventEngine` — a priority queue of typed :class:`Event` records
  (``movement``, ``arrival``, ``paging-round``, ``retry``, ``outage-start``,
  ``outage-end``) dispatched to pluggable handlers in deterministic
  ``(time, priority, seq)`` order.  Determinism is the contract: every rng
  draw happens inside a handler, and handler order is a pure function of
  the schedule, so same-seed runs are bit-identical.
* :class:`ChannelResource` — the shared capacity: ``capacity`` page slots
  per round per cell, multiplied by ``carriers`` parallel paging channels.
  Scheduled cell outages take a cell's channel down entirely (zero slots),
  so congestion and faults interact instead of living in separate patches.
* :class:`ChannelScheduler` — the call lifecycle under contention: calls
  are admitted FIFO, page their planned strategy group by group, *stretch*
  a round over steps when slots run out, defer when fully starved, retry
  through the same queue after fault losses (a retry competes for slots
  like a fresh page), fall back to a network sweep for mislaid devices,
  and **block** when starved longer than ``max_wait`` steps — the quantity
  heavy-traffic provisioning is judged on (blocking probability vs offered
  load vs carriers, experiment E29).

The legacy path is the other half of the contract: with
``channel_capacity=None`` the engine schedules exactly the step loop the
simulator used to run — one ``movement`` event then one ``arrival`` event
per step, calls handled synchronously inside the arrival handler — so
every pre-existing configuration (faults, priors, recovery included)
replays **bit-identically**: same rng stream, same reports
(``tests/cellnet/test_legacy_equivalence.py`` pins it against golden
summaries recorded from the pre-engine loop).

Observability: the engine emits an ``engine.*`` event family through the
active :mod:`repro.obs` tracer — ``engine.events.<kind>`` counters,
``engine.queue_depth`` and ``engine.slot_occupancy`` histograms, and
``engine.pages_sent`` / ``engine.deferred_steps`` / ``engine.blocked_calls``
counters (docs/contention.md walks through a trace).
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, NamedTuple, Optional, Sequence, Set, Tuple

from ..errors import SimulationError
from ..obs.events import current_tracer
from .calls import ConferenceCallRequest
from .faults import FaultInjector, RecoveryPolicy
from .metrics import CallRecord, LinkUsageMetrics
from .paging import Pager, Priors, build_sub_instance

# Event kinds, in within-step dispatch order.  Outage transitions flip the
# channel state before anything else looks at it; movement (which carries
# the reporting/registration-renewal messages) precedes arrivals, exactly
# as in the legacy step loop; the shared paging round runs last so it sees
# the step's arrivals.
OUTAGE_START = "outage-start"
OUTAGE_END = "outage-end"
MOVEMENT = "movement"
ARRIVAL = "arrival"
PAGING_ROUND = "paging-round"
RETRY = "retry"

EVENT_PRIORITIES: Dict[str, int] = {
    OUTAGE_START: 0,
    OUTAGE_END: 1,
    MOVEMENT: 2,
    ARRIVAL: 3,
    RETRY: 4,
    PAGING_ROUND: 5,
}


class _EventFields(NamedTuple):
    time: int
    kind: str
    payload: object = None


class Event(_EventFields):
    """One typed occurrence in simulated time (an immutable record).

    A named tuple checked in ``__new__``: the simulator builds two or three
    per step, and this costs a fraction of a frozen dataclass's
    ``__init__`` plus ``__post_init__``.
    """

    __slots__ = ()

    def __new__(cls, time: int, kind: str, payload: object = None) -> "Event":
        if kind not in EVENT_PRIORITIES:
            raise SimulationError(f"unknown event kind {kind!r}")
        if time < 0:
            raise SimulationError("event time must be non-negative")
        return tuple.__new__(cls, (time, kind, payload))


class EventEngine:
    """A deterministic discrete-event queue with per-kind handlers.

    Events are dispatched in ``(time, kind priority, insertion seq)``
    order; the insertion sequence breaks ties so two events of the same
    kind at the same time run in the order they were scheduled.  Handlers
    may schedule further events (at the current time or later).
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[int, int, int, Event]] = []
        self._seq = itertools.count()
        self._handlers: Dict[str, Callable[[Event], None]] = {}
        self._dispatched = 0
        self.now = 0

    def on(self, kind: str, handler: Callable[[Event], None]) -> None:
        """Register the handler for one event kind (last wins)."""
        if kind not in EVENT_PRIORITIES:
            raise SimulationError(f"unknown event kind {kind!r}")
        self._handlers[kind] = handler

    def schedule(self, event: Event) -> None:
        """Enqueue one event; events never run before the current time."""
        if event.time < self.now:
            raise SimulationError(
                f"cannot schedule {event.kind!r} at t={event.time} "
                f"(engine is at t={self.now})"
            )
        heapq.heappush(
            self._heap,
            (event.time, EVENT_PRIORITIES[event.kind], next(self._seq), event),
        )

    @property
    def queue_depth(self) -> int:
        return len(self._heap)

    @property
    def events_dispatched(self) -> int:
        return self._dispatched

    def run(self, horizon: int) -> None:
        """Dispatch every event with ``time <= horizon`` in order."""
        tracer = current_tracer()
        while self._heap and self._heap[0][0] <= horizon:
            _, _, _, event = heapq.heappop(self._heap)
            self.now = event.time
            handler = self._handlers.get(event.kind)
            if handler is None:
                raise SimulationError(f"no handler for event kind {event.kind!r}")
            self._dispatched += 1
            if tracer.enabled:
                tracer.count(f"engine.events.{event.kind}")
            handler(event)


class ChannelResource:
    """Per-cell paging-channel capacity, shared by every concurrent call.

    Each cell offers ``capacity * carriers`` page slots per round (one
    round = one engine time step): ``capacity`` slots per carrier, ``k``
    parallel carriers per cell (Mostafa et al.'s multi-carrier paging
    capacity).  A cell inside a scheduled outage offers zero slots — its
    channel is down, so congestion and outages compound instead of being
    independent failure modes.
    """

    def __init__(self, num_cells: int, capacity: int, carriers: int = 1) -> None:
        if num_cells < 1:
            raise SimulationError("ChannelResource needs at least one cell")
        if capacity < 1:
            raise SimulationError("channel capacity must be at least 1 slot")
        if carriers < 1:
            raise SimulationError("carriers must be at least 1")
        self.num_cells = num_cells
        self.capacity = capacity
        self.carriers = carriers
        self.slots_per_cell = capacity * carriers
        self._used = [0] * num_cells
        self._down: Set[int] = set()
        self._closed: Set[int] = set()

    @property
    def closed(self) -> Set[int]:
        """Cells that refuse every page this round: down, or out of slots.

        The live set, maintained by :meth:`acquire`, :meth:`begin_round`
        and :meth:`set_down`; read it, do not modify it.
        """
        return self._closed

    def begin_round(self) -> None:
        """Reset every cell's slot count for a new round (time step)."""
        self._used = [0] * self.num_cells
        self._closed = set(self._down)

    def set_down(self, cell: int, down: bool) -> None:
        if down:
            self._down.add(cell)
            self._closed.add(cell)
        else:
            self._down.discard(cell)
            if self._used[cell] < self.slots_per_cell:
                self._closed.discard(cell)

    def is_down(self, cell: int) -> bool:
        return cell in self._down

    def acquire(self, cell: int) -> bool:
        """Take one page slot on ``cell`` this round, if any remains."""
        if cell in self._closed:
            return False
        self._used[cell] += 1
        if self._used[cell] >= self.slots_per_cell:
            self._closed.add(cell)
        return True

    def used(self, cell: int) -> int:
        return self._used[cell]

    @property
    def used_total(self) -> int:
        return sum(self._used)

    def occupancy_snapshot(self) -> List[int]:
        """Slots used per cell this round (for the occupancy histogram)."""
        return list(self._used)


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


class ChannelScheduler:
    """Serves pending calls against the shared :class:`ChannelResource`.

    Calls are served in FIFO admission order each paging round.  A call
    pages as many cells of its current group as it can acquire slots for;
    a group short of slots *stretches* into the next round; a call that
    acquires nothing in a round is *deferred* (starved), and a call starved
    more than ``max_wait`` rounds in total is *blocked* and dropped — the
    blocking-probability numerator.  Devices keep moving while a call is
    in setup, so answers are judged against each device's position at the
    moment its cell is actually paged: ``device_cells()`` returns every
    device's cell, and is read once per round (devices do not move inside
    a round).
    """

    def __init__(
        self,
        resource: ChannelResource,
        metrics: LinkUsageMetrics,
        *,
        max_wait: int,
        device_cells: Callable[[], Sequence[int]],
        on_found: Callable[[int, int, int], None],
        injector: Optional[FaultInjector] = None,
        recovery: Optional[RecoveryPolicy] = None,
        on_complete: Optional[Callable[[PendingCall, int], None]] = None,
    ) -> None:
        self._resource = resource
        self._metrics = metrics
        self._max_wait = max_wait
        self._device_cells = device_cells
        self._on_found = on_found
        self._injector = injector
        self._recovery = recovery
        self._on_complete = on_complete
        self._queue: List[PendingCall] = []
        #: calls parked on a retry backoff (their RETRY event is in flight),
        #: by ``id``, in the order they were parked
        self._awaiting_retry: Dict[int, PendingCall] = {}

    @property
    def active_calls(self) -> int:
        return len(self._queue) + len(self._awaiting_retry)

    def admit(self, call: PendingCall) -> None:
        self._queue.append(call)
        self._metrics.record_offered_call()

    def _park_for_retry(
        self, call: PendingCall, time: int, engine: EventEngine
    ) -> bool:
        """Schedule a re-page of the candidate set, if the policy allows one.

        Retries run as engine ``retry`` events after their backoff wait, so
        a retry *competes for slots like a fresh page* when it fires; the
        call waits outside the queue until then.
        """
        if (
            self._injector is None
            or self._recovery is None
            or call.retries_used >= self._recovery.max_retries
        ):
            return False
        call.retries_used += 1
        wait = self._recovery.backoff(call.retries_used)
        self._awaiting_retry[id(call)] = call
        engine.schedule(Event(time + wait, RETRY, call))
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
        call.phases.append(
            _Phase(PHASE_FALLBACK, list(range(self._resource.num_cells)))
        )
        return True

    def on_retry(self, event: Event, engine: EventEngine) -> None:
        """A backoff wait ended: re-admit the call with a re-page phase."""
        call = event.payload
        assert isinstance(call, PendingCall)
        del self._awaiting_retry[id(call)]
        if not call.remaining:  # everyone answered before the retry fired
            self._complete(call, event.time)
            return
        call.phases.append(_Phase(PHASE_RETRY, list(call.candidate_cells)))
        self._queue.append(call)

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

    def serve_round(self, time: int, engine: EventEngine) -> None:
        """One shared paging round: every pending call, FIFO, slot-limited.

        A call pages the cells of its current phase in order, skipping
        closed ones, until everyone has answered.  Each page takes a slot
        straight from the resource's per-cell counts, as
        :meth:`ChannelResource.acquire` would.  The cells of a call's
        unfound participants are looked up at its first page of the round,
        and the participants a page finds answer in ascending local order.
        """
        resource = self._resource
        resource.begin_round()
        closed = resource.closed
        used = resource._used
        slots = resource.slots_per_cell
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
                    if self._park_for_retry(call, time, engine):
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

        Covers the FIFO queue *and* calls parked on a retry backoff whose
        ``retry`` event falls past the horizon — every offered call ends
        as exactly one completed or blocked call.
        """
        for call in self._queue:
            self._complete(call, time)
        self._queue.clear()
        for call in self._awaiting_retry.values():
            self._complete(call, time)
        self._awaiting_retry.clear()


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
