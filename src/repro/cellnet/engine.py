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
  experiment E29).  Every admitted call is a slot, one row of ``intp``
  words in the scheduler's arrays; a round over them runs in the compiled
  ``repro_serve_round`` (``core/_cut_dp.c``), or in the same loop in
  Python when the library is missing or pages can be lost.  Python then
  handles what the round produced: finds, parked retries, completions
  and blocks, in queue order.

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

import ctypes
from array import array
from itertools import accumulate
from struct import Struct
from typing import Any, Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..core.backends import auto_kernel
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

# A call slot's counters, the first ``_INFO_FIELDS`` words of its row; the
# same names, in the same order, as the ``F_*`` enum of the round kernel in
# ``core/_cut_dp.c``.
(
    _F_KIND,  # the _KIND_* of the phase being paged
    _F_PEND,  # row offset of the phase's pending cells
    _F_NPEND,  # cells of the phase not yet paged
    _F_WAITED,
    _F_NREMAIN,  # participants not yet found
    _F_PAGED,
    _F_ROUNDS,
    _F_PHASE,  # the strategy group being paged
    _F_FALLBACK,
    _F_RETRIES,
    _F_RETRY_AT,
    _F_NSCHED,
    _F_NGROUPS,
    _F_NPARTS,
) = range(14)
_INFO_FIELDS = 14
# Parked is Python's own: the round kernel never sees a parked call.
_KIND_STRATEGY, _KIND_RETRY, _KIND_FALLBACK, _KIND_PARKED = range(4)
#: A slot's counters, as the Python executor reads them, and the ones a
#: round changes (all before ``_F_RETRIES``), as it writes them back.
_COUNTERS = Struct(f"{_INFO_FIELDS}n")
_ROUND_COUNTERS = Struct(f"{_F_RETRIES}n")
#: Packers of admission rows, by row length in words.
_ROWS: Dict[int, Struct] = {}


class RoundState(ctypes.Structure):
    """Every address and size the round kernel reads, bound once.

    The mirror of ``repro_round_state`` in ``core/_cut_dp.c``, field for
    field.  :class:`_SlotArrays` rebinds it only when its arrays grow.
    """

    _fields_ = [
        (name, ctypes.c_ssize_t)
        for name in (
            "ncells", "slots", "max_wait", "max_retries", "stride", "nqueue",
            "noutages",
        )
    ] + [
        (name, ctypes.c_void_p)
        for name in (
            "queue", "rows", "used", "closed", "outages", "finds", "done",
            "blocked", "parked", "out",
        )
    ]


#: The ``array`` type code of a C ``ptrdiff_t``: the kernel's word.
_WORD = next(
    code for code in "ilq" if array(code).itemsize == ctypes.sizeof(ctypes.c_ssize_t)
)
_WORD_SIZE = ctypes.sizeof(ctypes.c_ssize_t)


def _words(size: int) -> "array[int]":
    """``size`` zeroed kernel words.

    An ``array`` reads and writes single words as fast as a ctypes array
    does, and slices (and assigns slices of) itself with one copy.
    """
    return array(_WORD, bytes(size * _WORD_SIZE))


def _address(words: "array[int]") -> int:
    return words.buffer_info()[0]


def _scratch(info: Sequence[int]) -> int:
    """The row offset of a slot's scratch room, from its counters."""
    return _INFO_FIELDS + 2 * info[_F_NPARTS] + info[_F_NSCHED] + info[_F_NGROUPS]


class _SlotArrays:
    """The scheduler's call slots, in arrays of kernel words.

    Slot ``s`` is ``stride`` words of :attr:`rows` from ``s * stride``:
    ``_INFO_FIELDS`` counters, then the cell each participant answered in
    (-1 while unfound), the call's schedule, its group ends, its
    participants, and scratch room for a re-page or sweep phase.  A
    strategy group's pending cells are the group's own stretch of the
    schedule, paged and compacted in place.  :attr:`queue` lists the
    queued slots in FIFO order, ``state.nqueue`` long.  Slots, ``stride``
    and ``pwidth`` (the most participants a call has) only grow;
    :meth:`resize` copies every slot and rebinds :attr:`state`.
    """

    def __init__(
        self,
        num_cells: int,
        slots: int,
        max_wait: int,
        max_retries: int,
        outages: Sequence[CellOutage],
    ) -> None:
        self.state = RoundState(
            ncells=num_cells,
            slots=slots,
            max_wait=max_wait,
            max_retries=max_retries,
            noutages=len(outages),
        )
        self.used = _words(num_cells)
        self.closed = _words(num_cells)
        self.outages = array(
            _WORD, [word for o in outages for word in (o.cell, o.start, o.end)]
        )
        for name in ("used", "closed", "outages"):
            setattr(self.state, name, _address(getattr(self, name)))
        self.count = self.stride = self.pwidth = 0
        # Room for calls of up to five participants paging the whole ledger.
        self.resize(8, _INFO_FIELDS + 13 + 2 * num_cells, 5)

    def resize(self, count: int, stride: int, pwidth: int) -> None:
        """Grow to at least ``count`` slots of ``stride`` words, for calls
        of up to ``pwidth`` participants, keeping every slot's contents."""
        count, stride = max(count, self.count), max(stride, self.stride)
        pwidth = max(pwidth, self.pwidth)
        rows = _words(count * stride)
        old = self.stride
        for slot in range(self.count):
            rows[slot * stride : slot * stride + old] = self.rows[slot * old : (slot + 1) * old]
        queued = self.queue[: self.state.nqueue] if self.count else _words(0)
        self.rows = rows
        self.queue = _words(count)
        self.queue[: len(queued)] = queued
        self.finds = _words(2 * count * pwidth)
        self.done = _words(count)
        self.blocked = _words(count)
        self.parked = _words(count)
        # A round's counts, occupancy pairs, finds and slots, packed.
        self.out = _words(7 + 2 * self.state.ncells + 2 * count * pwidth + 3 * count)
        self.count, self.stride, self.pwidth = count, stride, pwidth
        self.state.stride = stride
        for name in ("queue", "rows", "finds", "done", "blocked", "parked", "out"):
            setattr(self.state, name, _address(getattr(self, name)))


class PendingCall:
    """One conference call working its way through the shared channels.

    It holds the call's page schedule: ``schedule`` lists the global cells
    of each strategy group in turn, in page order, and ``group_sizes``
    how many cells each group has (:meth:`from_groups` builds both from
    a pager's groups).

    Once admitted, the call's counters live in its
    :class:`ChannelScheduler`'s slot arrays, and the properties below read
    them there; when the call completes or blocks its counters and found
    cells are copied back, so the handle keeps its final values.
    """

    __slots__ = (
        "request", "candidate_cells", "schedule", "group_sizes",
        "_arrays", "_slot", "_row",
    )

    def __init__(
        self,
        request: ConferenceCallRequest,
        candidate_cells: Sequence[int],
        schedule: Sequence[int],
        group_sizes: Sequence[int],
    ) -> None:
        self.request = request
        self.candidate_cells = tuple(candidate_cells)
        self.schedule = schedule
        self.group_sizes = group_sizes
        #: the scheduler's slot arrays and this call's slot, while admitted
        self._arrays: Optional[_SlotArrays] = None
        self._slot = 0
        #: the call's counters and found cells, once it has left the scheduler
        self._row: Optional[Sequence[int]] = None

    @classmethod
    def from_groups(
        cls,
        request: ConferenceCallRequest,
        candidate_cells: Sequence[int],
        groups: Sequence[Sequence[int]],
    ) -> "PendingCall":
        """A call that pages ``groups`` of global cell ids, one group a phase."""
        return cls(
            request,
            candidate_cells,
            [cell for group in groups for cell in group],
            [len(group) for group in groups],
        )

    def _field(self, index: int) -> int:
        arrays = self._arrays
        if arrays is not None:
            return arrays.rows[self._slot * arrays.stride + index]
        return 0 if self._row is None else self._row[index]

    @property
    def cells_paged(self) -> int:
        return self._field(_F_PAGED)

    @property
    def rounds_used(self) -> int:
        return self._field(_F_ROUNDS)

    @property
    def waited(self) -> int:
        return self._field(_F_WAITED)

    @property
    def retries_used(self) -> int:
        return self._field(_F_RETRIES)

    @property
    def used_fallback(self) -> bool:
        return bool(self._field(_F_FALLBACK))

    @property
    def retry_at(self) -> int:
        """The step a call parked on a retry backoff pages again."""
        return self._field(_F_RETRY_AT)

    @property
    def phase_kinds(self) -> Tuple[str, ...]:
        """The kinds (``PHASE_*``) of the call's phases so far, in order.

        Every strategy group, then one re-page per retry that has begun,
        then the network-wide sweep once it is loaded.
        """
        retries = self.retries_used - (self._field(_F_KIND) == _KIND_PARKED)
        return (
            (PHASE_STRATEGY,) * len(self.group_sizes)
            + (PHASE_RETRY,) * retries
            + (PHASE_FALLBACK,) * self.used_fallback
        )

    def _found_row(self) -> List[int]:
        size = len(self.request.participants)
        arrays = self._arrays
        if arrays is not None:
            base = self._slot * arrays.stride + _INFO_FIELDS
            return arrays.rows[base : base + size]
        return [-1] * size if self._row is None else self._row[_INFO_FIELDS:]

    @property
    def found_cells(self) -> Dict[int, int]:
        """Local participant index -> the cell it answered in."""
        return {
            local: cell for local, cell in enumerate(self._found_row()) if cell >= 0
        }

    @property
    def remaining(self) -> Dict[int, int]:
        """Local participant index -> device id, for participants unfound."""
        devices = self.request.participants
        return {
            local: devices[local]
            for local, cell in enumerate(self._found_row())
            if cell < 0
        }


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

    Each admitted call is a slot in a few ``intp`` arrays
    (:class:`_SlotArrays`).  One of two executors serves a round over
    them: the compiled ``repro_serve_round`` when the library loads and no
    page can be lost, else the same loop in Python, which asks the
    injector about every page.  Python then handles what the round
    produced, in queue order: finds (``on_found``), parked retries,
    completions, blocks.
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
        if max_wait < 0:
            raise SimulationError("max_wait must be non-negative")
        outages = () if injector is None else injector.model.outages
        for outage in outages:
            if outage.cell >= num_cells:
                raise SimulationError(
                    f"outage cell {outage.cell} is not one of the {num_cells} cells"
                )
        self._metrics = metrics
        self._num_cells = num_cells
        self._slots_per_cell = capacity * carriers
        self._outages = outages
        self._max_wait = max_wait
        self._device_cells = device_cells
        self._on_found = on_found
        self._injector = injector
        self._recovery = recovery
        self._on_complete = on_complete
        # Pages can be lost: every page asks the injector, in Python.
        self._lossy = injector is not None and injector.model.loses_pages
        max_retries = 0
        if injector is not None and recovery is not None:
            max_retries = recovery.max_retries
        self._arrays = _SlotArrays(
            num_cells, self._slots_per_cell, max_wait, max_retries, outages
        )
        self._state_address = ctypes.c_void_p(ctypes.addressof(self._arrays.state))
        #: the handle of the call in each slot
        self._calls: List[Optional[PendingCall]] = [None] * self._arrays.count
        self._free: List[int] = list(range(self._arrays.count - 1, -1, -1))
        #: calls waiting out a retry backoff, in the order they were parked
        self._parked: List[PendingCall] = []
        #: the positions array the compiled round last bound, and its address
        self._positions: Any = None
        self._positions_address = ctypes.c_void_p()
        #: the network-wide sweep, as the Python executor loads it
        self._sweep = array(_WORD, range(num_cells))
        #: the cells on the ledger, and the devices ``device_cells()`` placed
        #: when an admission last needed to know
        self._ledger = frozenset(range(num_cells))
        self._device_ids: FrozenSet[int] = frozenset()

    @property
    def active_calls(self) -> int:
        return self._arrays.state.nqueue + len(self._parked)

    def admit(self, call: PendingCall) -> None:
        """Queue ``call`` in a free slot, its row packed in place.

        Raises :class:`~repro.errors.SimulationError`, and queues nothing,
        for a candidate or schedule cell off the slot ledger, a schedule
        whose group sizes are not positive or do not sum to its length, or
        a participant with no position.
        """
        devices = call.request.participants
        cands = call.candidate_cells
        schedule = call.schedule
        sizes = call.group_sizes
        m, length, groups = len(devices), len(schedule), len(sizes)
        ledger = self._ledger
        if not cands or not ledger.issuperset(cands):
            raise SimulationError(
                f"candidate cells must lie in 0..{self._num_cells - 1}, got {cands}"
            )
        if not ledger.issuperset(schedule):
            raise SimulationError(
                f"schedule cells must lie in 0..{self._num_cells - 1}"
            )
        if sum(sizes) != length or (groups and min(sizes) < 1):
            raise SimulationError(
                f"group sizes {tuple(sizes)} are not positive sizes of {length} cells"
            )
        if not self._device_ids.issuperset(devices):
            # Read how many devices there are only when the call needs more.
            self._device_ids = frozenset(range(len(self._device_cells())))
            if not self._device_ids.issuperset(devices):
                raise SimulationError(
                    f"participants must lie in 0..{len(self._device_ids) - 1}, "
                    f"got {devices}"
                )
        words = _INFO_FIELDS + 2 * m + length + groups
        arrays = self._arrays
        # The row, then scratch room for a re-page or the sweep.
        need = words + max(self._num_cells, len(cands))
        if need > arrays.stride or m > arrays.pwidth:
            arrays.resize(arrays.count, need, m)
        slot = self._free.pop() if self._free else self._grow()
        packer = _ROWS.get(words)
        if packer is None:
            packer = _ROWS[words] = Struct(f"{words}n")
        # Group 0's stretch of the schedule is the first pending phase.
        packer.pack_into(
            arrays.rows, slot * arrays.stride * _WORD_SIZE,
            _KIND_STRATEGY, _INFO_FIELDS + m, sizes[0] if groups else 0,
            0, m, 0, 0, 0, 0, 0, 0, length, groups, m,
            *(-1,) * m, *schedule, *accumulate(sizes), *devices,
        )
        state = arrays.state
        queued = state.nqueue
        arrays.queue[queued] = slot
        state.nqueue = queued + 1
        self._calls[slot] = call
        call._arrays = arrays
        call._slot = slot
        self._metrics.record_offered_call()

    def _grow(self) -> int:
        """Double the slots; returns a free slot."""
        arrays = self._arrays
        count = arrays.count
        arrays.resize(2 * count, arrays.stride, arrays.pwidth)
        self._calls.extend([None] * count)
        self._free.extend(range(2 * count - 1, count, -1))
        return count

    def _park(self, slot: int, time: int) -> None:
        """Park the call for a re-page of its candidate set.

        The call waits outside the queue until its backoff ends, then
        :meth:`on_retry` re-queues it, so a retry *competes for slots like
        a fresh page*.  The round hands over only calls with a retry left.
        """
        assert self._recovery is not None
        arrays = self._arrays
        base = slot * arrays.stride
        retries = arrays.rows[base + _F_RETRIES] + 1
        arrays.rows[base + _F_RETRIES] = retries
        arrays.rows[base + _F_RETRY_AT] = time + self._recovery.backoff(retries)
        arrays.rows[base + _F_KIND] = _KIND_PARKED
        self._parked.append(self._calls[slot])

    def on_retry(self, call: PendingCall, time: int) -> None:
        """A backoff wait ended: re-queue the call with a re-page phase.

        A parked call is out of the queue, so nobody can answer it while
        it waits: it always still has someone to find.
        """
        arrays = self._arrays
        rows = arrays.rows
        slot = call._slot
        base = slot * arrays.stride
        cands = call.candidate_cells
        scratch = _scratch(rows[base : base + _INFO_FIELDS])
        rows[base + scratch : base + scratch + len(cands)] = array(_WORD, cands)
        rows[base + _F_KIND : base + _F_NPEND + 1] = array(
            _WORD, (_KIND_RETRY, scratch, len(cands))
        )
        state = arrays.state
        arrays.queue[state.nqueue] = slot
        state.nqueue += 1
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count(f"engine.events.{RETRY}")

    def _leave(self, calls: Sequence[PendingCall], time: int, blocked: bool) -> None:
        """Complete (or block) ``calls`` in order, and free their slots.

        Each handle keeps its row: its counters and found cells.
        """
        arrays = self._arrays
        rows, stride = arrays.rows, arrays.stride
        metrics = self._metrics
        on_complete = None if blocked else self._on_complete
        tracer = current_tracer()
        for call in calls:
            if on_complete is not None:
                on_complete(call, time)
            request = call.request
            slot = call._slot
            base = slot * stride
            row = rows[base : base + _INFO_FIELDS + len(request.participants)]
            latency = time - request.time
            if blocked:
                metrics.record_blocked_call(latency)
            else:
                metrics.record_call(
                    CallRecord(
                        request.time,
                        len(request.participants),
                        row[_F_PAGED],
                        row[_F_ROUNDS],
                        row[_F_FALLBACK] != 0,
                        row[_F_NREMAIN],
                        row[_F_RETRIES],
                        latency,
                    )
                )
            call._row = row
            call._arrays = None
            self._calls[slot] = None
            self._free.append(slot)
            if not tracer.enabled:
                continue
            if blocked:
                tracer.count("engine.blocked_calls")
                continue
            tracer.count("cellnet.calls")
            tracer.count("cellnet.cells_paged", row[_F_PAGED])
            tracer.observe("cellnet.rounds_to_find", row[_F_ROUNDS])
            tracer.observe("engine.setup_latency", latency)
            if row[_F_NREMAIN]:
                tracer.count("cellnet.degraded_calls")

    def serve_round(self, time: int) -> None:
        """One shared paging round: every pending call, FIFO, slot-limited.

        The calls whose retry backoff ends at ``time`` rejoin the queue
        first, in the order they were parked.  A call pages the cells of
        its current phase in order, skipping closed ones (down at ``time``
        or out of slots this round), until everyone has answered; each page
        takes one of its cell's slots.  The participants a page finds
        answer in ascending local order, judged against their cells at
        this round.
        """
        if self._parked:
            waiting: List[PendingCall] = []
            due: List[PendingCall] = []
            for call in self._parked:
                (due if call.retry_at <= time else waiting).append(call)
            self._parked = waiting
            for call in due:
                self.on_retry(call, time)
        tracer = current_tracer()
        traced = tracer.enabled
        if traced:
            tracer.observe("engine.queue_depth", self.active_calls)
        positions = self._device_cells()
        if len(positions) < len(self._device_ids):
            raise SimulationError(
                f"device_cells() placed {len(positions)} devices, admitted calls "
                f"need {len(self._device_ids)}"
            )
        kernel = None if self._lossy else auto_kernel()
        if kernel is None:
            finds, parked, done, blocked, deferred, used, pages = (
                self._serve_in_python(positions, time)
            )
            folded: Optional[List[int]] = None
        else:
            if positions is not self._positions:
                placed = np.ascontiguousarray(positions, dtype=np.intp)
                address = ctypes.c_void_p(placed.ctypes.data)
                if placed is positions:  # bound until the caller hands another
                    self._positions = positions
                    self._positions_address = address
            else:
                address = self._positions_address
            written = kernel.repro_serve_round(self._state_address, address, time)
            out = self._arrays.out[:written]
            nfinds, ndone, _, nparked, deferred, nfolded, pages = out[:7]
            start = 7 + 2 * nfolded
            used, folded = out[7:start:2], out[8:start:2]
            end = start + 2 * nfinds
            finds = out[start:end]
            parked = out[end : end + nparked]
            end += nparked
            done = out[end : end + ndone]
            blocked = out[end + ndone :]
        on_found = self._on_found
        pairs = iter(finds)
        for device, cell in zip(pairs, pairs):
            on_found(device, cell, time)
        for slot in parked:
            self._park(slot, time)
        calls = self._calls
        if done:
            self._leave([calls[slot] for slot in done], time, blocked=False)
        if blocked:
            self._leave([calls[slot] for slot in blocked], time, blocked=True)
        if deferred:
            self._metrics.record_deferred_step(deferred)
            if traced:
                tracer.count("engine.deferred_steps", deferred)
        if traced:
            if pages:
                tracer.count("engine.pages_sent", pages)
            tracer.observe("engine.slot_occupancy", pages)
        self._metrics.record_occupancy(used, folded)

    def _serve_in_python(self, positions: Sequence[int], time: int) -> Tuple[Any, ...]:
        """The round kernel's loop, over the same slots, in Python.

        Returns the round's finds (device, cell pairs), parked, done and
        blocked slots, deferred calls, per-cell slots used and pages sent.
        Under page loss every page asks ``FaultInjector.page_delivered``,
        in page order, so the injector's draws stay where they were.  Each
        slot's counters are unpacked in one go and packed back in one.
        """
        if isinstance(positions, np.ndarray):
            positions = positions.tolist()
        arrays = self._arrays
        rows, stride, state = arrays.rows, arrays.stride, arrays.state
        cells = self._num_cells
        slots = self._slots_per_cell
        used = [0] * cells
        closed = {outage.cell for outage in self._outages if outage.active(time)}
        # Bound once a round: every page of a lossy run asks the injector.
        injector = self._injector
        delivered = injector.page_delivered if injector and self._lossy else None
        finds: List[int] = []
        parked: List[int] = []
        done: List[int] = []
        blocked: List[int] = []
        queued: List[int] = []
        deferred = 0
        max_wait, max_retries = self._max_wait, state.max_retries
        unpack, pack = _COUNTERS.unpack_from, _ROUND_COUNTERS.pack_into
        for slot in arrays.queue[: state.nqueue]:
            base = slot * stride
            (
                kind, pend, npend, waited, remain, paged, rounds, phase, fallback,
                retries, _, nsched, ngroups, m,
            ) = unpack(rows, base * _WORD_SIZE)
            if not ngroups:  # admitted with an empty plan
                done.append(slot)
                continue
            still = 0
            if remain:
                pending = rows[base + pend : base + pend + npend]
                # A call whose every pending cell is closed takes no slot.
                if closed.issuperset(pending):
                    deferred += 1
                    rows[base + _F_WAITED] = waited = waited + 1
                    (blocked if waited > max_wait else queued).append(slot)
                    continue
                at = base + pend
                sent = 0
                located: Optional[Dict[int, List[int]]] = None
                for cell in pending:
                    if cell in closed:  # compacted in place, as the kernel does
                        if sent:  # else every cell so far was closed: in place
                            rows[at + still] = cell
                        still += 1
                        continue
                    taken = used[cell] + 1
                    used[cell] = taken
                    if taken >= slots:
                        closed.add(cell)
                    sent += 1
                    if delivered is not None and not delivered(cell, time):
                        continue
                    if located is None:
                        located = {}
                        found = base + _INFO_FIELDS
                        part = found + m + nsched + ngroups
                        devices = rows[part : part + m]
                        for local, answered in enumerate(rows[found : found + m]):
                            if answered < 0:
                                located.setdefault(positions[devices[local]], []).append(local)
                    answered_here = located.pop(cell, None)
                    if answered_here is not None:
                        for local in answered_here:
                            rows[found + local] = cell
                            finds += (devices[local], cell)
                        remain -= len(answered_here)
                        if not remain:
                            break
                npend = still
                paged += sent
            rounds += 1
            if not remain:
                done.append(slot)
            elif still:
                queued.append(slot)
            elif kind == _KIND_STRATEGY and phase + 1 < ngroups:
                phase += 1
                sched = _INFO_FIELDS + m
                ends = base + sched + nsched
                start, end = rows[ends + phase - 1 : ends + phase + 1]
                pend, npend = sched + start, end - start
                queued.append(slot)
            elif retries < max_retries:
                parked.append(slot)
            elif not fallback:
                fallback, kind = 1, _KIND_FALLBACK
                pend, npend = _INFO_FIELDS + 2 * m + nsched + ngroups, cells
                rows[base + pend : base + pend + cells] = self._sweep
                queued.append(slot)
            else:  # degraded: budget exhausted
                done.append(slot)
            pack(
                rows, base * _WORD_SIZE,
                kind, pend, npend, waited, remain, paged, rounds, phase, fallback,
            )
        state.nqueue = len(queued)
        arrays.queue[: len(queued)] = array(_WORD, queued)
        return finds, parked, done, blocked, deferred, used, sum(used)

    def drain(self, time: int) -> None:
        """Horizon reached: complete whatever is still in flight, degraded.

        Covers the FIFO queue *and* calls parked on a retry backoff that
        ends past the horizon — every offered call ends as exactly one
        completed or blocked call.
        """
        arrays = self._arrays
        queued = [self._calls[slot] for slot in arrays.queue[: arrays.state.nqueue]]
        arrays.state.nqueue = 0
        parked, self._parked = self._parked, []
        self._leave(queued + parked, time, blocked=False)


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
    return PendingCall.from_groups(request, cells, pager.plan(instance, cells))
