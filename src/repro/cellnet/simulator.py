"""The discrete-time cellular-system simulator (the paper's Section 1 setting).

Each time step: devices move under their mobility models, the reporting
policy decides which send location updates (uplink cost), and conference-call
requests arrive and trigger searches (downlink paging cost).  Per-device
location distributions are *estimated online* from observed positions —
exactly the profile-based approach the paper cites [15, 16] — and feed the
paging optimizer restricted to the registry's candidate set.

This is the substrate for experiment E13: the end-to-end comparison of
blanket LA paging (the GSM MAP / IS-41 standard) against the paper's
delay-constrained heuristic and its adaptive variant.

``SimulationConfig.faults`` switches on the resilience layer
(:mod:`repro.cellnet.faults`): lost pages, cell outages, lost location
updates, and stale-registry windows, with bounded retry/backoff recovery
inside the same delay budget ``d``.  A ``None`` (or all-zero) fault model
keeps every code path and rng draw identical to the fault-free engine.

:meth:`CellularSimulator.run` is a fixed step loop
(:class:`~repro.cellnet.engine.EventEngine`): each step ``1..horizon``
moves the devices, then draws the step's call arrivals, then, under
contention, runs the shared paging round.  With ``channel_capacity=None``
(the default) calls are handled as they arrive, the loop body this
simulator always ran — bit-identical rng streams and reports, pinned by
``tests/cellnet/test_legacy_equivalence.py``.  A finite
``channel_capacity`` switches on the shared per-cell paging channels:
concurrent calls compete for ``channel_capacity * carriers`` page slots
per cell per round through a :class:`~repro.cellnet.engine.ChannelScheduler`,
and the report grows blocking probability, setup-latency percentiles, and
a channel-occupancy histogram (docs/contention.md).  An outage or a
per-cell loss rate on a cell the topology does not have is rejected at
construction.

Movement is drawn in one call per step when that provably replays the
per-device loop: every device walks an exact
:class:`~repro.cellnet.mobility.RandomWalk` on this topology and no
update-loss fault draws between device steps.
:meth:`BoundWalks.step <repro.cellnet.mobility.BoundWalks.step>` then runs
the ``RandomWalk.step`` loop in the compiled library, drawing through the
bit generator's own C functions, or, on a host with no C compiler (or with
``REPRO_DISABLE_COMPILED`` set), makes the same ``Generator`` calls in a
Python loop.  Either way it leaves the generator where the scalar loop
would have left it, on any numpy bit generator, so results and digests do
not depend on which path ran.  Every other population (waypoint, gravity,
mixed lists, subclasses) is stepped one device at a time.  The choice is
made once, at construction, from those inputs alone (docs/performance.md,
"Batched movement"), and so is the walk call's
:class:`~repro.cellnet.mobility.BoundWalks`: the kernel's addresses, read
once, and its reused output buffer.

Each device's state is an entry of arrays on the simulator: its cell, the
cell it last reported, steps since that report, and the step its active
call ends, next to the ``(devices, cells)`` visit counts.  Whichever path
drew the moves, one array pass per step does the location bookkeeping:
mid-call handovers confirm the new cell, every other mover loses its fix,
the reporting policy decides every device at once on a
:class:`~repro.cellnet.reporting.MoveContext` of arrays, and only the
reporters reach the registry.  Under update loss the per-device loop
draws each delivery right after that device's step, as the stream
requires, and the pass applies what it recorded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from ..obs.events import current_tracer
from ..obs.instrument import span
from .calls import ARRIVAL_MODES, ConferenceCallRequest, PoissonConferenceCalls
from .database import LocationRegistry
from .engine import ChannelScheduler, EventEngine, plan_pending_call
from .faults import DEFAULT_RECOVERY, FaultInjector, FaultModel, RecoveryPolicy, ResilientPager
from .location_areas import LocationAreaPlan
from .metrics import CallRecord, LinkUsageMetrics
from .mobility import BoundWalks, MobilityModel, RandomWalk
from .paging import PAGER_FACTORIES, PagingOutcome, Priors
from .timevary import BeliefPropagator, transition_matrix
from .reporting import (
    AlwaysReport,
    DistanceReport,
    LACrossingReport,
    MoveContext,
    NeverReport,
    ReportingPolicy,
    TimerReport,
)
from .topology import CellTopology


@dataclass
class SimulationConfig:
    """Knobs of one simulation run."""

    horizon: int = 1_000
    call_rate: float = 0.05
    max_paging_rounds: int = 3
    reporting: str = "la"  # never | always | la | distance | timer
    pager: str = "heuristic"  # a PAGER_FACTORIES name
    distance_threshold: int = 2
    timer_period: int = 20
    prior_smoothing: float = 1.0
    #: "online" learns per-device profiles from observed positions (the
    #: paper's cited profile-based estimation); "uniform" never learns —
    #: the ablation that shows what the profiles are worth; "conditional"
    #: evolves the belief from each device's last *successful* report via
    #: matrix-power propagation of its mobility kernel (docs/timevary.md).
    prior_mode: str = "online"
    #: trace length for empirically-estimated transition matrices in
    #: ``prior_mode="conditional"`` (stateful models without a closed form).
    transition_samples: int = 4_000
    #: mean call length in steps; while on a call a device talks to its base
    #: station continuously, so the system tracks its cell exactly (paper
    #: Section 1.1).  0 disables durations (calls are instantaneous).
    mean_call_duration: int = 0
    #: declarative fault model (docs/robustness.md); ``None`` — and any
    #: all-zero model — keeps the fault-free engine bit-identical to the
    #: pre-faults simulator on the same seed.
    faults: Optional[FaultModel] = None
    #: recovery behavior when faults are active (defaults to
    #: ``faults.DEFAULT_RECOVERY``); ignored without an active fault model.
    recovery: Optional[RecoveryPolicy] = None
    #: page slots per cell per round *per carrier*; ``None`` = unlimited
    #: channels (the legacy bit-identical path).  A finite value switches
    #: on the shared-channel contention engine (docs/contention.md).
    channel_capacity: Optional[int] = None
    #: parallel paging carriers per cell (Mostafa et al.): a cell's total
    #: budget is ``channel_capacity * carriers`` slots per round.
    carriers: int = 1
    #: steps a pending call may be fully starved of slots before it is
    #: blocked and dropped (the blocking-probability numerator).
    max_wait: int = 8
    #: per-step call arrivals: "bernoulli" (≤ 1/step, the legacy stream)
    #: or "poisson" (a true Poisson count, offered load may exceed 1/step).
    arrival_mode: str = "bernoulli"
    #: keep per-call records in the metrics (False: aggregate counters
    #: only — bounded memory on long runs, identical summaries).
    record_calls: bool = True

    def __post_init__(self) -> None:
        if self.horizon < 1:
            raise SimulationError("horizon must be positive")
        if self.max_paging_rounds < 1:
            raise SimulationError("max_paging_rounds must be positive")
        if self.mean_call_duration < 0:
            raise SimulationError("mean_call_duration must be non-negative")
        if self.pager not in PAGER_FACTORIES:
            raise SimulationError(
                f"unknown pager {self.pager!r}; choose from {sorted(PAGER_FACTORIES)}"
            )
        if self.reporting not in ("never", "always", "la", "distance", "timer"):
            raise SimulationError(f"unknown reporting policy {self.reporting!r}")
        if self.prior_mode not in ("online", "uniform", "conditional"):
            raise SimulationError(f"unknown prior mode {self.prior_mode!r}")
        if self.transition_samples < 1:
            raise SimulationError("transition_samples must be positive")
        if not math.isfinite(self.prior_smoothing) or self.prior_smoothing < 0:
            raise SimulationError("prior_smoothing must be finite and non-negative")
        if self.faults is not None and not isinstance(self.faults, FaultModel):
            raise SimulationError("faults must be a cellnet.faults.FaultModel")
        if self.recovery is not None and not isinstance(self.recovery, RecoveryPolicy):
            raise SimulationError("recovery must be a cellnet.faults.RecoveryPolicy")
        if self.channel_capacity is not None and self.channel_capacity < 1:
            raise SimulationError("channel_capacity must be at least 1 slot")
        if self.carriers < 1:
            raise SimulationError("carriers must be at least 1")
        if self.max_wait < 0:
            raise SimulationError("max_wait must be non-negative")
        if self.arrival_mode not in ARRIVAL_MODES:
            raise SimulationError(
                f"unknown arrival mode {self.arrival_mode!r}; "
                f"choose from {ARRIVAL_MODES}"
            )

    @property
    def faults_active(self) -> bool:
        """True when a non-trivial fault model is configured."""
        return self.faults is not None and not self.faults.is_zero

    @property
    def contention_active(self) -> bool:
        """True when calls share finite per-cell paging channels."""
        return self.channel_capacity is not None


def _batched_walk_stays(
    models: Sequence[MobilityModel],
    topology: CellTopology,
    faults: Optional[FaultModel],
) -> Optional[List[float]]:
    """Per-device stay probabilities if movement may take the batch, else None.

    :meth:`~repro.cellnet.mobility.BoundWalks.step` replays the scalar
    loop draw for draw, on any bit generator, when every model is an exact
    :class:`RandomWalk` (a subclass may override ``step``) walking this
    topology and nothing draws between two device steps, as lost location
    updates do (``FaultInjector.update_delivered``).
    """
    if faults is not None and faults.update_loss > 0.0:
        return None
    if not all(
        type(model) is RandomWalk and model.topology is topology
        for model in models
    ):
        return None
    return [model.stay_probability for model in models]


def _check_fault_cells(faults: FaultModel, num_cells: int) -> None:
    """Reject an outage or a per-cell loss rate on a cell off the topology."""
    cells = [outage.cell for outage in faults.outages]
    cells += [int(cell) for cell in faults.cell_page_loss]
    for cell in cells:
        if cell >= num_cells:
            raise SimulationError(
                f"fault model names cell {cell}, but the topology has "
                f"{num_cells} cells"
            )


@dataclass(frozen=True)
class SimulationReport:
    """Everything a run produced."""

    metrics: LinkUsageMetrics
    config: SimulationConfig
    num_devices: int
    num_cells: int

    def summary(self) -> Dict[str, float]:
        out = self.metrics.summary()
        out["devices"] = float(self.num_devices)
        out["cells"] = float(self.num_cells)
        return out


class CellularSimulator:
    """Time-stepped mobile-network simulation with pluggable policies."""

    def __init__(
        self,
        topology: CellTopology,
        plan: LocationAreaPlan,
        mobility_models: Sequence[MobilityModel],
        config: SimulationConfig,
        *,
        rng: np.random.Generator,
        initial_cells: Optional[Sequence[int]] = None,
    ) -> None:
        if config.faults is not None:
            _check_fault_cells(config.faults, topology.num_cells)
        self._topology = topology
        self._plan = plan
        self._config = config
        self._rng = rng
        self._registry = LocationRegistry()
        self._metrics = LinkUsageMetrics(
            record_calls=config.record_calls,
            contention=config.contention_active,
        )
        self._pager = PAGER_FACTORIES[config.pager]()
        self._policy = self._build_policy()
        # A zero fault model is bypassed entirely: no injector, no extra rng
        # draws, bit-identical runs to the fault-free engine on the same seed.
        self._injector: Optional[FaultInjector] = None
        self._recovery: Optional[RecoveryPolicy] = None
        self._resilient: Optional[ResilientPager] = None
        if config.faults_active:
            assert config.faults is not None
            self._injector = FaultInjector(config.faults, rng, self._metrics)
            self._recovery = (
                config.recovery if config.recovery is not None else DEFAULT_RECOVERY
            )
            self._resilient = ResilientPager(
                config.pager, self._injector, self._recovery
            )
        self._calls = PoissonConferenceCalls(
            config.call_rate, len(mobility_models), mode=config.arrival_mode
        ) if len(mobility_models) >= 2 else None
        # Shared-channel contention: a finite channel_capacity switches the
        # step loop from synchronous calls to queued setup over per-cell
        # page slots.  Calls are planned by the pager's plan step
        # (plan_pending_call) and executed by the ChannelScheduler.
        self._scheduler: Optional[ChannelScheduler] = None
        if config.contention_active:
            assert config.channel_capacity is not None
            self._scheduler = ChannelScheduler(
                self._metrics,
                num_cells=topology.num_cells,
                capacity=config.channel_capacity,
                carriers=config.carriers,
                max_wait=config.max_wait,
                device_cells=self._cell_array,
                on_found=self._on_found,
                injector=self._injector,
                recovery=self._recovery,
                on_complete=self._on_call_complete,
            )
        # Conditional priors need each device's one-step kernel; deriving it
        # here (and only here) keeps "online"/"uniform" runs bit-identical to
        # the pre-timevary engine on the same seed — empirical estimation is
        # the only path that consumes rng draws.  Shared model instances
        # share one propagator (the kernel is a property of the model).
        self._propagators: List[Optional[BeliefPropagator]] = []
        if config.prior_mode == "conditional":
            by_model: Dict[int, BeliefPropagator] = {}
            for model in mobility_models:
                key = id(model)
                if key not in by_model:
                    by_model[key] = BeliefPropagator(
                        transition_matrix(
                            model,
                            topology,
                            rng=rng,
                            samples=config.transition_samples,
                        )
                    )
                    reset = getattr(model, "reset", None)
                    if callable(reset):
                        # stateful models replan from scratch after the
                        # estimation trace, so per-device paths stay coherent
                        reset()
                self._propagators.append(by_model[key])
        else:
            self._propagators = [None] * len(mobility_models)

        c = topology.num_cells
        n = len(mobility_models)
        # The ground truth of every device, one array entry per device:
        # where it is, where it last reported, steps since that report, and
        # the step its active call ends (exclusive; 0 = idle).  Next to them
        # the (devices, cells) visit counts the online priors learn from.
        self._models = list(mobility_models)
        self._device_rows = np.arange(n)
        self._visit_counts = np.full((n, c), config.prior_smoothing, dtype=float)
        # Device i's count of cell x is entry row_base[i] + x of the flat view.
        self._visit_flat = self._visit_counts.reshape(-1)
        self._row_base = self._device_rows * c
        stays = _batched_walk_stays(mobility_models, topology, config.faults)
        self._walk_stays = None if stays is None else np.array(stays, dtype=float)
        cells: List[int] = []
        for index in range(n):
            if initial_cells is not None:
                cell = int(initial_cells[index])
            else:
                cell = int(rng.integers(c))
            cells.append(cell)
            self._visit_counts[index, cell] += 1.0
            self._registry.register(index, plan.area_of(cell), cell, time=0)
            self._metrics.record_registration()
        # Updated in place, so the bound walk kernel reads it where it is.
        self._cells = np.array(cells, dtype=np.intp)
        self._last_reported = self._cells.copy()
        self._since_report = np.zeros(n, dtype=int)
        self._busy_until = np.zeros(n, dtype=int)
        #: the largest entry of ``_busy_until``: no call is active from then on
        self._busy_watermark = 0
        self._walk_bound = None if self._walk_stays is None else BoundWalks(
            rng.bit_generator, self._cells, self._walk_stays, topology.neighbor_csr
        )

    # ------------------------------------------------------------------
    def _build_policy(self) -> ReportingPolicy:
        config = self._config
        if config.reporting == "never":
            return NeverReport()
        if config.reporting == "always":
            return AlwaysReport()
        if config.reporting == "la":
            return LACrossingReport(self._plan)
        if config.reporting == "distance":
            return DistanceReport(self._topology, config.distance_threshold)
        return TimerReport(config.timer_period)

    # ------------------------------------------------------------------
    def _candidate_cells(self, device: int, time: int) -> Tuple[int, ...]:
        """Where the system will look, given its belief about the device."""
        record = self._registry.lookup(device)
        stale_after = (
            self._injector.model.stale_after if self._injector is not None else None
        )
        confirmed = record.confirmed_fix(time=time, stale_after=stale_after)
        if confirmed is not None:
            return (confirmed,)
        if record.confirmed_cell is not None:
            # a fix existed but aged out of the staleness window
            self._metrics.record_stale_lookup()
            tracer = current_tracer()
            if tracer.enabled:
                tracer.count("faults.stale_lookups")
        config = self._config
        if config.reporting == "always":
            assert record.reported_cell is not None
            return (record.reported_cell,)
        if config.reporting == "la":
            return self._plan.cells_of(record.reported_area)
        if config.reporting == "distance":
            assert record.reported_cell is not None
            radius = config.distance_threshold
            # The ring is centred on the registry's reported cell: the last
            # delivered report or the last confirmation (a device found by
            # paging), whichever came later.  DistanceReport measures from
            # the last report only (`_last_reported`), so after a
            # confirmation, or under update loss, the device can stand on
            # or outside the ring; the fallback sweep then finds it.
            ring = self._topology.hop_distances[record.reported_cell] < radius
            return tuple(np.flatnonzero(ring).tolist())
        # never / timer: no usable bound — the whole network is a candidate.
        return tuple(range(self._topology.num_cells))

    def _prior(self, device: int, time: int) -> np.ndarray:
        if self._config.prior_mode == "uniform":
            c = self._topology.num_cells
            return np.full(c, 1.0 / c)
        if self._config.prior_mode == "conditional":
            propagator = self._propagators[device]
            record = self._registry.lookup(device)
            if propagator is not None and record.reported_cell is not None:
                # Evolve from the last *successful* report (or confirmed
                # fix): the registry only advances on delivered updates, so
                # under update loss the belief correctly keeps aging from
                # the last message that actually arrived.
                return propagator.distribution(
                    record.reported_cell, max(0, record.age(time))
                )
        counts = self._visit_counts[device]
        return counts / counts.sum()

    # ------------------------------------------------------------------
    def _step_devices(self, time: int) -> Tuple[np.ndarray, Optional[np.ndarray]]:
        """Step every device's own model, one device after another.

        Returns the new cells and, under update loss, which of this step's
        location updates reach the registry.  Each device's
        ``update_delivered`` draw follows its own step draw, so the loop
        asks the policy about that one device right after moving it; the
        array pass in :meth:`_step_movement` reaches the same decision and
        applies the recorded delivery.
        """
        rng = self._rng
        injector = self._injector
        lossy = injector is not None and injector.model.update_loss > 0.0
        delivered = np.ones(len(self._models), dtype=bool) if lossy else None
        new_cells: List[int] = []
        for index, (model, cell) in enumerate(zip(self._models, self._cells.tolist())):
            new_cell = model.step(cell, rng)
            new_cells.append(new_cell)
            if lossy and self._policy.should_report(
                MoveContext(
                    index,
                    cell,
                    new_cell,
                    time,
                    int(self._last_reported[index]),
                    int(self._since_report[index]) + 1,
                )
            ):
                delivered[index] = injector.update_delivered(time)
        return np.array(new_cells, dtype=int), delivered

    def _step_movement(self, time: int) -> None:
        """Move every device, then do one step's location bookkeeping.

        The bookkeeping is one array pass, whichever path drew the moves:
        mid-call handovers confirm the new cell, every other mover loses
        its fix, the policy decides all reports at once, and the reporters'
        updates reach the registry (unless lost under fault injection).
        The new cells are copied into ``_cells`` last, in place: the bound
        walk kernel reads them there, and its output buffer is reused.
        """
        old = self._cells
        delivered: Optional[np.ndarray] = None
        if self._walk_bound is not None:
            new = self._walk_bound.step()
        else:
            new, delivered = self._step_devices(time)
        self._since_report += 1
        moved = new != old
        areas = self._plan.area_table
        registry = self._registry
        if time < self._busy_watermark:
            busy = moved & (time < self._busy_until)
            # Mid-call handover: the base stations track the device, so the
            # system's fix stays exact (paper Section 1.1).
            for device in np.flatnonzero(busy).tolist():
                cell = new.item(device)
                registry.confirm(device, cell, areas.item(cell), time)
            moved ^= busy
        if registry.holds_fixes:
            registry.invalidate_confirmation(np.flatnonzero(moved))
        reports = self._policy.should_report(
            MoveContext(
                self._device_rows,
                old,
                new,
                time,
                self._last_reported,
                self._since_report,
            )
        )
        reporters = np.flatnonzero(reports)
        # The device always pays the uplink message and believes it
        # reported; under fault injection the message may be lost before
        # the registry, whose belief then goes stale.
        self._metrics.record_report(reporters.size)
        self._last_reported[reporters] = new[reporters]
        self._since_report[reporters] = 0
        if delivered is not None:
            reporters = reporters[delivered[reporters]]
        cells = new[reporters]
        registry.report(reporters, areas[cells], cells, time)
        # One add per row, so the flat index adds exactly what the 2-D one did.
        self._visit_flat[self._row_base + new] += 1.0
        self._cells[...] = new

    def _call_inputs(
        self, request: ConferenceCallRequest
    ) -> Tuple[List[int], Priors]:
        """The sorted candidate union and the participants' priors.

        The search space is the union of the per-device candidate sets: the
        system must locate every participant, and Lemma 2.1's model treats
        the union as one location area with per-device conditional priors.
        Online priors come from one gather of the visit-count rows: over
        C-contiguous rows the row sums round exactly as each device's
        ``counts.sum()`` in :meth:`_prior` does.
        """
        participants = request.participants
        candidate_union = sorted(
            {
                cell
                for device in participants
                for cell in self._candidate_cells(device, request.time)
            }
        )
        priors: Priors
        if self._config.prior_mode == "online":
            rows = self._visit_counts[list(participants)]
            priors = rows / rows.sum(axis=1, keepdims=True)
        else:
            priors = [self._prior(device, request.time) for device in participants]
        return candidate_union, priors

    def _handle_call(self, request: ConferenceCallRequest) -> PagingOutcome:
        participants = request.participants
        candidate_union, priors = self._call_inputs(request)
        true_cells = [self._cells.item(device) for device in participants]
        if self._resilient is None:
            outcome = self._pager.search(
                priors,
                candidate_union,
                true_cells,
                self._config.max_paging_rounds,
                self._topology.num_cells,
            )
        else:
            with span(
                "faults.injected",
                time=request.time,
                participants=len(participants),
            ):
                outcome = self._resilient.search(
                    priors,
                    candidate_union,
                    true_cells,
                    self._config.max_paging_rounds,
                    self._topology.num_cells,
                    time=request.time,
                )
        duration = 0
        if self._config.mean_call_duration > 0:
            duration = 1 + int(
                self._rng.geometric(1.0 / self._config.mean_call_duration)
            )
        for device, cell in outcome.found_cells.items():
            actual = participants[device]
            self._registry.confirm(
                actual, cell, self._plan.area_of(cell), request.time
            )
            if duration:
                self._mark_busy(actual, request.time + duration)
        self._metrics.record_call(
            CallRecord(
                time=request.time,
                participants=len(participants),
                cells_paged=outcome.cells_paged,
                rounds_used=outcome.rounds_used,
                used_fallback=outcome.used_fallback,
                failed_devices=len(outcome.failed_devices),
                retries=outcome.retries_used,
            )
        )
        tracer = current_tracer()
        if tracer.enabled:
            tracer.count("cellnet.calls")
            tracer.count("cellnet.cells_paged", outcome.cells_paged)
            tracer.observe("cellnet.rounds_to_find", outcome.rounds_used)
            tracer.observe("cellnet.cells_paged_per_call", outcome.cells_paged)
            if outcome.used_fallback:
                tracer.count("cellnet.fallback_searches")
            if outcome.retries_used:
                tracer.count("cellnet.retries", outcome.retries_used)
            if self._resilient is not None:
                tracer.observe(
                    "cellnet.failed_devices_per_call", len(outcome.failed_devices)
                )
                if outcome.failed_devices:
                    tracer.count("cellnet.degraded_calls")
        return outcome

    def _step_arrivals(self, time: int) -> None:
        """This step's call arrivals: handled at once, or queued under contention."""
        if self._calls is None:
            return
        for request in self._calls.arrivals(time, self._rng):
            if self._scheduler is None:
                self._handle_call(request)
            else:
                self._admit_call(request)

    def _admit_call(self, request: ConferenceCallRequest) -> None:
        """Plan one arriving call and queue it on the shared channels."""
        assert self._scheduler is not None
        candidate_union, priors = self._call_inputs(request)
        rounds = self._config.max_paging_rounds
        if self._recovery is not None:
            rounds = self._recovery.planning_rounds(rounds)
        call = plan_pending_call(
            request, priors, candidate_union, rounds, pager=self._pager
        )
        self._scheduler.admit(call)

    def _on_found(self, device: int, cell: int, time: int) -> None:
        """A paged participant answered: confirm its fix in the registry."""
        self._registry.confirm(device, cell, self._plan.area_of(cell), time)

    def _on_call_complete(self, call, time: int) -> None:
        """Draw the call duration and mark every located participant busy."""
        if self._config.mean_call_duration <= 0 or not call.found_cells:
            return
        duration = 1 + int(
            self._rng.geometric(1.0 / self._config.mean_call_duration)
        )
        for local in sorted(call.found_cells):
            self._mark_busy(call.request.participants[local], time + duration)

    def _mark_busy(self, device: int, until: int) -> None:
        """The device is on a call until step ``until`` (exclusive)."""
        if until > self._busy_until[device]:
            self._busy_until[device] = until
            self._busy_watermark = max(self._busy_watermark, until)

    # ------------------------------------------------------------------
    def run(self) -> SimulationReport:
        """Advance the system for ``horizon`` steps and report usage."""
        with span(
            "cellnet.run",
            horizon=self._config.horizon,
            devices=len(self._models),
            cells=self._topology.num_cells,
            pager=self._config.pager,
            contention=self._config.contention_active,
        ):
            faults = self._config.faults
            EventEngine(
                self._step_movement,
                self._step_arrivals,
                self._scheduler,
                faults.outages if faults is not None else (),
            ).run(self._config.horizon)
            if self._scheduler is not None:
                self._scheduler.drain(self._config.horizon)
        return SimulationReport(
            metrics=self._metrics,
            config=self._config,
            num_devices=len(self._models),
            num_cells=self._topology.num_cells,
        )

    # ------------------------------------------------------------------
    @property
    def metrics(self) -> LinkUsageMetrics:
        return self._metrics

    @property
    def registry(self) -> LocationRegistry:
        return self._registry

    def device_cell(self, device: int) -> int:
        return self._cells.item(device)

    def _cell_array(self) -> np.ndarray:
        """Every device's cell, as the scheduler reads them once per round.

        The array itself, updated in place each step, so the compiled
        round reads it where it is.
        """
        return self._cells

    def estimated_prior(self, device: int, time: int = 0) -> np.ndarray:
        """The current belief (for estimation-quality checks).

        ``time`` only matters in ``prior_mode="conditional"``, where it sets
        the age of the last report the belief is evolved from.
        """
        return self._prior(device, time)
