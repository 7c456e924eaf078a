"""The benchmark's five workloads.

Each workload builds its inputs from a seed (the same seed gives the same
inputs), runs one unit of user-facing work per timed repeat, reports the
deterministic statistics that work produced, and checks them.  Why each
workload is in the benchmark is its ``why`` in BENCHMARK.json;
bench/README.md has the longer story and the layer each one stresses.

The repro package is imported inside :meth:`Workload.setup`, so the
set-up time a child process reports includes importing it.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from spans import CLOCK, cutting

#: Timed repeats a run makes at least, however short ``--seconds`` is.
MIN_REPEATS = 5

Check = Tuple[str, bool, str]


@dataclass
class Repeat:
    """One timed unit of work, what it produced, and how long each segment took."""

    wall_s: float
    units: float
    exact: Dict[str, Any]
    #: duration of each segment between successive probe calls (the first
    #: from the start of the run, the last until its end)
    segments_s: np.ndarray
    #: index of the segment each latency unit starts with
    unit_starts: np.ndarray


@dataclass
class Fastest:
    """Each segment at its fastest over the timed repeats.

    Every repeat replays the same seeded work, cut at the same calls, so
    segment ``i`` is the same work in every repeat.  Host noise only slows
    work down.  On a shared host it comes in phases that slow everything
    the process does by the same factor (up to about 2x) for seconds to
    minutes, so the time of any one repeat depends on the phase it ran in.
    The fastest time of each short segment over many short repeats spread
    across the run is the work done in the run's fastest phases, which is
    steady from run to run.
    """

    segments_s: np.ndarray
    unit_starts: np.ndarray

    @property
    def total_s(self) -> float:
        return float(self.segments_s.sum())

    def unit_latencies_us(self) -> np.ndarray:
        """Each latency unit: its segments up to the next unit (or the end)."""
        if not self.unit_starts.size:
            return np.zeros(0)
        return np.add.reduceat(self.segments_s, self.unit_starts) * 1e6


def fastest(repeats: Sequence[Repeat]) -> Fastest:
    """Segment-wise minimum over ``repeats``, which must be cut alike."""
    first = repeats[0]
    for index, repeat in enumerate(repeats[1:], start=1):
        if repeat.segments_s.shape != first.segments_s.shape or not np.array_equal(
            repeat.unit_starts, first.unit_starts
        ):
            raise ValueError(
                f"repeat {index} was cut into {repeat.segments_s.size} segments "
                f"and {repeat.unit_starts.size} units, repeat 0 into "
                f"{first.segments_s.size} and {first.unit_starts.size}"
            )
    return Fastest(np.min([r.segments_s for r in repeats], axis=0), first.unit_starts)


def nearest_rank(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return float(ordered[int(rank) - 1])


#: Samples a reported tail latency leaves above it.
TAIL_BEYOND = 10


def tail(values: Sequence[float]) -> float:
    """The highest percentile of a sample with TAIL_BEYOND values above it.

    That is the 1190th of 1200 simulated steps (p99.2), the 90th of 100
    (p90) and the 2990th of 3000 requests (p99.67); a sample of at most
    TAIL_BEYOND values gives its maximum.
    """
    ordered = sorted(values)
    above = TAIL_BEYOND if len(ordered) > TAIL_BEYOND else 0
    return float(ordered[len(ordered) - 1 - above])


def histogram_rank(histogram: Dict[int, int], q: float) -> float:
    """Nearest-rank percentile of an integer histogram ``value -> count``."""
    total = sum(histogram.values())
    if total == 0:
        return 0.0
    rank = max(1, -(-total * q // 100))
    seen = 0
    for value in sorted(histogram):
        seen += histogram[value]
        if seen >= rank:
            return float(value)
    return float(max(histogram))


def _pin(name: str, actual: Any, expected: Any) -> Check:
    return (name, actual == expected, f"{actual!r} (expected {expected!r})")


class Workload:
    """One set of inputs and the unit of work the benchmark times on it."""

    name = ""
    default_seed = 0
    #: ``(module, qualname)`` of the functions whose calls cut a timed
    #: repeat into segments; each call to the first starts a latency unit
    probes: Tuple[Tuple[str, str], ...] = ()
    #: hook ids (``module:qualname``) a traced run of this workload must hit
    expected_hooks: Tuple[str, ...] = ()
    #: exact statistics the default seed must reproduce
    pins: Dict[str, Any] = {}

    # -- what each workload defines -------------------------------------
    def setup(self, seed: int) -> SimpleNamespace:
        """Build the inputs and the first simulator, controller or matrix."""
        raise NotImplementedError

    def prepare(self, state: SimpleNamespace) -> Any:
        """Untimed per-repeat preparation (a fresh simulator, controller...)."""
        return None

    def execute(self, state: SimpleNamespace, job: Any) -> Any:
        raise NotImplementedError

    def exact(self, state: SimpleNamespace, outcome: Any) -> Dict[str, Any]:
        raise NotImplementedError

    def units(self, state: SimpleNamespace, outcome: Any, results: list) -> float:
        """Work units of one repeat; ``results`` are the first probe's returns."""
        raise NotImplementedError

    def quality(self, state: SimpleNamespace, exact: Dict[str, Any]) -> Dict[str, float]:
        """``completed_share`` and ``wireless_cost`` of one repeat."""
        raise NotImplementedError

    def checks(self, state: SimpleNamespace, exact: Dict[str, Any]) -> List[Check]:
        """Invariants that hold at every seed."""
        return []

    def pinned_exact(self, state: SimpleNamespace, reference: Dict[str, Any]) -> Dict[str, Any]:
        """The exact statistics :attr:`pins` describe: the default seed's.

        A run on another seed replays the default seed once, untimed.
        """
        if state.seed == self.default_seed:
            return reference
        default = self.setup(self.default_seed)
        return self.exact(default, self.execute(default, self.prepare(default)))

    def pin_checks(self, exact: Dict[str, Any]) -> List[Check]:
        """The default seed's exact statistics against :attr:`pins`."""
        return [
            _pin(f"{key} at seed {self.default_seed}", exact[key], value)
            for key, value in self.pins.items()
        ]

    def run_exact(self, state: SimpleNamespace) -> Dict[str, Any]:
        """Exact statistics of the whole run beyond those of one repeat."""
        return {}

    def layer_stats(self, state: SimpleNamespace, outcome: Any) -> Dict[str, float]:
        return {}

    def fingerprint(self, state: SimpleNamespace) -> str:
        """A digest of the generated inputs (for the seed-purity tests)."""
        raise NotImplementedError

    # -- shared machinery -------------------------------------------------
    def repeat(self, state: SimpleNamespace) -> Repeat:
        """Prepare (untimed), then time one unit of work, cut by the probes.

        A full garbage collection before the clock starts puts the
        collector in the same state in every repeat, so its pauses fall
        in the same segments each time.
        """
        job = self.prepare(state)
        gc.collect()
        with cutting(self.probes) as cuts:
            start = CLOCK()
            outcome = self.execute(state, job)
            end = CLOCK()
        return Repeat(
            wall_s=end - start,
            units=self.units(state, outcome, cuts.results),
            exact=self.exact(state, outcome),
            segments_s=np.diff(np.array([start, *cuts.times, end])),
            unit_starts=np.array(cuts.unit_index, dtype=np.intp) + 1,
        )

    def measure(
        self,
        state: SimpleNamespace,
        seconds: float,
        between: Optional[Callable[[float], None]] = None,
    ) -> List[Repeat]:
        """Timed repeats, one after another, for ``seconds`` (at least
        :data:`MIN_REPEATS` of them).

        ``between(elapsed)`` runs after each repeat with the seconds of
        repeats so far; its own time does not count towards ``seconds``.
        """
        start = CLOCK()
        paused = 0.0
        repeats: List[Repeat] = []
        while len(repeats) < MIN_REPEATS or CLOCK() - start - paused < seconds:
            repeats.append(self.repeat(state))
            if between is not None:
                before = CLOCK()
                between(before - start - paused)
                paused += CLOCK() - before
        return repeats

    def end_to_end(
        self, state: SimpleNamespace, repeats: List[Repeat]
    ) -> Dict[str, float]:
        """Throughput and latency over the timed repeats.

        Host time is each segment's fastest (:class:`Fastest`): throughput
        is one repeat's work units over the sum of those, and the latency
        median and :func:`tail` are taken over the units built from them.
        """
        best = fastest(repeats)
        latencies = best.unit_latencies_us()
        return {
            "throughput_per_s": repeats[0].units / best.total_s,
            "latency_p50_us": nearest_rank(latencies, 50),
            "latency_tail_us": tail(latencies),
        }

    def attempted_failed(self, state: SimpleNamespace, repeats: List[Repeat]) -> Tuple[int, int]:
        return int(sum(r.units for r in repeats)), 0

    def extras(self, state: SimpleNamespace, repeats: List[Repeat]) -> Dict[str, float]:
        """Workload-specific numbers printed beside the metrics.

        ``completed_share`` and ``wireless_cost`` are fixed by the seed, so
        they vary only from seed to seed and are no end-to-end metric; the
        exact statistics guard them.
        """
        walls = [r.wall_s for r in repeats]
        return {
            **self.quality(state, repeats[0].exact),
            "repeats": float(len(repeats)),
            "segments": float(repeats[0].segments_s.size),
            "latency_units": float(repeats[0].unit_starts.size),
            "repeat_s_fastest_segments": fastest(repeats).total_s,
            "repeat_s_best": min(walls),
            "repeat_s_median": statistics.median(walls),
        }


# ---------------------------------------------------------------------------
# Simulator workloads
# ---------------------------------------------------------------------------

_SIMULATOR_HOOKS = (
    "repro.cellnet.simulator:CellularSimulator.run",
    "repro.cellnet.engine:EventEngine.run",
    "repro.cellnet.calls:PoissonConferenceCalls.arrivals",
    "repro.cellnet.mobility:RandomWalk.step",
    "repro.cellnet.database:LocationRegistry.lookup",
    "repro.cellnet.database:LocationRegistry.confirm",
    "repro.cellnet.database:LocationRegistry.invalidate_confirmation",
    "repro.cellnet.database:LocationRegistry.report",
    "repro.cellnet.metrics:LinkUsageMetrics.record_call",
    "repro.cellnet.metrics:LinkUsageMetrics.record_report",
    "repro.core.instance:PagingInstance.__init__",
    "repro.solvers.registry:RegisteredSolver.__call__",
)

_CONTENTION_HOOKS = _SIMULATOR_HOOKS + (
    "repro.cellnet.engine:ChannelScheduler.admit",
    "repro.cellnet.engine:ChannelScheduler.serve_round",
    "repro.cellnet.engine:ChannelScheduler.drain",
    "repro.cellnet.simulator:plan_pending_call",
    "repro.cellnet.engine:build_sub_instance",
    "repro.cellnet.metrics:LinkUsageMetrics.record_offered_call",
    "repro.cellnet.metrics:LinkUsageMetrics.record_blocked_call",
    "repro.cellnet.metrics:LinkUsageMetrics.record_deferred_step",
    "repro.cellnet.metrics:LinkUsageMetrics.record_occupancy",
)


class Simulation(Workload):
    """A ``CellularSimulator`` run; one repeat is one whole run.

    The simulator asks the arrival process for each step's calls once per
    step; those calls cut a run into its steps, and the latency unit is
    one simulated step.

    A timed run lasts ``horizon`` steps.  The pinned statistics describe
    the default seed over ``pin_horizon`` steps, the length the workload
    was specified with; when that is not the timed length, they are
    checked on an untimed replay.
    """

    default_seed = 29
    probes = (("repro.cellnet.calls", "PoissonConferenceCalls.arrivals"),)

    def __init__(
        self,
        name: str,
        *,
        radius: int,
        areas: int,
        devices: int,
        horizon: int,
        pin_horizon: Optional[int] = None,
        shared_model: bool = False,
        page_loss: float = 0.0,
        pins: Dict[str, Any],
        expected_hooks: Tuple[str, ...],
        **config: Any,
    ) -> None:
        self.name = name
        self.radius = radius
        self.areas = areas
        self.devices = devices
        self.horizon = horizon
        self.pin_horizon = horizon if pin_horizon is None else pin_horizon
        self.shared_model = shared_model
        self.page_loss = page_loss
        self.config = config
        self.pins = pins
        self.expected_hooks = expected_hooks

    @property
    def contended(self) -> bool:
        return self.config.get("channel_capacity") is not None

    def setup(self, seed: int, horizon: Optional[int] = None) -> SimpleNamespace:
        from repro.cellnet import (
            CellTopology,
            FaultModel,
            LocationAreaPlan,
            RandomWalk,
            SimulationConfig,
        )

        topology = CellTopology.hexagonal_disk(self.radius)
        if self.shared_model:
            models = [RandomWalk(topology, stay_probability=0.3)] * self.devices
        else:
            models = [
                RandomWalk(topology, stay_probability=0.3) for _ in range(self.devices)
            ]
        faults = FaultModel(page_loss=self.page_loss) if self.page_loss else None
        state = SimpleNamespace(
            seed=seed,
            topology=topology,
            plan=LocationAreaPlan.by_bfs(topology, self.areas),
            models=models,
            config=SimulationConfig(
                horizon=self.horizon if horizon is None else horizon,
                faults=faults,
                **self.config,
            ),
        )
        self.prepare(state)
        return state

    def prepare(self, state: SimpleNamespace) -> Any:
        from repro.cellnet import CellularSimulator

        return CellularSimulator(
            state.topology,
            state.plan,
            state.models,
            state.config,
            rng=np.random.default_rng(state.seed),
        )

    def execute(self, state: SimpleNamespace, job: Any) -> Any:
        return job.run()

    def exact(self, state: SimpleNamespace, outcome: Any) -> Dict[str, Any]:
        metrics = outcome.metrics
        if self.contended:
            rounds_p95 = histogram_rank(metrics.setup_latency_histogram, 95)
        else:
            rounds_p95 = histogram_rank(metrics.rounds_histogram, 95)
        return {
            "offered_calls": metrics.offered_calls,
            "blocked_calls": metrics.blocked_calls,
            "calls_handled": metrics.calls_handled,
            "degraded_calls": metrics.degraded_calls,
            "report_messages": metrics.report_messages,
            "cells_paged": metrics.cells_paged,
            "fallback_searches": metrics.fallback_searches,
            "retry_rounds": metrics.retry_rounds,
            "pages_lost": metrics.pages_lost,
            "deferred_steps": metrics.deferred_steps,
            "setup_rounds_p95": rounds_p95,
            "messages_per_call": metrics.total_wireless_messages / metrics.calls_handled,
        }

    def pinned_exact(self, state: SimpleNamespace, reference: Dict[str, Any]) -> Dict[str, Any]:
        if state.seed == self.default_seed and self.pin_horizon == self.horizon:
            return reference
        pinned = self.setup(self.default_seed, self.pin_horizon)
        return self.exact(pinned, self.execute(pinned, self.prepare(pinned)))

    def units(self, state: SimpleNamespace, outcome: Any, results: list) -> float:
        if self.contended:
            return float(outcome.metrics.offered_calls)
        return float(self.devices * state.config.horizon)

    def quality(self, state: SimpleNamespace, exact: Dict[str, Any]) -> Dict[str, float]:
        if self.contended:
            offered = exact["offered_calls"]
            completed = offered - exact["blocked_calls"] - exact["degraded_calls"]
            return {
                "completed_share": completed / offered,
                "wireless_cost": exact["messages_per_call"],
            }
        # Roaming: a few dozen calls against ~10^4 location updates, so
        # the cost is normalised per device-step, where it is stable.
        handled = exact["calls_handled"]
        messages = exact["report_messages"] + exact["cells_paged"]
        return {
            "completed_share": (handled - exact["degraded_calls"]) / handled,
            "wireless_cost": messages / (self.devices * state.config.horizon),
        }

    def checks(self, state: SimpleNamespace, exact: Dict[str, Any]) -> List[Check]:
        if self.contended:
            return [(
                "every offered call completes or is blocked",
                exact["offered_calls"] == exact["calls_handled"] + exact["blocked_calls"],
                f"{exact['offered_calls']} offered, {exact['calls_handled']} handled, "
                f"{exact['blocked_calls']} blocked",
            )]
        return [(
            "calls are handled and none degrade",
            exact["calls_handled"] > 0 and exact["degraded_calls"] == 0,
            f"{exact['calls_handled']} handled, {exact['degraded_calls']} degraded",
        )]

    def layer_stats(self, state: SimpleNamespace, outcome: Any) -> Dict[str, float]:
        metrics = outcome.metrics
        stats = {
            key: float(getattr(metrics, key))
            for key in (
                "cells_paged", "fallback_searches", "calls_handled", "deferred_steps",
                "offered_calls", "retry_rounds", "pages_lost", "report_messages",
            )
        }
        stats["pages_sent"] = float(
            sum(slots * count for slots, count in metrics.channel_occupancy.items())
        )
        return stats

    def fingerprint(self, state: SimpleNamespace) -> str:
        simulator = self.prepare(state)
        cells = [simulator.device_cell(device) for device in range(self.devices)]
        return hashlib.sha256(repr(cells).encode()).hexdigest()


CONTENDED = Simulation(
    "contended",
    radius=3,
    areas=4,
    devices=10,
    horizon=1200,
    call_rate=2.0,
    arrival_mode="poisson",
    channel_capacity=1,
    carriers=2,
    max_paging_rounds=3,
    max_wait=8,
    record_calls=False,
    pins={"offered_calls": 2311, "blocked_calls": 285, "setup_rounds_p95": 17.0},
    expected_hooks=_CONTENTION_HOOKS + (
        "repro.cellnet.reporting:LACrossingReport.should_report",
    ),
)

CONTENDED_LOSSY = Simulation(
    "contended_lossy",
    radius=3,
    areas=4,
    devices=10,
    shared_model=True,
    page_loss=0.05,
    horizon=300,
    pin_horizon=1200,
    call_rate=2.0,
    arrival_mode="poisson",
    channel_capacity=1,
    carriers=2,
    max_paging_rounds=3,
    max_wait=8,
    record_calls=False,
    prior_mode="conditional",
    reporting="distance",
    distance_threshold=2,
    pins={"offered_calls": 2418, "blocked_calls": 476, "retry_rounds": 1329},
    expected_hooks=_CONTENTION_HOOKS + (
        "repro.cellnet.reporting:DistanceReport.should_report",
        "repro.cellnet.engine:ChannelScheduler.on_retry",
        "repro.cellnet.faults:FaultInjector.page_delivered",
        "repro.cellnet.metrics:LinkUsageMetrics.record_page_lost",
        "repro.cellnet.timevary:BeliefPropagator.distribution",
        "repro.cellnet.timevary:BeliefPropagator.evolve",
    ),
)

ROAMING = Simulation(
    "roaming",
    radius=4,
    areas=6,
    devices=400,
    horizon=100,
    pin_horizon=600,
    call_rate=0.3,
    pins={
        "calls_handled": 198,
        "report_messages": 55890,
        "cells_paged": 3339,
        "setup_rounds_p95": 3.0,
    },
    expected_hooks=_SIMULATOR_HOOKS + (
        "repro.cellnet.reporting:LACrossingReport.should_report",
        "repro.cellnet.paging:HeuristicPager.search",
        "repro.cellnet.paging:build_sub_instance",
    ),
)


# ---------------------------------------------------------------------------
# The plan service
# ---------------------------------------------------------------------------

class Service(Workload):
    """Plan requests through ``PagingController`` (cache, shards, batches).

    The stream is ``requests`` plans requests followed by OPEN_REQUESTS
    more.  A timed repeat is two passes.  Capacity is closed loop: one
    ``run_closed_loop`` pass of the stream's first part through a fresh
    controller, cut into segments at its ``poll`` calls (one every 256
    requests).  Latency is open loop, on the controller that pass has
    warmed, so about 97% of requests hit its cache as in steady operation:
    the last OPEN_REQUESTS requests are sent, request ``i`` at ``i / RATE``
    seconds, the sender polls while idle, and each request is timed from
    when it was due until its ticket is seen done.

    A cache miss waits for its batch group to flush, which a wall-clock
    timeout decides, so one request's wait differs from pass to pass by
    chance, and its fastest over many passes would shrink with the number
    of passes.  Each pass therefore yields its own percentiles, and each
    percentile is reported at its lowest over the passes (:class:`OpenLoops`).
    """

    name = "service"
    default_seed = 20060
    probes = (("repro.service.controller", "PagingController.poll"),)
    #: open-loop send rate, requests per second
    RATE = 30_000.0
    #: requests of one open-loop pass (the tail of the stream)
    OPEN_REQUESTS = 3_000
    #: requests checked against a fresh solve, per kind (miss, hit)
    SAMPLE = 100
    expected_hooks = (
        "repro.service.controller:PagingController.submit",
        "repro.service.controller:PagingController.poll",
        "repro.service.controller:PagingController.flush",
        "repro.service.controller:plan_cache_key",
        "repro.service.cache:PlanCache.get",
        "repro.service.cache:PlanCache.put",
        "repro.solvers.registry:RegisteredSolver.run_batch",
    )

    def __init__(self, requests: int, pins: Dict[str, Any]) -> None:
        self.requests = requests
        self.pins = pins

    def setup(self, seed: int) -> SimpleNamespace:
        from repro.service import (
            PagingController,
            ServiceConfig,
            WorkloadConfig,
            build_requests,
        )

        stream = build_requests(
            WorkloadConfig(
                requests=self.requests + self.OPEN_REQUESTS,
                areas=64,
                devices=3,
                cells=40,
                rounds=3,
                profiles_per_area=8,
                hot_fraction=0.97,
                seed=seed,
            )
        )
        config = ServiceConfig(num_shards=4, cache_size=8192, batch_window=64)
        state = SimpleNamespace(
            seed=seed,
            requests=stream[: self.requests],
            open_requests=stream[self.requests:],
            config=config,
            open=OpenLoops(),
        )
        self.prepare(state)
        return state

    def prepare(self, state: SimpleNamespace) -> Any:
        """A fresh controller, kept as ``state.controller`` for the open loop."""
        from repro.service import PagingController

        state.controller = PagingController(state.config)
        return state.controller

    def execute(self, state: SimpleNamespace, job: Any) -> Any:
        from repro.service import run_closed_loop

        return run_closed_loop(job, state.requests)

    def exact(self, state: SimpleNamespace, outcome: Any) -> Dict[str, Any]:
        return {key: int(outcome[key]) for key in ("requests", "planned", "sheds")}

    def units(self, state: SimpleNamespace, outcome: Any, results: list) -> float:
        return float(outcome["requests"])

    def repeat(self, state: SimpleNamespace) -> Repeat:
        """The timed closed-loop pass, then an open-loop pass on the
        controller it warmed (added to ``state.open``)."""
        repeat = super().repeat(state)
        state.open.add(open_loop(state.controller, state.open_requests, self.RATE))
        return repeat

    def measure(
        self,
        state: SimpleNamespace,
        seconds: float,
        between: Optional[Callable[[float], None]] = None,
    ) -> List[Repeat]:
        state.open = OpenLoops()
        return super().measure(state, seconds, between)

    def end_to_end(self, state: SimpleNamespace, repeats: List[Repeat]) -> Dict[str, float]:
        return {
            "throughput_per_s": repeats[0].units / fastest(repeats).total_s,
            "latency_p50_us": min(state.open.p50_us),
            "latency_tail_us": min(state.open.tail_us),
        }

    def quality(self, state: SimpleNamespace, exact: Dict[str, Any]) -> Dict[str, float]:
        loop = state.open.first
        served = exact["requests"] - exact["sheds"] + loop.ok
        return {
            "completed_share": served / (exact["requests"] + len(loop.tickets)),
            "wireless_cost": loop.mean_expected_paging,
        }

    def attempted_failed(self, state: SimpleNamespace, repeats: List[Repeat]) -> Tuple[int, int]:
        loops = state.open
        attempted = sum(r.exact["requests"] for r in repeats) + loops.sent
        failed = sum(r.exact["sheds"] for r in repeats) + loops.sent - loops.answered
        return attempted, failed

    def checks(self, state: SimpleNamespace, exact: Dict[str, Any]) -> List[Check]:
        loops = state.open
        distinct = len({request.matrix.tobytes() for request in state.requests})
        out: List[Check] = [
            _pin("closed loop serves every request", exact["requests"], len(state.requests)),
            _pin("closed loop sheds nothing", exact["sheds"], 0),
            _pin("each distinct profile is planned once", exact["planned"], distinct),
            _pin("open loop answers every request", loops.answered, loops.sent),
            ("open-loop passes return the same plans", len(loops.digests) == 1,
             f"{len(loops.digests)} distinct plan digests over {loops.passes} passes"),
        ]
        mismatches = verify_plans(loops.first.tickets, loops.first.hits, state.seed, self.SAMPLE)
        out.append((
            "sampled plans equal a fresh heuristic-batch solve",
            not mismatches,
            f"{len(mismatches)} mismatched: {mismatches[:3]}",
        ))
        return out

    def run_exact(self, state: SimpleNamespace) -> Dict[str, Any]:
        return {"plans_digest": state.open.first.plans_digest}

    def layer_stats(self, state: SimpleNamespace, outcome: Any) -> Dict[str, float]:
        return {
            "hit_rate": float(outcome["hit_rate"]),
            "batch_rows_mean": float(outcome["mean_batch_size"]),
            "late_share": state.open.late_share,
        }

    def extras(self, state: SimpleNamespace, repeats: List[Repeat]) -> Dict[str, float]:
        loops = state.open
        out = super().extras(state, repeats)
        out.update({
            "latency_units": float(len(loops.first.tickets)),
            "open_loop_passes": float(loops.passes),
            "open_loop_hit_rate": float(np.mean(loops.first.hits)),
            "miss_wait_us_p50": min(loops.miss_p50_us),
            "late_share": loops.late_share,
            "max_late_ms": loops.max_late_ms,
        })
        return out

    def fingerprint(self, state: SimpleNamespace) -> str:
        digest = hashlib.sha256()
        for request in state.requests[:2000]:
            digest.update(request.matrix.tobytes())
        return digest.hexdigest()


@dataclass
class OpenLoop:
    """One open-loop pass: per-request latency and generator lateness."""

    tickets: list
    latency_us: np.ndarray
    late_s: np.ndarray
    hits: np.ndarray
    ok: int
    plans_digest: str
    mean_expected_paging: float


class OpenLoops:
    """Open-loop passes over the same requests and each one's percentiles.

    The first pass is kept whole (its tickets are checked against fresh
    solves); of the others only what the checks and metrics need.
    """

    def __init__(self) -> None:
        self.first: Optional[OpenLoop] = None
        #: per pass: latency p50 and :func:`tail`, and the p50 of cache misses alone
        self.p50_us: List[float] = []
        self.tail_us: List[float] = []
        self.miss_p50_us: List[float] = []
        self.passes = 0
        self.sent = 0
        self.answered = 0
        self.digests: set = set()
        self.late = 0
        self.max_late_ms = 0.0

    def add(self, loop: OpenLoop) -> None:
        if self.first is None:
            self.first = loop
        misses = loop.latency_us[~loop.hits]
        self.p50_us.append(nearest_rank(loop.latency_us, 50))
        self.tail_us.append(tail(loop.latency_us))
        self.miss_p50_us.append(nearest_rank(misses, 50) if misses.size else 0.0)
        self.passes += 1
        self.sent += len(loop.tickets)
        self.answered += loop.ok
        self.digests.add(loop.plans_digest)
        self.late += int(np.count_nonzero(loop.late_s > 1e-3))
        self.max_late_ms = max(self.max_late_ms, float(loop.late_s.max() * 1e3))

    @property
    def late_share(self) -> float:
        """Sends more than 1 ms late, over all passes."""
        return self.late / self.sent if self.sent else 0.0


def open_loop(controller: Any, requests: Sequence[Any], rate: float) -> OpenLoop:
    """Send ``requests`` at ``rate`` per second; time each until done.

    Request ``i`` is due ``i / rate`` seconds after the start.  While
    waiting for the next due time the loop polls the controller, so batch
    groups flush on their timeout.  A shed or failed request never gets a
    latency (it reads as infinite).
    """
    clock = CLOCK
    count = len(requests)
    interval = 1.0 / rate
    latency = np.full(count, np.inf)
    late = np.zeros(count)
    hits = np.zeros(count, dtype=bool)
    tickets: list = [None] * count
    pending: List[int] = []

    def sweep(now: float) -> List[int]:
        waiting = []
        for index in pending:
            ticket = tickets[index]
            if not ticket.done:
                waiting.append(index)
            elif ticket.status == "ok":
                latency[index] = now - (start + index * interval)
        return waiting

    start = clock()
    for index, request in enumerate(requests):
        due = start + index * interval
        now = clock()
        while now < due:
            controller.poll()
            if pending:
                pending = sweep(clock())
            now = clock()
        late[index] = now - due
        ticket = controller.submit(request)
        tickets[index] = ticket
        if ticket.done:
            hits[index] = ticket.cache_hit
            if ticket.status == "ok":
                latency[index] = clock() - due
        else:
            pending.append(index)
        if pending:
            pending = sweep(clock())
    controller.flush()
    pending = sweep(clock())
    ok = sum(1 for ticket in tickets if ticket.status == "ok")
    digest, mean_paging = _plans_digest(tickets)
    return OpenLoop(
        tickets=tickets,
        latency_us=latency * 1e6,
        late_s=late,
        hits=hits,
        ok=ok,
        plans_digest=digest,
        mean_expected_paging=mean_paging,
    )


def _plans_digest(tickets: Sequence[Any]) -> Tuple[str, float]:
    """SHA-256 over every answered plan, in request order, and their mean EP."""
    digest = hashlib.sha256()
    encoded: Dict[int, bytes] = {}
    total = 0.0
    answered = 0
    for ticket in tickets:
        plan = ticket.plan
        if plan is None:
            digest.update(b"-")
            continue
        key = id(plan)
        if key not in encoded:
            encoded[key] = repr(
                (plan.order, plan.group_sizes, float(plan.expected_paging).hex())
            ).encode()
        digest.update(encoded[key])
        total += float(plan.expected_paging)
        answered += 1
    return digest.hexdigest(), total / answered if answered else 0.0


def verify_plans(
    tickets: Sequence[Any], hits: np.ndarray, seed: int, per_kind: int
) -> List[int]:
    """Indices of sampled tickets whose plan differs from a fresh solve.

    Samples up to ``per_kind`` cache misses and as many hits, seeded; a
    fresh ``heuristic-batch`` solve of the request's own instance must give
    the same order, group sizes and expected paging, bit for bit.
    """
    from repro.service import request_instance
    from repro.solvers import get_solver

    solver = get_solver("heuristic-batch")
    rng = np.random.default_rng(seed)
    answered = np.array([ticket.status == "ok" for ticket in tickets])
    sample: List[int] = []
    for mask in (answered & ~hits, answered & hits):
        candidates = np.flatnonzero(mask)
        if candidates.size:
            take = min(per_kind, candidates.size)
            sample.extend(int(i) for i in rng.choice(candidates, size=take, replace=False))
    mismatches = []
    for index in sorted(sample):
        ticket = tickets[index]
        fresh = solver(request_instance(ticket.request))
        plan = ticket.plan
        if (
            tuple(fresh.extras["order"]) != plan.order
            or tuple(fresh.extras["group_sizes"]) != plan.group_sizes
            # bit-identity is the claim under test, so the comparison is exact
            or float(fresh.expected_paging) != float(plan.expected_paging)  # replint: disable=RPL001
        ):
            mismatches.append(index)
    return mismatches


# ---------------------------------------------------------------------------
# Joint paging/registration
# ---------------------------------------------------------------------------

class HMY(Workload):
    """The Hajek–Mitzel–Yang fixed point over distance thresholds.

    It draws no random numbers.  The seed relabels the cells: seed 0 keeps
    ``hexagonal_disk(4)``'s own labelling, any other seed applies a seeded
    permutation, which changes every input array but not the problem, so
    the fixed point is the same up to float summation order.  The latency
    unit is one registration-policy evaluation; within it, the renewal
    cycle of each start cell, each conditional instance and each batched
    planner call start a segment.
    """

    name = "hmy"
    default_seed = 0
    probes = (
        ("repro.cellnet.timevary", "evaluate_registration"),
        ("repro.cellnet.timevary", "registration_cycle"),
        ("repro.core.instance", "PagingInstance.__init__"),
        ("repro.solvers.registry", "RegisteredSolver.run_batch"),
    )
    COST = 0.43683355347198694
    pins = {"combined_cost": COST}
    expected_hooks = (
        "repro.cellnet.timevary:evaluate_registration",
        "repro.cellnet.timevary:registration_cycle",
        "repro.core.instance:PagingInstance.__init__",
        "repro.solvers.registry:RegisteredSolver.run_batch",
    )

    def setup(self, seed: int) -> SimpleNamespace:
        from repro.cellnet import (
            CellTopology,
            RandomWalk,
            hex_disk,
            random_walk_transition_matrix,
        )

        hexes = hex_disk(4)
        if seed != self.default_seed:
            order = np.random.default_rng(seed).permutation(len(hexes))
            hexes = [hexes[int(i)] for i in order]
        topology = CellTopology.from_hexes(hexes)
        matrix = random_walk_transition_matrix(
            RandomWalk(topology, stay_probability=0.4), topology
        )
        return SimpleNamespace(seed=seed, topology=topology, matrix=matrix)

    def execute(self, state: SimpleNamespace, job: Any) -> Any:
        from repro.cellnet import hmy_fixed_point

        return hmy_fixed_point(
            state.topology,
            state.matrix,
            kind="distance",
            candidates=[1, 2, 3, 4],
            max_rounds=3,
            call_rate=0.08,
        )

    def exact(self, state: SimpleNamespace, outcome: Any) -> Dict[str, Any]:
        return {
            "threshold": outcome.threshold,
            "combined_cost": outcome.evaluation.combined_cost,
            "converged": outcome.converged,
            "trajectory_costs": list(outcome.costs),
        }

    def units(self, state: SimpleNamespace, outcome: Any, results: list) -> float:
        return float(sum(evaluation.plans for evaluation in results))

    def quality(self, state: SimpleNamespace, exact: Dict[str, Any]) -> Dict[str, float]:
        return {
            "completed_share": 1.0 if exact["converged"] else 0.0,
            "wireless_cost": exact["combined_cost"],
        }

    def attempted_failed(self, state: SimpleNamespace, repeats: List[Repeat]) -> Tuple[int, int]:
        failed = sum(r.units for r in repeats if not r.exact["converged"])
        return int(sum(r.units for r in repeats)), int(failed)

    def checks(self, state: SimpleNamespace, exact: Dict[str, Any]) -> List[Check]:
        cost = exact["combined_cost"]
        return [
            _pin("fixed point converges", exact["converged"], True),
            _pin("fixed-point threshold", exact["threshold"], 2),
            (
                "fixed-point cost (any cell labelling)",
                abs(cost - self.COST) <= 1e-9,
                f"{cost!r} (expected {self.COST!r} within 1e-9)",
            ),
        ]

    def fingerprint(self, state: SimpleNamespace) -> str:
        return hashlib.sha256(state.matrix.tobytes()).hexdigest()


SERVICE = Service(requests=25_000, pins={"planned": 1221})
HMY_WORKLOAD = HMY()

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (CONTENDED, CONTENDED_LOSSY, ROAMING, SERVICE, HMY_WORKLOAD)
}
