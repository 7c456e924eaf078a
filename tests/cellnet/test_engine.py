"""Unit and determinism tests for the event-driven contention engine."""

import numpy as np
import pytest

from repro.cellnet import (
    CellOutage,
    CellTopology,
    CellularSimulator,
    ChannelResource,
    Event,
    EventEngine,
    FaultModel,
    LocationAreaPlan,
    RandomWalk,
    RecoveryPolicy,
    SimulationConfig,
)
from repro.cellnet.engine import (
    ARRIVAL,
    MOVEMENT,
    OUTAGE_END,
    OUTAGE_START,
    PAGING_ROUND,
)
from repro.errors import SimulationError
from repro.obs import MemorySink, Tracer, use_tracer


class TestEventEngine:
    def test_unknown_kind_rejected(self):
        with pytest.raises(SimulationError):
            Event(1, "teleport")
        engine = EventEngine()
        with pytest.raises(SimulationError):
            engine.on("teleport", lambda event: None)

    def test_negative_time_rejected(self):
        with pytest.raises(SimulationError):
            Event(-1, MOVEMENT)

    def test_event_is_an_immutable_record(self):
        event = Event(3, ARRIVAL, "payload")
        assert (event.time, event.kind, event.payload) == (3, ARRIVAL, "payload")
        assert event == Event(3, ARRIVAL, "payload")
        assert Event(3, ARRIVAL).payload is None
        with pytest.raises(AttributeError):
            event.time = 4

    def test_dispatch_order_time_then_priority_then_seq(self):
        engine = EventEngine()
        order = []
        for kind in (MOVEMENT, ARRIVAL, PAGING_ROUND, OUTAGE_START):
            engine.on(kind, lambda event: order.append((event.time, event.kind)))
        # scheduled deliberately out of order
        engine.schedule(Event(2, MOVEMENT))
        engine.schedule(Event(1, PAGING_ROUND))
        engine.schedule(Event(1, MOVEMENT))
        engine.schedule(Event(1, OUTAGE_START))
        engine.schedule(Event(1, ARRIVAL))
        engine.run(horizon=5)
        assert order == [
            (1, OUTAGE_START),
            (1, MOVEMENT),
            (1, ARRIVAL),
            (1, PAGING_ROUND),
            (2, MOVEMENT),
        ]

    def test_same_kind_same_time_fifo(self):
        engine = EventEngine()
        seen = []
        engine.on(ARRIVAL, lambda event: seen.append(event.payload))
        for tag in ("a", "b", "c"):
            engine.schedule(Event(3, ARRIVAL, tag))
        engine.run(horizon=3)
        assert seen == ["a", "b", "c"]

    def test_cannot_schedule_into_the_past(self):
        engine = EventEngine()
        engine.on(MOVEMENT, lambda event: None)
        engine.schedule(Event(5, MOVEMENT))
        engine.run(horizon=5)
        with pytest.raises(SimulationError):
            engine.schedule(Event(2, MOVEMENT))

    def test_horizon_cuts_off_later_events(self):
        engine = EventEngine()
        fired = []
        engine.on(MOVEMENT, lambda event: fired.append(event.time))
        engine.schedule(Event(1, MOVEMENT))
        engine.schedule(Event(9, MOVEMENT))
        engine.run(horizon=5)
        assert fired == [1]
        assert engine.queue_depth == 1
        assert engine.events_dispatched == 1

    def test_missing_handler_is_an_error(self):
        engine = EventEngine()
        engine.schedule(Event(1, MOVEMENT))
        with pytest.raises(SimulationError):
            engine.run(horizon=1)


class TestChannelResource:
    def test_slots_are_capacity_times_carriers(self):
        resource = ChannelResource(num_cells=3, capacity=2, carriers=2)
        resource.begin_round()
        assert [resource.acquire(0) for _ in range(5)] == [
            True, True, True, True, False,
        ]
        assert resource.used(0) == 4
        assert resource.acquire(1)  # other cells unaffected

    def test_begin_round_resets_usage(self):
        resource = ChannelResource(num_cells=2, capacity=1)
        resource.begin_round()
        assert resource.acquire(0)
        assert not resource.acquire(0)
        resource.begin_round()
        assert resource.acquire(0)

    def test_down_cell_offers_zero_slots(self):
        resource = ChannelResource(num_cells=2, capacity=4)
        resource.begin_round()
        resource.set_down(1, True)
        assert not resource.acquire(1)
        resource.set_down(1, False)
        assert resource.acquire(1)

    def test_occupancy_snapshot(self):
        resource = ChannelResource(num_cells=3, capacity=2)
        resource.begin_round()
        resource.acquire(0)
        resource.acquire(0)
        resource.acquire(2)
        assert resource.occupancy_snapshot() == [2, 0, 1]
        assert resource.used_total == 3

    def test_validation(self):
        with pytest.raises(SimulationError):
            ChannelResource(num_cells=0, capacity=1)
        with pytest.raises(SimulationError):
            ChannelResource(num_cells=1, capacity=0)
        with pytest.raises(SimulationError):
            ChannelResource(num_cells=1, capacity=1, carriers=0)


def build_contention_simulator(
    *,
    capacity=1,
    carriers=1,
    call_rate=0.6,
    horizon=250,
    seed=11,
    devices=8,
    **overrides,
):
    rng = np.random.default_rng(seed)
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    models = [RandomWalk(topology, stay_probability=0.3) for _ in range(devices)]
    config = SimulationConfig(
        horizon=horizon,
        call_rate=call_rate,
        max_paging_rounds=3,
        channel_capacity=capacity,
        carriers=carriers,
        arrival_mode="poisson",
        **overrides,
    )
    return CellularSimulator(topology, plan, models, config, rng=rng)


class TestContentionBehavior:
    def test_same_seed_runs_are_bit_identical(self):
        first = build_contention_simulator().run()
        second = build_contention_simulator().run()
        assert first.summary() == second.summary()
        records = lambda report: [  # noqa: E731 - local shorthand
            (r.time, r.participants, r.cells_paged, r.rounds_used,
             r.setup_latency, r.retries)
            for r in report.metrics.call_records
        ]
        assert records(first) == records(second)

    def test_every_offered_call_is_accounted(self):
        report = build_contention_simulator(call_rate=1.0).run()
        metrics = report.metrics
        assert metrics.offered_calls > 0
        assert metrics.calls_handled + metrics.blocked_calls == metrics.offered_calls

    def test_blocking_rises_with_offered_load(self):
        low = build_contention_simulator(call_rate=0.2).run()
        high = build_contention_simulator(call_rate=1.5).run()
        assert (
            high.metrics.blocking_probability
            > low.metrics.blocking_probability
        )
        assert high.metrics.blocking_probability > 0.1

    def test_blocking_falls_with_more_carriers(self):
        single = build_contention_simulator(call_rate=1.5, carriers=1).run()
        triple = build_contention_simulator(call_rate=1.5, carriers=3).run()
        assert (
            triple.metrics.blocking_probability
            < single.metrics.blocking_probability
        )

    def test_latency_percentiles_monotone(self):
        metrics = build_contention_simulator().run().metrics
        p50 = metrics.setup_latency_percentile(50)
        p95 = metrics.setup_latency_percentile(95)
        p99 = metrics.setup_latency_percentile(99)
        assert 0 <= p50 <= p95 <= p99

    def test_contention_summary_keys_present(self):
        summary = build_contention_simulator(horizon=60).run().summary()
        for key in (
            "offered_calls",
            "blocked_calls",
            "blocking_probability",
            "deferred_steps",
            "setup_latency_p50",
            "setup_latency_p95",
            "setup_latency_p99",
            "mean_channel_occupancy",
        ):
            assert key in summary

    def test_outage_interacts_with_contention(self):
        faults = FaultModel(outages=(CellOutage(cell=0, start=1, end=400),))
        clean = build_contention_simulator(call_rate=1.0).run()
        outaged = build_contention_simulator(
            call_rate=1.0,
            faults=faults,
            recovery=RecoveryPolicy(max_retries=1, backoff_base=1),
        ).run()
        # a dead cell sheds capacity: more calls starve past the wait budget
        assert outaged.metrics.blocked_calls > clean.metrics.blocked_calls
        assert (
            outaged.metrics.blocking_probability
            > clean.metrics.blocking_probability
        )

    def test_retries_compete_for_slots(self):
        report = build_contention_simulator(
            call_rate=0.8,
            faults=FaultModel(page_loss=0.3),
            recovery=RecoveryPolicy(max_retries=2, backoff_base=2),
        ).run()
        assert report.metrics.retry_rounds > 0

    def test_blanket_pager_under_contention(self):
        report = build_contention_simulator(pager="blanket", horizon=120).run()
        assert report.metrics.calls_handled > 0

    def test_engine_obs_events_emitted(self):
        sink = MemorySink()
        tracer = Tracer(sink)
        with use_tracer(tracer, close=False):
            build_contention_simulator(horizon=80).run()
        tracer.flush()
        names = {event.get("name") for event in sink.events}
        assert f"engine.events.{MOVEMENT}" in names
        assert f"engine.events.{ARRIVAL}" in names
        assert f"engine.events.{PAGING_ROUND}" in names
        assert "engine.queue_depth" in names
        assert "engine.pages_sent" in names
        assert "engine.slot_occupancy" in names

    def test_outage_transitions_counted_per_event(self):
        faults = FaultModel(outages=(
            CellOutage(cell=0, start=5, end=20),
            CellOutage(cell=3, start=10, end=30),
        ))
        sink = MemorySink()
        tracer = Tracer(sink)
        with use_tracer(tracer, close=False):
            build_contention_simulator(horizon=60, faults=faults).run()
        tracer.flush()
        counters = {
            event["name"]: event["value"]
            for event in sink.events
            if event.get("event") == "counter"
        }
        assert counters[f"engine.events.{OUTAGE_START}"] == 2
        assert counters[f"engine.events.{OUTAGE_END}"] == 2
        assert "engine.outage_transitions" not in counters

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(channel_capacity=0)
        with pytest.raises(SimulationError):
            SimulationConfig(carriers=0)
        with pytest.raises(SimulationError):
            SimulationConfig(max_wait=-1)
        with pytest.raises(SimulationError):
            SimulationConfig(arrival_mode="weibull")
