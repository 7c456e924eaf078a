"""Unit and determinism tests for the step loop and the shared channels."""

import numpy as np
import pytest

from repro.cellnet import (
    CellOutage,
    CellTopology,
    CellularSimulator,
    ChannelScheduler,
    ConferenceCallRequest,
    EventEngine,
    FaultInjector,
    FaultModel,
    GravityMobility,
    LinkUsageMetrics,
    LocationAreaPlan,
    PendingCall,
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


def make_scheduler(
    positions,
    *,
    num_cells=3,
    capacity=1,
    carriers=1,
    faults=None,
    recovery=None,
    max_wait=8,
):
    """A scheduler over fixed device positions, with its metrics."""
    metrics = LinkUsageMetrics(contention=True)
    injector = None
    if faults is not None:
        injector = FaultInjector(faults, np.random.default_rng(0), metrics)
    scheduler = ChannelScheduler(
        metrics,
        num_cells=num_cells,
        capacity=capacity,
        carriers=carriers,
        max_wait=max_wait,
        device_cells=lambda: positions,
        on_found=lambda device, cell, time: None,
        injector=injector,
        recovery=recovery,
    )
    return scheduler, metrics


def make_call(cells, *, device=0, candidates=None, time=1):
    """A one-participant call that pages ``cells`` as one group."""
    return PendingCall.from_groups(
        ConferenceCallRequest(time=time, participants=(device,)),
        tuple(cells if candidates is None else candidates),
        [list(cells)],
    )


class TestEventEngine:
    def test_dispatch_order_time_then_priority_then_seq(self):
        """Steps in time order; in each, movement, arrivals, the round."""
        order = []

        class Round:
            def serve_round(self, time):
                order.append((time, PAGING_ROUND))

        EventEngine(
            lambda time: order.append((time, MOVEMENT)),
            lambda time: order.append((time, ARRIVAL)),
            Round(),
        ).run(horizon=2)
        assert order == [
            (1, MOVEMENT),
            (1, ARRIVAL),
            (1, PAGING_ROUND),
            (2, MOVEMENT),
            (2, ARRIVAL),
            (2, PAGING_ROUND),
        ]

    def test_same_kind_same_time_fifo(self):
        """Retries due at one step rejoin the queue in the order they parked."""
        # Each call pages its own cell, misses, and parks; the retries all
        # re-page cell 3, where the device is and which has one slot per
        # round, so one retry finds it per round.
        scheduler, _ = make_scheduler(
            [3],
            num_cells=5,
            faults=FaultModel(cell_page_loss={4: 1.0}),
            recovery=RecoveryPolicy(max_retries=1, backoff_base=2),
        )
        calls = [make_call([cell], candidates=[3]) for cell in range(3)]
        for call in calls:
            scheduler.admit(call)
        scheduler.serve_round(1)
        assert [call.retry_at for call in calls] == [3, 3, 3]
        scheduler.serve_round(2)
        paged = []
        for time in (3, 4, 5):
            scheduler.serve_round(time)
            paged.append([call.cells_paged for call in calls])
        assert paged == [[2, 1, 1], [2, 2, 1], [2, 2, 2]]

    def test_horizon_cuts_off_later_events(self):
        """``run(horizon)`` runs exactly the steps ``1..horizon``."""
        steps = []
        engine = EventEngine(steps.append, lambda time: None)
        engine.run(horizon=5)
        assert steps == [1, 2, 3, 4, 5]
        engine.run(horizon=0)
        assert steps == [1, 2, 3, 4, 5]

    def test_retry_pages_again_after_its_backoff(self):
        """Parked at step t with backoff w, a call pages again at t + w."""
        scheduler, _ = make_scheduler(
            [1],
            faults=FaultModel(cell_page_loss={2: 1.0}),
            recovery=RecoveryPolicy(max_retries=1, backoff_base=3),
        )
        call = make_call([0])
        scheduler.admit(call)
        scheduler.serve_round(4)
        assert (call.cells_paged, call.retries_used, call.retry_at) == (1, 1, 7)
        for time in (5, 6):
            scheduler.serve_round(time)
            assert call.cells_paged == 1
            assert scheduler.active_calls == 1
        # The retry's page goes out in the round of step 7 itself.
        scheduler.serve_round(7)
        assert call.cells_paged == 2
        assert call.phase_kinds[1] == "retry"


class TestChannelResource:
    """The per-cell page slots, kept by :class:`ChannelScheduler`."""

    def test_slots_are_capacity_times_carriers(self):
        scheduler, _ = make_scheduler([2], capacity=2, carriers=2)
        calls = [make_call([0]) for _ in range(5)] + [make_call([1])]
        for call in calls:
            scheduler.admit(call)
        scheduler.serve_round(1)
        # four slots on cell 0; the fifth call is starved, cell 1 unaffected
        assert [call.cells_paged for call in calls] == [1, 1, 1, 1, 0, 1]
        assert calls[4].waited == 1

    def test_begin_round_resets_usage(self):
        """Each round starts with every cell's slots free again."""
        scheduler, _ = make_scheduler([0, 2])
        first, second = make_call([0], device=0), make_call([0], device=1)
        scheduler.admit(first)
        scheduler.admit(second)
        scheduler.serve_round(1)
        assert (first.cells_paged, second.cells_paged) == (1, 0)
        scheduler.serve_round(2)
        assert second.cells_paged == 1

    def test_down_cell_offers_zero_slots(self):
        """A cell takes no page while its outage window is active."""
        scheduler, metrics = make_scheduler(
            [2], capacity=4, faults=FaultModel(outages=(CellOutage(1, 2, 3),))
        )
        call = make_call([1])
        scheduler.admit(call)
        scheduler.serve_round(2)
        assert (call.cells_paged, call.waited) == (0, 1)
        scheduler.serve_round(3)
        assert call.cells_paged == 1
        assert metrics.outage_pages == 0

    def test_occupancy_snapshot(self):
        """A round's slots used per cell reach the occupancy histogram."""
        scheduler, metrics = make_scheduler([1], capacity=2)
        for cells in ([0], [0], [2]):
            scheduler.admit(make_call(cells))
        scheduler.serve_round(1)
        assert metrics.channel_occupancy == {2: 1, 0: 1, 1: 1}

    def test_validation(self):
        with pytest.raises(SimulationError):
            make_scheduler([0], num_cells=0)
        with pytest.raises(SimulationError):
            make_scheduler([0], capacity=0)
        with pytest.raises(SimulationError):
            make_scheduler([0], carriers=0)

    def test_negative_max_wait_is_refused(self):
        with pytest.raises(SimulationError):
            make_scheduler([0], max_wait=-1)

    def test_outage_cell_off_the_ledger_is_refused(self):
        """Direct construction checks what the simulator checks."""
        with pytest.raises(SimulationError):
            make_scheduler(
                [0], num_cells=3, faults=FaultModel(outages=(CellOutage(3, 0, 5),))
            )


class TestAdmissionChecks:
    """``admit`` refuses a call that would page or read off its arrays."""

    @pytest.mark.parametrize(
        "cells, candidates",
        [
            ([-1], None),
            ([5], None),
            ([1], [1, -1]),
            ([1], [1, 3]),
            ([-1], [0]),
            ([5], [0]),
        ],
        ids=[
            "negative-cell", "cell-past-the-ledger", "negative-candidate",
            "candidate-past-the-ledger", "negative-phase-cell",
            "phase-cell-past-the-ledger",
        ],
    )
    def test_cell_off_the_ledger(self, cells, candidates):
        scheduler, metrics = make_scheduler([2], num_cells=3)
        with pytest.raises(SimulationError):
            scheduler.admit(make_call(cells, candidates=candidates))
        assert scheduler.active_calls == 0
        assert metrics.offered_calls == 0

    @pytest.mark.parametrize("device", [-1, 1], ids=["negative", "past-the-end"])
    def test_participant_without_a_position(self, device):
        scheduler, metrics = make_scheduler([2], num_cells=3)
        with pytest.raises(SimulationError):
            scheduler.admit(make_call([0], device=device))
        assert scheduler.active_calls == 0
        assert metrics.offered_calls == 0

    def test_positions_may_not_shrink_under_queued_calls(self):
        positions = [2, 0]
        scheduler, _ = make_scheduler(positions, num_cells=3)
        scheduler.admit(make_call([0], device=1))
        positions.pop()
        with pytest.raises(SimulationError):
            scheduler.serve_round(1)

    @pytest.mark.parametrize("sizes", [[1, 0, 1], [1], [3]], ids=["empty", "short", "long"])
    def test_group_sizes_must_cover_the_schedule(self, sizes):
        scheduler, _ = make_scheduler([2], num_cells=3)
        request = ConferenceCallRequest(time=1, participants=(0,))
        with pytest.raises(SimulationError):
            scheduler.admit(PendingCall(request, (0, 1), [0, 1], sizes))

    def test_one_slot_cell_carries_one_page(self):
        """With the off-ledger call refused, cell 2's one slot pages once."""
        scheduler, metrics = make_scheduler([2], num_cells=3)
        with pytest.raises(SimulationError):
            scheduler.admit(make_call([-1]))
        call = make_call([2])
        scheduler.admit(call)
        scheduler.serve_round(1)
        assert call.cells_paged == 1
        assert metrics.channel_occupancy == {0: 2, 1: 1}


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

    @pytest.mark.parametrize(
        "split",
        [((5, 40), (10, 20)), ((5, 20), (20, 40))],
        ids=["overlapping", "back-to-back"],
    )
    def test_split_outage_equals_its_union(self, split):
        """A cell stays down while any of its outage windows is active."""
        def run(windows):
            faults = FaultModel(
                outages=tuple(CellOutage(0, start, end) for start, end in windows)
            )
            return build_contention_simulator(
                call_rate=1.0, horizon=60, seed=3, faults=faults
            ).run().summary()

        union = run([(5, 40)])
        assert run(split) == union
        assert union["outage_pages"] == 0

    def test_config_validation(self):
        with pytest.raises(SimulationError):
            SimulationConfig(channel_capacity=0)
        with pytest.raises(SimulationError):
            SimulationConfig(carriers=0)
        with pytest.raises(SimulationError):
            SimulationConfig(max_wait=-1)
        with pytest.raises(SimulationError):
            SimulationConfig(arrival_mode="weibull")


def run_tutorial_scenario(**overrides):
    """docs/tutorial.md section 5: 37 cells, 4 LAs, 6 gravity walkers, seed 1."""
    rng = np.random.default_rng(1)
    topology = CellTopology.hexagonal_disk(3)
    areas = LocationAreaPlan.by_bfs(topology, 4)
    pull = rng.uniform(0.5, 3.0, size=topology.num_cells)
    walkers = [GravityMobility(topology, pull) for _ in range(6)]
    config = SimulationConfig(
        horizon=800, call_rate=0.08, max_paging_rounds=3, reporting="la", **overrides
    )
    return CellularSimulator(topology, areas, walkers, config, rng=rng).run().metrics


class TestContendedCostScope:
    """Where the contended path's paging cost departs from Lemma 2.1's.

    The scheduler stops paging a group once every participant has
    answered; the synchronous search, as Lemma 2.1 prices a strategy,
    pages and charges the whole group.  With capacity to spare nothing is
    deferred, so the contended path runs the same calls and pays less for
    them, most of all under blanket paging's one big group.
    """

    def test_blanket_pages_fewer_cells_when_contended(self):
        synchronous = run_tutorial_scenario(pager="blanket")
        contended = run_tutorial_scenario(pager="blanket", channel_capacity=99)
        calls = lambda metrics: sorted(  # noqa: E731 - local shorthand
            (record.time, record.participants) for record in metrics.call_records
        )
        assert calls(contended) == calls(synchronous)
        assert len(calls(contended)) == 61
        assert contended.deferred_steps == 0
        assert synchronous.fallback_searches == contended.fallback_searches == 0
        assert (synchronous.cells_paged, contended.cells_paged) == (1198, 930)
