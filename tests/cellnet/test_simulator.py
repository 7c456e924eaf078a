"""Unit and behavior tests for the cellular simulator."""

import numpy as np
import pytest

from repro.cellnet import (
    CellTopology,
    CellularSimulator,
    FaultModel,
    LocationAreaPlan,
    RandomWalk,
    RandomWaypoint,
    SimulationConfig,
)
from repro.cellnet.mobility import BoundWalks
from repro.errors import SimulationError


def build_simulator(pager="heuristic", reporting="la", seed=11, **config_overrides):
    rng = np.random.default_rng(seed)
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
    config = SimulationConfig(
        horizon=config_overrides.pop("horizon", 200),
        call_rate=config_overrides.pop("call_rate", 0.1),
        max_paging_rounds=3,
        reporting=reporting,
        pager=pager,
        **config_overrides,
    )
    return CellularSimulator(topology, plan, models, config, rng=rng)


class TestConfig:
    def test_rejects_unknown_pager(self):
        with pytest.raises(SimulationError, match="pager"):
            SimulationConfig(pager="nope")

    def test_rejects_unknown_reporting(self):
        with pytest.raises(SimulationError, match="reporting"):
            SimulationConfig(reporting="nope")

    def test_rejects_bad_horizon(self):
        with pytest.raises(SimulationError):
            SimulationConfig(horizon=0)

    @pytest.mark.parametrize("smoothing", [-0.5, float("nan"), float("inf")])
    def test_rejects_negative_or_non_finite_prior_smoothing(self, smoothing):
        with pytest.raises(SimulationError, match="prior_smoothing"):
            SimulationConfig(prior_smoothing=smoothing)

    def test_zero_prior_smoothing_is_valid(self):
        report = build_simulator(prior_smoothing=0.0, horizon=50).run()
        assert report.metrics.calls_handled > 0


class TestRun:
    def test_all_calls_succeed(self):
        simulator = build_simulator()
        report = simulator.run()
        assert report.metrics.calls_handled > 0
        for record in report.metrics.call_records:
            assert record.cells_paged >= record.participants

    def test_la_reporting_never_needs_fallback(self):
        """With LA-crossing reports the registry is always LA-accurate."""
        report = build_simulator(reporting="la").run()
        assert report.metrics.fallback_searches == 0

    def test_always_reporting_pages_one_cell_per_device(self):
        report = build_simulator(reporting="always").run()
        for record in report.metrics.call_records:
            assert record.cells_paged <= record.participants

    def test_never_reporting_generates_no_reports(self):
        report = build_simulator(reporting="never").run()
        assert report.metrics.report_messages == 0

    def test_heuristic_beats_blanket_on_same_stream(self):
        blanket = build_simulator(pager="blanket").run()
        heuristic = build_simulator(pager="heuristic").run()
        assert heuristic.metrics.calls_handled == blanket.metrics.calls_handled
        assert (
            heuristic.metrics.mean_cells_per_call
            <= blanket.metrics.mean_cells_per_call
        )

    def test_round_budget_respected(self):
        report = build_simulator().run()
        for record in report.metrics.call_records:
            # LA-accurate registry means no fallback round is ever added.
            assert record.rounds_used <= 3

    def test_confirmed_location_shrinks_search(self):
        """After a call finds a device, an immediate second search is cheap."""
        simulator = build_simulator(call_rate=0.5, horizon=100)
        report = simulator.run()
        cheap_calls = [
            record
            for record in report.metrics.call_records
            if record.cells_paged == record.participants
        ]
        assert cheap_calls, "confirmations should occasionally make searches exact"

    def test_initial_cells_honored(self):
        rng = np.random.default_rng(0)
        topology = CellTopology.hexagonal_disk(1)
        plan = LocationAreaPlan.single_area(topology.num_cells)
        models = [RandomWalk(topology) for _ in range(2)]
        config = SimulationConfig(horizon=1, call_rate=0.0)
        simulator = CellularSimulator(
            topology, plan, models, config, rng=rng, initial_cells=[2, 3]
        )
        assert simulator.registry.lookup(0).reported_cell == 2
        assert simulator.registry.lookup(1).reported_cell == 3

    def test_estimated_prior_normalized(self):
        simulator = build_simulator(horizon=50)
        simulator.run()
        prior = simulator.estimated_prior(0)
        assert prior.sum() == pytest.approx(1.0)
        assert all(prior > 0)

    def test_summary_keys(self):
        report = build_simulator().run()
        summary = report.summary()
        for key in ("calls", "reports", "cells_paged", "devices", "cells"):
            assert key in summary


class TestInvariants:
    def test_metrics_consistent_with_call_records(self):
        report = build_simulator(call_rate=0.2).run()
        metrics = report.metrics
        assert metrics.cells_paged == sum(
            record.cells_paged for record in metrics.call_records
        )
        assert metrics.calls_handled == len(metrics.call_records)
        assert sum(metrics.rounds_histogram.values()) == metrics.calls_handled
        assert metrics.total_wireless_messages == (
            metrics.report_messages + metrics.cells_paged
        )

    def test_registry_la_accurate_under_la_reporting(self):
        simulator = build_simulator(reporting="la")
        simulator.run()
        # Final check: every device's true cell is inside its reported LA.
        plan_area = simulator._plan.area_of  # noqa: SLF001 - test introspection
        for device in simulator.registry.known_devices():
            record = simulator.registry.lookup(device)
            true_cell = simulator.device_cell(device)
            assert plan_area(true_cell) == record.reported_area

    def test_each_call_pages_at_least_participants(self):
        report = build_simulator(call_rate=0.3).run()
        for record in report.metrics.call_records:
            assert record.cells_paged >= record.participants
            assert record.rounds_used >= 1

    def test_distance_reporting_fallbacks_never_lose_devices(self):
        report = build_simulator(reporting="distance", call_rate=0.2).run()
        # Every call record exists <=> every search eventually succeeded.
        assert report.metrics.calls_handled == len(report.metrics.call_records)

    def test_timer_reporting_search_succeeds_via_full_candidates(self):
        report = build_simulator(reporting="timer", call_rate=0.2).run()
        for record in report.metrics.call_records:
            assert not record.used_fallback  # candidates = whole network


class TestPriorModes:
    def test_rejects_unknown_mode(self):
        with pytest.raises(SimulationError, match="prior mode"):
            SimulationConfig(prior_mode="psychic")

    def test_uniform_mode_never_learns(self):
        simulator = build_simulator(horizon=60, prior_mode="uniform")
        simulator.run()
        prior = simulator.estimated_prior(0)
        assert np.allclose(prior, prior[0])

    def test_online_beats_uniform_prior(self):
        online = build_simulator(call_rate=0.2, horizon=300).run()
        uniform = build_simulator(
            call_rate=0.2, horizon=300, prior_mode="uniform"
        ).run()
        assert (
            online.metrics.mean_cells_per_call
            <= uniform.metrics.mean_cells_per_call
        )


class LegacyRingSimulator(CellularSimulator):
    """The pre-fix candidate ring: pages ``hop_distance <= threshold``.

    ``DistanceReport`` fires at ``>= threshold``, so un-reported drift is
    strictly inside the ring; the outermost ring the old code paged can
    never hold the device in a fault-free run.
    """

    def _candidate_cells(self, device, time):
        record = self.registry.lookup(device)
        config = self._config  # noqa: SLF001 - deliberate legacy replay
        if config.reporting == "distance" and record.confirmed_cell is None:
            radius = config.distance_threshold
            return tuple(
                cell
                for cell in range(self._topology.num_cells)  # noqa: SLF001
                if self._topology.hop_distance(record.reported_cell, cell)  # noqa: SLF001
                <= radius
            )
        return super()._candidate_cells(device, time)


class TestDistanceRingFix:
    """Regression for the candidate-ring off-by-one (ISSUE 9 headline)."""

    def build(self, simulator_cls, seed=11):
        rng = np.random.default_rng(seed)
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3)
        models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
        config = SimulationConfig(
            horizon=200, call_rate=0.1, max_paging_rounds=3,
            reporting="distance", pager="heuristic",
        )
        return simulator_cls(topology, plan, models, config, rng=rng)

    def test_tight_ring_pages_strictly_fewer_cells_at_equal_found_rate(self):
        fixed = self.build(CellularSimulator).run()
        legacy = self.build(LegacyRingSimulator).run()
        # identical call stream, every device found in both runs...
        assert fixed.metrics.calls_handled == legacy.metrics.calls_handled
        assert fixed.metrics.calls_handled > 0
        assert all(
            record.failed_devices == 0 for record in fixed.metrics.call_records
        )
        assert fixed.metrics.fallback_searches == 0
        # ...for strictly fewer cells paged: the boundary ring was waste.
        assert fixed.metrics.cells_paged < legacy.metrics.cells_paged

    def test_device_always_inside_open_ring_without_faults(self):
        """The invariant the fix relies on, checked against ground truth."""
        simulator = self.build(CellularSimulator)
        simulator.run()
        threshold = simulator._config.distance_threshold  # noqa: SLF001
        for device in simulator.registry.known_devices():
            record = simulator.registry.lookup(device)
            distance = simulator._topology.hop_distance(  # noqa: SLF001
                record.reported_cell, simulator.device_cell(device)
            )
            assert distance < threshold


class TestConditionalPriors:
    def test_config_accepts_conditional(self):
        config = SimulationConfig(prior_mode="conditional")
        assert config.prior_mode == "conditional"

    def test_rejects_nonpositive_transition_samples(self):
        with pytest.raises(SimulationError, match="transition_samples"):
            SimulationConfig(transition_samples=0)

    def test_conditional_beats_online_under_distance_reporting(self):
        """The acceptance bar: evolved beliefs page fewer cells per call."""
        online = build_simulator(
            pager="heuristic", reporting="distance", horizon=300
        ).run()
        conditional = build_simulator(
            pager="heuristic", reporting="distance", horizon=300,
            prior_mode="conditional",
        ).run()
        assert conditional.metrics.calls_handled == online.metrics.calls_handled
        assert (
            conditional.metrics.mean_cells_per_call
            < online.metrics.mean_cells_per_call
        )

    def test_conditional_prior_is_normalized_and_evolves(self):
        simulator = build_simulator(
            reporting="distance", horizon=50, prior_mode="conditional"
        )
        simulator.run()
        fresh = simulator.estimated_prior(0, time=50)
        assert fresh.sum() == pytest.approx(1.0)
        record = simulator.registry.lookup(0)
        # at the report instant the belief is a point mass at the reported
        # cell; it spreads as the report ages
        at_report = simulator.estimated_prior(0, time=record.updated_at)
        assert at_report[record.reported_cell] == pytest.approx(1.0)
        aged = simulator.estimated_prior(0, time=record.updated_at + 10)
        assert aged[record.reported_cell] < 1.0
        assert aged.sum() == pytest.approx(1.0)

    def test_conditional_mode_is_deterministic(self):
        first = build_simulator(
            reporting="distance", prior_mode="conditional"
        ).run()
        second = build_simulator(
            reporting="distance", prior_mode="conditional"
        ).run()
        assert first.metrics == second.metrics

    def test_conditional_mode_works_with_stateful_models(self):
        """RandomWaypoint kernels are estimated empirically, then reset."""
        from repro.cellnet import RandomWaypoint

        rng = np.random.default_rng(5)
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3)
        models = RandomWaypoint(topology).clone_for_devices(3)
        config = SimulationConfig(
            horizon=120, call_rate=0.15, reporting="timer",
            prior_mode="conditional", transition_samples=500,
        )
        report = CellularSimulator(topology, plan, models, config, rng=rng).run()
        assert report.metrics.calls_handled > 0

    def test_non_conditional_streams_unchanged(self):
        """Adding the machinery must not shift legacy rng streams."""
        report = build_simulator(reporting="distance").run()
        again = build_simulator(reporting="distance").run()
        assert report.metrics == again.metrics


class TestCallDurations:
    def test_rejects_negative_duration(self):
        with pytest.raises(SimulationError):
            SimulationConfig(mean_call_duration=-1)

    def test_in_call_tracking_cheapens_searches(self):
        """Ongoing calls keep devices located, so searches get cheaper."""
        instant = build_simulator(call_rate=0.3, horizon=300).run()
        tracked = build_simulator(
            call_rate=0.3, horizon=300, mean_call_duration=30
        ).run()
        assert tracked.metrics.calls_handled > 0
        assert (
            tracked.metrics.mean_cells_per_call
            < instant.metrics.mean_cells_per_call
        )

    def test_zero_duration_is_legacy_behavior(self):
        base = build_simulator(call_rate=0.2).run()
        explicit = build_simulator(call_rate=0.2, mean_call_duration=0).run()
        assert (
            base.metrics.mean_cells_per_call
            == explicit.metrics.mean_cells_per_call
        )


class TestDeterminism:
    """Every stochastic path flows through the instance Generator: running
    the same configuration twice from the same seed must reproduce the full
    report, for every pager/reporting combination and with faults on."""

    @pytest.mark.parametrize("pager", ["blanket", "heuristic", "adaptive"])
    @pytest.mark.parametrize("reporting", ["la", "always", "distance"])
    def test_same_seed_same_report(self, pager, reporting):
        first = build_simulator(pager=pager, reporting=reporting).run()
        second = build_simulator(pager=pager, reporting=reporting).run()
        assert first.metrics == second.metrics
        assert first.summary() == second.summary()

    def test_same_seed_same_report_with_durations(self):
        first = build_simulator(call_rate=0.3, mean_call_duration=20).run()
        second = build_simulator(call_rate=0.3, mean_call_duration=20).run()
        assert first.metrics == second.metrics

    def test_different_seeds_differ(self):
        first = build_simulator(seed=11).run()
        second = build_simulator(seed=12).run()
        assert first.metrics != second.metrics


class _Scalar(RandomWalk):
    """Same walk; not an exact RandomWalk, so it is stepped one at a time."""


def _run_walks(model_type, *, shared=False, bit_generator=np.random.PCG64, **overrides):
    rng = np.random.Generator(bit_generator(31))
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    if shared:
        models = [model_type(topology, stay_probability=0.3)] * 6
    else:
        models = [
            model_type(topology, stay_probability=stay)
            for stay in (0.0, 0.3, 0.3, 0.5, 0.7, 0.9)
        ]
    config = SimulationConfig(
        horizon=overrides.pop("horizon", 150),
        call_rate=overrides.pop("call_rate", 0.3),
        **overrides,
    )
    report = CellularSimulator(topology, plan, models, config, rng=rng).run()
    return report.summary(), rng.random(8).tolist()


@pytest.fixture
def batches(monkeypatch):
    """Counts the steps that take the batched movement path."""
    calls = []
    step = BoundWalks.step

    def counting(bound):
        calls.append(1)
        return step(bound)

    monkeypatch.setattr(BoundWalks, "step", counting)
    return calls


class TestBatchedMovement:
    """Batched and scalar movement produce the same run and stream."""

    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"channel_capacity": 1, "call_rate": 0.8, "arrival_mode": "poisson"},
            {"shared": True, "prior_mode": "conditional", "reporting": "distance"},
        ],
        ids=["legacy", "contended", "conditional-shared"],
    )
    def test_batch_equals_scalar_loop(self, batches, overrides):
        batched = _run_walks(RandomWalk, **overrides)
        assert len(batches) == 150
        scalar = _run_walks(_Scalar, **overrides)
        assert len(batches) == 150
        assert batched == scalar

    def test_update_loss_keeps_scalar_loop(self, batches):
        faults = FaultModel(update_loss=0.2)
        assert _run_walks(RandomWalk, faults=faults) == _run_walks(
            _Scalar, faults=faults
        )
        assert batches == []

    def test_other_fault_models_keep_the_batch(self, batches):
        faults = FaultModel(page_loss=0.2)
        assert _run_walks(RandomWalk, faults=faults) == _run_walks(
            _Scalar, faults=faults
        )
        assert len(batches) == 150

    @pytest.mark.parametrize("bit_generator", [np.random.Philox, np.random.PCG64DXSM])
    def test_other_bit_generators_take_the_batch(self, batches, bit_generator):
        batched = _run_walks(RandomWalk, bit_generator=bit_generator)
        assert len(batches) == 150
        assert batched == _run_walks(_Scalar, bit_generator=bit_generator)

    def test_mixed_models_keep_scalar_loop(self, batches):
        topology = CellTopology.hexagonal_disk(2)
        models = [RandomWalk(topology), RandomWalk(topology)]
        models += RandomWaypoint(topology).clone_for_devices(2)
        CellularSimulator(
            topology,
            LocationAreaPlan.by_bfs(topology, 3),
            models,
            SimulationConfig(horizon=20),
            rng=np.random.default_rng(0),
        ).run()
        assert batches == []

    def test_walk_on_another_topology_keeps_scalar_loop(self, batches):
        topology = CellTopology.hexagonal_disk(2)
        models = [RandomWalk(CellTopology.hexagonal_disk(2)) for _ in range(3)]
        CellularSimulator(
            topology,
            LocationAreaPlan.by_bfs(topology, 3),
            models,
            SimulationConfig(horizon=20),
            rng=np.random.default_rng(0),
        ).run()
        assert batches == []
