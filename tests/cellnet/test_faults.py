"""Tests for the fault-injection and resilience layer (repro.cellnet.faults)."""

import numpy as np
import pytest

from repro.cellnet import (
    CellOutage,
    CellTopology,
    CellularSimulator,
    FaultInjector,
    FaultModel,
    LocationAreaPlan,
    RandomWalk,
    RecoveryPolicy,
    ResilientPager,
    SimulationConfig,
)
from repro.cellnet.metrics import LinkUsageMetrics
from repro.errors import SimulationError


def build_simulator(seed=11, **config_overrides):
    rng = np.random.default_rng(seed)
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
    config = SimulationConfig(
        horizon=config_overrides.pop("horizon", 200),
        call_rate=config_overrides.pop("call_rate", 0.1),
        max_paging_rounds=config_overrides.pop("max_paging_rounds", 3),
        reporting=config_overrides.pop("reporting", "la"),
        pager=config_overrides.pop("pager", "heuristic"),
        **config_overrides,
    )
    return CellularSimulator(topology, plan, models, config, rng=rng)


FAULTY = FaultModel(
    page_loss=0.4,
    update_loss=0.2,
    stale_after=10,
    outages=(CellOutage(cell=3, start=50, end=120),),
)


class TestFaultModel:
    def test_default_is_zero(self):
        assert FaultModel().is_zero

    def test_any_knob_deactivates_is_zero(self):
        assert not FaultModel(page_loss=0.1).is_zero
        assert not FaultModel(update_loss=0.1).is_zero
        assert not FaultModel(cell_page_loss={2: 0.5}).is_zero
        assert not FaultModel(stale_after=5).is_zero
        assert not FaultModel(outages=(CellOutage(0, 0, 1),)).is_zero

    def test_zero_valued_overrides_stay_zero(self):
        assert FaultModel(cell_page_loss={2: 0.0}).is_zero

    def test_rejects_bad_probabilities(self):
        with pytest.raises(SimulationError):
            FaultModel(page_loss=1.5)
        with pytest.raises(SimulationError):
            FaultModel(update_loss=-0.1)
        with pytest.raises(SimulationError):
            FaultModel(cell_page_loss={0: 2.0})

    def test_rejects_bad_staleness(self):
        with pytest.raises(SimulationError):
            FaultModel(stale_after=0)

    def test_cell_override_beats_base_rate(self):
        model = FaultModel(page_loss=0.2, cell_page_loss={5: 0.9})
        assert model.loss_probability(5) == pytest.approx(0.9)
        assert model.loss_probability(4) == pytest.approx(0.2)

    def test_outage_window_is_half_open(self):
        outage = CellOutage(cell=1, start=10, end=20)
        assert not outage.active(9)
        assert outage.active(10)
        assert outage.active(19)
        assert not outage.active(20)
        model = FaultModel(outages=(outage,))
        assert model.cell_down(1, 15)
        assert not model.cell_down(1, 25)
        assert not model.cell_down(2, 15)

    def test_rejects_bad_outage(self):
        with pytest.raises(SimulationError):
            CellOutage(cell=-1, start=0, end=1)
        with pytest.raises(SimulationError):
            CellOutage(cell=0, start=5, end=2)
        with pytest.raises(SimulationError):
            FaultModel(outages=((1, 2, 3),))


class TestRecoveryPolicy:
    def test_backoff_doubles(self):
        policy = RecoveryPolicy(max_retries=3, backoff_base=1)
        assert [policy.backoff(k) for k in (1, 2, 3)] == [1, 2, 4]

    def test_reserved_rounds_counts_waits_and_pages(self):
        # retry 1: wait 1 + page 1; retry 2: wait 2 + page 1 -> 5 rounds.
        assert RecoveryPolicy(max_retries=2, backoff_base=1).reserved_rounds() == 5

    def test_timeout_tightens_but_never_extends_budget(self):
        policy = RecoveryPolicy(call_timeout_rounds=2)
        assert policy.budget(5) == 2
        assert policy.budget(1) == 1

    def test_planning_rounds_floor_is_one(self):
        policy = RecoveryPolicy(max_retries=3)
        assert policy.planning_rounds(2) == 1

    def test_validation(self):
        with pytest.raises(SimulationError):
            RecoveryPolicy(max_retries=-1)
        with pytest.raises(SimulationError):
            RecoveryPolicy(backoff_base=0)
        with pytest.raises(SimulationError):
            RecoveryPolicy(call_timeout_rounds=0)


class TestFaultInjector:
    def test_certain_loss_and_certain_delivery(self):
        metrics = LinkUsageMetrics()
        injector = FaultInjector(
            FaultModel(page_loss=1.0), np.random.default_rng(0), metrics
        )
        assert not injector.page_delivered(0, time=0)
        assert metrics.pages_lost == 1
        injector = FaultInjector(FaultModel(), np.random.default_rng(0), metrics)
        assert injector.page_delivered(0, time=0)

    def test_zero_rate_consumes_no_rng_draws(self):
        """The zero-fault path must not perturb the shared RNG stream."""
        rng = np.random.default_rng(7)
        baseline = np.random.default_rng(7).random(3)
        injector = FaultInjector(FaultModel(), rng)
        for _ in range(10):
            assert injector.page_delivered(0, time=0)
            assert injector.update_delivered(time=0)
        assert np.array_equal(rng.random(3), baseline)

    def test_outage_blocks_without_a_draw(self):
        rng = np.random.default_rng(7)
        baseline = np.random.default_rng(7).random(3)
        model = FaultModel(outages=(CellOutage(cell=0, start=0, end=10),))
        injector = FaultInjector(model, rng, LinkUsageMetrics())
        assert not injector.page_delivered(0, time=5)
        assert injector.page_delivered(0, time=15)
        assert np.array_equal(rng.random(3), baseline)


class TestResilientPager:
    def _injector(self, model, seed=0):
        return FaultInjector(model, np.random.default_rng(seed), LinkUsageMetrics())

    def test_rejects_unknown_base_pager(self):
        with pytest.raises(SimulationError, match="pager"):
            ResilientPager("nope", self._injector(FaultModel()))

    def test_no_faults_finds_everyone(self):
        priors = [np.array([0.5, 0.3, 0.2]), np.array([0.2, 0.3, 0.5])]
        pager = ResilientPager("heuristic", self._injector(FaultModel()))
        outcome = pager.search(priors, [0, 1, 2], [2, 0], 3, 5)
        assert outcome.found_cells == {0: 2, 1: 0}
        assert outcome.failed_devices == ()
        assert outcome.complete

    def test_total_loss_degrades_within_budget(self):
        """With every page lost, the search must stop at d and report failures."""
        priors = [np.array([0.6, 0.4])]
        pager = ResilientPager(
            "heuristic",
            self._injector(FaultModel(page_loss=1.0)),
            RecoveryPolicy(max_retries=5),
        )
        outcome = pager.search(priors, [0, 1], [1], 4, 6)
        assert outcome.failed_devices == (0,)
        assert not outcome.complete
        assert outcome.rounds_used <= 4

    @pytest.mark.parametrize("d", [1, 2, 3, 5, 8])
    def test_never_pages_past_round_d(self, d):
        """The delay constraint is a hard cap for every budget and retry mix."""
        priors = [np.array([0.25, 0.25, 0.25, 0.25]) for _ in range(3)]
        pager = ResilientPager(
            "blanket",
            self._injector(FaultModel(page_loss=0.9), seed=d),
            RecoveryPolicy(max_retries=4, backoff_base=1),
        )
        outcome = pager.search(priors, [0, 1, 2, 3], [3, 1, 0], d, 6)
        assert outcome.rounds_used <= d

    def test_retry_recovers_a_lost_page(self):
        """A page lost in round 1 is recovered by the backoff re-page."""
        priors = [np.array([1.0])]
        model = FaultModel(cell_page_loss={0: 0.5})
        # seed chosen so the first draw loses the page and the retry lands
        rng = np.random.default_rng(8)
        assert rng.random() < 0.5 and rng.random() >= 0.5
        pager = ResilientPager(
            "blanket",
            self._injector(model, seed=8),
            RecoveryPolicy(max_retries=1, backoff_base=1),
        )
        outcome = pager.search(priors, [0], [0], 4, 3)
        assert outcome.found_cells == {0: 0}
        assert outcome.retries_used == 1
        assert outcome.rounds_used == 3  # round 1 + wait 1 + retry round

    def test_fallback_sweep_catches_mislaid_device(self):
        """A device outside the candidate set is found by the complement sweep."""
        priors = [np.array([1.0])]
        pager = ResilientPager("blanket", self._injector(FaultModel()))
        outcome = pager.search(priors, [0], [2], 4, 3)
        assert outcome.found_cells == {0: 2}
        assert outcome.used_fallback

    def test_retry_too_expensive_for_budget_is_skipped(self):
        priors = [np.array([1.0])]
        pager = ResilientPager(
            "blanket",
            self._injector(FaultModel(cell_page_loss={0: 1.0})),
            RecoveryPolicy(max_retries=1, backoff_base=5),
        )
        outcome = pager.search(priors, [0], [0], 3, 1)
        assert outcome.retries_used == 0
        assert outcome.rounds_used == 1
        assert outcome.failed_devices == (0,)


class TestSimulatorIntegration:
    @pytest.mark.parametrize("contended", [False, True], ids=["synchronous", "contended"])
    @pytest.mark.parametrize(
        "faults",
        [
            FaultModel(outages=(CellOutage(cell=99, start=5, end=20),)),
            FaultModel(cell_page_loss={99: 0.5}),
        ],
        ids=["outage", "cell-page-loss"],
    )
    def test_fault_cell_off_the_topology_is_rejected(self, faults, contended):
        """A 19-cell network has no cell 99, whichever path runs the calls."""
        overrides = {"channel_capacity": 1} if contended else {}
        with pytest.raises(SimulationError, match="cell 99"):
            build_simulator(faults=faults, **overrides)

    def test_zero_fault_model_matches_no_fault_model(self):
        """faults=FaultModel() must be bit-identical to faults=None."""
        baseline = build_simulator().run()
        zeroed = build_simulator(faults=FaultModel()).run()
        assert zeroed.metrics == baseline.metrics
        assert zeroed.summary() == baseline.summary()

    def test_faulty_run_is_reproducible(self):
        first = build_simulator(
            faults=FAULTY, recovery=RecoveryPolicy(max_retries=2), max_paging_rounds=6
        ).run()
        second = build_simulator(
            faults=FAULTY, recovery=RecoveryPolicy(max_retries=2), max_paging_rounds=6
        ).run()
        assert first.metrics == second.metrics
        assert first.summary() == second.summary()

    def test_faulty_calls_respect_delay_budget(self):
        report = build_simulator(
            faults=FAULTY, recovery=RecoveryPolicy(max_retries=2), max_paging_rounds=6
        ).run()
        assert report.metrics.calls_handled > 0
        for record in report.metrics.call_records:
            assert record.rounds_used <= 6

    def test_faults_surface_in_summary(self):
        report = build_simulator(
            faults=FAULTY, recovery=RecoveryPolicy(max_retries=2), max_paging_rounds=6
        ).run()
        summary = report.summary()
        assert summary["pages_lost"] > 0
        assert summary["retry_rounds"] > 0
        for key in ("degraded_calls", "failed_devices", "updates_lost",
                    "outage_pages", "stale_lookups"):
            assert key in summary

    def test_degraded_calls_count_failed_devices(self):
        report = build_simulator(
            faults=FaultModel(page_loss=0.9),
            recovery=RecoveryPolicy(max_retries=1),
            max_paging_rounds=3,
        ).run()
        degraded = [r for r in report.metrics.call_records if r.failed_devices]
        assert len(degraded) == report.metrics.degraded_calls
        assert sum(r.failed_devices for r in degraded) == (
            report.metrics.failed_device_count
        )
        assert report.metrics.degraded_calls > 0

    def test_adaptive_pager_runs_under_faults(self):
        report = build_simulator(
            pager="adaptive", faults=FaultModel(page_loss=0.3)
        ).run()
        assert report.metrics.calls_handled > 0

    def test_stale_registry_forces_wider_searches(self):
        """With near-stationary devices, aging out confirmed fixes must
        register stale lookups (the fix exists but is distrusted)."""
        rng = np.random.default_rng(4)
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3)
        models = [RandomWalk(topology, stay_probability=0.98) for _ in range(4)]
        config = SimulationConfig(
            horizon=300,
            call_rate=0.1,
            max_paging_rounds=3,
            reporting="la",
            pager="heuristic",
            faults=FaultModel(stale_after=2),
        )
        report = CellularSimulator(topology, plan, models, config, rng=rng).run()
        assert report.metrics.stale_lookups > 0

    def test_config_validates_fault_types(self):
        with pytest.raises(SimulationError):
            SimulationConfig(faults="lossy")
        with pytest.raises(SimulationError):
            SimulationConfig(recovery="retry")
