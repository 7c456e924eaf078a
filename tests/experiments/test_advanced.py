"""Behavioral tests for the advanced experiments (E19 .. E26)."""

import math

import numpy as np
import pytest

from repro.core import (
    ConstantDetection,
    expected_paging_imperfect_monte_carlo,
    optimal_adaptive_expected_paging,
    optimal_single_user,
    weighted_heuristic,
)
from repro.distributions import instance_family, zipf_instance
from repro.experiments import (
    run_e19_adaptivity_gap,
    run_e20_imperfect_detection,
    run_e21_movement_sensitivity,
    run_e23_area_dimensioning,
    run_e24_correlation_sensitivity,
    run_e25_weighted_costs,
    run_e26_learning_curve,
)


class TestE19:
    def test_gap_bounds(self):
        table = run_e19_adaptivity_gap(
            families=("dirichlet",),
            trials=4,
            num_cells=6,
            rng=np.random.default_rng(19),
        )
        row = table.as_dicts()[0]
        assert row["mean_gap"] >= 1.0 - 1e-9
        assert row["max_gap"] >= row["mean_gap"] - 1e-9
        assert row["mean_adaptive_opt"] <= row["mean_oblivious_opt"] + 1e-9
        # The replanning heuristic stays close to the adaptive optimum.
        assert row["heuristic_vs_adaptive_opt"] < 1.2

    def test_adaptive_optimum_in_range(self):
        instance = instance_family("dirichlet", 2, 7, 3, rng=np.random.default_rng(19))
        result = optimal_adaptive_expected_paging(instance)
        assert 1.0 <= float(result.expected_paging) <= 7.0

    def test_gap_bounds_on_every_family(self):
        table = run_e19_adaptivity_gap(trials=5, rng=np.random.default_rng(190))
        for row in table.as_dicts():
            assert row["mean_gap"] >= 1.0 - 1e-9
            assert row["mean_adaptive_opt"] <= row["mean_oblivious_opt"] + 1e-9


class TestE23:
    def test_trade_off_endpoints(self):
        table = run_e23_area_dimensioning(
            area_counts=(1, 8), call_rates=(0.05,), radius=2, horizon=150
        )
        rows = table.as_dicts()
        one_area = next(row for row in rows if row["areas"] == 1)
        fine = next(row for row in rows if row["areas"] == 8)
        assert one_area["reports"] == 0
        assert fine["reports"] > 0
        for row in rows:
            assert row["heuristic_total"] <= row["blanket_total"] + 1e-9

    def test_best_area_count_follows_call_rate(self):
        table = run_e23_area_dimensioning(
            area_counts=(1, 2, 4, 8, 16), call_rates=(0.05, 0.4), horizon=300
        )
        rows = table.as_dicts()
        low = [row for row in rows if math.isclose(row["call_rate"], 0.05)]
        high = [row for row in rows if math.isclose(row["call_rate"], 0.4)]
        # Reports grow with area count; blanket paging-per-call shrinks.
        assert low[0]["reports"] == 0  # one area: never crosses a boundary
        assert low[-1]["reports"] > low[1]["reports"]
        assert high[-1]["blanket_paged"] < high[0]["blanket_paged"]
        # Low rate: coarse best for blanket.  High rate: fine best.
        assert min(low, key=lambda r: r["blanket_total"])["areas"] <= 2
        assert min(high, key=lambda r: r["blanket_total"])["areas"] >= 8
        # The heuristic improves (or matches) every operating point.
        for row in rows:
            assert row["heuristic_total"] <= row["blanket_total"] + 1e-9


class TestE24:
    def test_independence_errs_safe(self):
        table = run_e24_correlation_sensitivity(
            cohesion_levels=(0.0, 0.7),
            trials=5,
            num_cells=8,
            rng=np.random.default_rng(24),
        )
        rows = table.as_dicts()
        assert rows[0]["true_over_believed"] == pytest.approx(1.0, abs=1e-9)
        assert rows[1]["true_over_believed"] < 1.0

    def test_cohesion_lowers_true_cost(self):
        table = run_e24_correlation_sensitivity(
            trials=8, rng=np.random.default_rng(24)
        )
        rows = table.as_dicts()
        assert rows[0]["cohesion"] == 0.0
        assert rows[0]["true_over_believed"] == pytest.approx(1.0, abs=1e-9)
        ratios = [row["true_over_believed"] for row in rows]
        # Stronger cohesion means the independent model over-estimates more.
        assert ratios[-1] < ratios[0]
        for ratio in ratios:
            assert ratio <= 1.0 + 1e-9


class TestE20:
    def test_costs_grow_as_detection_degrades(self):
        table = run_e20_imperfect_detection(
            detection_levels=(1.0, 0.7, 0.5),
            trials=1_500,
            rng=np.random.default_rng(20),
        )
        closed = table.column("single_closed_form")
        for i in range(len(closed) - 1):
            assert closed[i] < closed[i + 1]

    def test_closed_form_matches_simulation(self):
        table = run_e20_imperfect_detection(
            detection_levels=(0.8,), trials=4_000, rng=np.random.default_rng(21)
        )
        row = table.as_dicts()[0]
        assert row["single_monte_carlo"] == pytest.approx(
            row["single_closed_form"], rel=0.08
        )

    def test_heuristic_beats_blanket_under_collisions(self):
        table = run_e20_imperfect_detection(
            detection_levels=(0.9,), trials=2_500, rng=np.random.default_rng(22)
        )
        row = table.as_dicts()[0]
        assert row["multi_heuristic_mc"] < row["multi_blanket_mc"]

    def test_misses_cost_extra_sweeps(self):
        instance = zipf_instance(1, 8, 3, rng=np.random.default_rng(20))
        plan = optimal_single_user(instance)
        estimate = expected_paging_imperfect_monte_carlo(
            instance,
            plan.strategy,
            ConstantDetection(0.7),
            trials=2_000,
            rng=np.random.default_rng(7),
        )
        assert estimate > float(plan.expected_paging)

    def test_heuristic_beats_blanket_at_every_level(self):
        table = run_e20_imperfect_detection(
            trials=2_000, rng=np.random.default_rng(200)
        )
        rows = table.as_dicts()
        assert rows[0]["q"] == 1.0
        for row in rows:
            assert row["multi_heuristic_mc"] <= row["multi_blanket_mc"] + 1e-9


class TestE21:
    def test_movement_inflates_and_misses(self):
        table = run_e21_movement_sensitivity(
            trials=2_500, rng=np.random.default_rng(21)
        )
        rows = table.as_dicts()
        # mobility 0 must reproduce the stationary model (Lemma 2.1).
        assert rows[0]["d2_inflation"] == pytest.approx(1.0, abs=0.05)
        assert rows[0]["d5_inflation"] == pytest.approx(1.0, abs=0.05)
        assert rows[0]["d2_miss_rate"] == 0.0
        # Miss rates grow with mobility, and the longer strategy misses more.
        assert rows[-1]["d2_miss_rate"] <= rows[-1]["d5_miss_rate"] + 0.02
        assert rows[-1]["d5_miss_rate"] > 0.0


class TestE25:
    def test_weighted_cost_below_blanket(self):
        rng = np.random.default_rng(25)
        instance = instance_family("hotspot", 3, 12, 3, rng=rng)
        costs = [float(v) for v in rng.uniform(1.0, 5.0, size=12)]
        result = weighted_heuristic(instance, costs)
        assert float(result.expected_cost) <= sum(costs)

    def test_density_order_near_optimal(self):
        table = run_e25_weighted_costs(trials=6, rng=np.random.default_rng(250))
        rows = table.as_dicts()
        assert rows[0]["density_ep"] == pytest.approx(rows[0]["weight_order_ep"])
        for row in rows:
            # Density ordering dominates the naive weight ordering on average
            # and stays anchored to the exact optimum.
            assert row["density_ep"] <= row["weight_order_ep"] + 1e-9
            assert row["density_ep"] >= row["optimal_ep"] - 1e-9
            assert row["density_ep"] <= row["optimal_ep"] * 1.10


class TestE26:
    def test_learned_profiles_beat_uniform(self):
        table = run_e26_learning_curve(horizon=800, buckets=4)
        rows = table.as_dicts()
        online = [row["online_prior"] for row in rows if not np.isnan(row["online_prior"])]
        uniform = [
            row["uniform_prior"] for row in rows if not np.isnan(row["uniform_prior"])
        ]
        assert float(np.mean(online)) < float(np.mean(uniform))
        assert all(row["calls"] >= 0 for row in rows)
