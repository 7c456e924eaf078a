"""Behavioral tests for every experiment: shapes plus headline assertions.

Each test runs one experiment function (the same ones ``repro experiments``
renders), or the solver an experiment is built on, at the parameters
written in the test, and asserts the *paper-facing* property it
demonstrates.  Claims about a table at its default parameters live in
``test_golden_tables.py``, on the tables that module already builds.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.analysis import measure_ratio
from repro.core import (
    PagingInstance,
    adaptive_expected_paging,
    clustered_exhaustive,
    conference_call_heuristic,
    optimal_single_user,
    optimal_strategy,
    signature_heuristic,
    two_device_two_round_heuristic,
    yellow_pages_greedy,
)
from repro.distributions import clustered_instance, instance_family, zipf_instance
from repro.experiments import (
    EXPERIMENTS,
    heuristic_workload,
    run_e01_uniform_single_user,
    run_e02_lower_bound,
    run_e03_ratio_sweep,
    run_e04_lemma31,
    run_e05_lemma34,
    run_e06_reduction_general,
    run_e06_reduction_m2d2,
    run_e08_single_user_optimal,
    run_e09_delay_tradeoff,
    run_e10_adaptive,
    run_e11_signature_sweep,
    run_e11_yellow_pages,
    run_e12_bandwidth,
    run_e13_cellnet,
    run_e13_reporting_tradeoff,
    run_e14_quasipartition2,
    run_e15_clustered,
    run_e16_four_thirds,
    run_e17_lifting,
    run_e18_qap,
)
from repro.hardness import (
    PartitionInstance,
    formulate_qap,
    reduce_partition_to_quasipartition2,
    reduce_quasipartition1_to_conference_call,
    solve_qap_bruteforce,
    solve_quasipartition2,
)
from repro.solvers import get_solver

E_FACTOR = math.e / (math.e - 1.0)


def _e22_instance(num_cells, num_devices=4, max_rounds=5, seed=22):
    """E22's large-scale planning instance: Dirichlet rows, seed 22."""
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.ones(num_cells), size=num_devices)
    return PagingInstance.from_array(matrix, max_rounds=max_rounds)


class TestPaperClaims:
    def test_e01_closed_form_matches(self):
        table = run_e01_uniform_single_user(cell_counts=(4, 8), round_counts=(1, 2, 4))
        for row in table.as_dicts():
            assert row["optimal_ep"] == pytest.approx(row["closed_form"])
        d2 = [row for row in table.as_dicts() if row["d"] == 2]
        for row in d2:
            assert row["optimal_ep"] == pytest.approx(0.75 * row["c"])

    def test_e02_reproduces_320_317(self):
        table = run_e02_lower_bound()
        exact_row = table.as_dicts()[0]
        assert exact_row["optimal_ep"] == pytest.approx(317 / 49)
        assert exact_row["heuristic_ep"] == pytest.approx(320 / 49)
        assert exact_row["ratio"] == pytest.approx(320 / 317)

    def test_e04_lemma31_holds(self):
        table = run_e04_lemma31(cell_counts=(3, 9))
        assert all(value == "True" for value in table.column("grid_holds"))

    def test_e05_lemma34_holds(self):
        table = run_e05_lemma34(configurations=((2, 2, 9.0), (2, 3, 12.0)), samples=20_000)
        assert all(value == "True" for value in table.column("holds"))

    def test_e16_within_four_thirds(self):
        table = run_e16_four_thirds(trials=8, rng=np.random.default_rng(1))
        for value in table.column("max_ratio"):
            assert value <= 4 / 3 + 1e-9

    def test_e01_uniform_64_cells_two_rounds(self):
        instance = PagingInstance.uniform(1, 64, 2, exact=True)
        result = optimal_single_user(instance)
        assert float(result.expected_paging) == pytest.approx(48.0)  # 3c/4

    def test_e05_lemma34_holds_at_50k_samples(self):
        table = run_e05_lemma34(samples=50_000)
        assert all(value == "True" for value in table.column("holds"))

    def test_e16_scan_splits_fifty_cells(self):
        instance = instance_family("hotspot", 2, 50, 2, rng=np.random.default_rng(16))
        result = two_device_two_round_heuristic(instance)
        assert 1 <= result.first_round_size < 50

    def test_e16_within_bound_at_20_trials(self):
        table = run_e16_four_thirds(trials=20, rng=np.random.default_rng(160))
        for row in table.as_dicts():
            assert row["max_ratio"] <= row["bound"] + 1e-9


class TestApproximation:
    def test_e03_all_within_guarantee(self):
        table = run_e03_ratio_sweep(
            families=("dirichlet", "adversarial"),
            trials=8,
            rng=np.random.default_rng(2),
        )
        for value in table.column("max_ratio"):
            assert value <= E_FACTOR + 1e-9

    def test_e08_single_user_gap_is_zero(self):
        table = run_e08_single_user_optimal(trials=5, rng=np.random.default_rng(3))
        for gap in table.column("max_abs_gap"):
            assert gap == pytest.approx(0.0, abs=1e-9)

    def test_e09_monotone_decreasing(self):
        table = run_e09_delay_tradeoff(num_cells=7, rng=np.random.default_rng(4))
        values = table.column("optimal_ep")
        assert values[0] == pytest.approx(7.0)  # d = 1 is blanket paging
        for i in range(len(values) - 1):
            assert values[i + 1] <= values[i] + 1e-9

    def test_e10_adaptive_never_loses(self):
        table = run_e10_adaptive(
            families=("dirichlet",), trials=4, rng=np.random.default_rng(5)
        )
        row = table.as_dicts()[0]
        assert row["adaptive_wins"] == row["trials"]
        assert row["mean_adaptive"] <= row["mean_oblivious"] + 1e-9

    def test_e03_adversarial_ratio_within_guarantee(self):
        instance = instance_family(
            "adversarial", 2, 8, 2, rng=np.random.default_rng(33)
        )
        sample = measure_ratio(instance)
        assert 1.0 - 1e-9 <= sample.ratio <= E_FACTOR + 1e-9

    def test_e03_sweep_within_guarantee_at_20_trials(self):
        table = run_e03_ratio_sweep(trials=20, rng=np.random.default_rng(3))
        for row in table.as_dicts():
            assert row["max_ratio"] <= E_FACTOR + 1e-9
            assert row["mean_ratio"] >= 1.0 - 1e-9

    @pytest.mark.parametrize("num_cells", [40, 80, 160])
    def test_e07_heuristic_covers_every_cell(self, num_cells):
        result = conference_call_heuristic(heuristic_workload(3, num_cells, 5))
        assert sum(result.group_sizes) == num_cells

    def test_e08_single_user_on_100_cells(self):
        instance = zipf_instance(1, 100, 5, rng=np.random.default_rng(8))
        assert float(optimal_single_user(instance).expected_paging) < 100

    def test_e08_gap_is_zero_at_15_trials(self):
        table = run_e08_single_user_optimal(trials=15, rng=np.random.default_rng(88))
        for gap in table.column("max_abs_gap"):
            assert gap == pytest.approx(0.0, abs=1e-9)

    def test_e10_adaptive_value_in_range(self):
        instance = instance_family("hotspot", 2, 8, 3, rng=np.random.default_rng(10))
        assert 1.0 <= float(adaptive_expected_paging(instance)) <= 8.0

    def test_e10_adaptive_never_loses_at_6_trials(self):
        table = run_e10_adaptive(trials=6, rng=np.random.default_rng(100))
        for row in table.as_dicts():
            assert row["mean_adaptive"] <= row["mean_oblivious"] + 1e-9


class TestExtensions:
    def test_e11_yellow_pages_shapes(self):
        table = run_e11_yellow_pages(trials=4, rng=np.random.default_rng(6))
        for row in table.as_dicts():
            # Optimizing over any fixed order beats the random-order baseline
            # on average.
            assert row["greedy_hit"] <= row["random"] + 1e-9

    def test_e11_signature_monotone(self):
        table = run_e11_signature_sweep(
            num_devices=3, num_cells=8, rng=np.random.default_rng(7)
        )
        values = table.column("weight_order_ep")
        for i in range(len(values) - 1):
            assert values[i] <= values[i + 1] + 1e-9

    def test_e12_caps_cost_more(self):
        table = run_e12_bandwidth(num_cells=8, rng=np.random.default_rng(8))
        for row in table.as_dicts():
            assert row["heuristic_ep"] >= row["uncapped_heuristic_ep"] - 1e-9
            assert row["heuristic_ep"] >= row["optimal_ep"] - 1e-9

    def test_e15_scheme_is_optimal_on_clusters(self):
        table = run_e15_clustered(trials=3, rng=np.random.default_rng(9))
        assert all(value == "True" for value in table.column("scheme_optimal"))

    def test_e11_yellow_pages_value_in_range(self):
        instance = instance_family("hotspot", 3, 10, 3, rng=np.random.default_rng(11))
        assert 1.0 <= float(yellow_pages_greedy(instance).expected_paging) <= 10.0

    def test_e11_yellow_pages_beats_random_at_8_trials(self):
        table = run_e11_yellow_pages(trials=8, rng=np.random.default_rng(111))
        for row in table.as_dicts():
            assert row["greedy_hit"] <= row["random"] + 1e-9

    def test_e11_signature_value_in_range(self):
        instance = instance_family("hotspot", 4, 10, 3, rng=np.random.default_rng(12))
        result = signature_heuristic(instance, 2)
        assert 1.0 <= float(result.expected_paging) <= 10.0

    def test_e11_signature_monotone_at_default_shape(self):
        table = run_e11_signature_sweep(rng=np.random.default_rng(112))
        values = table.column("weight_order_ep")
        for i in range(len(values) - 1):
            assert values[i] <= values[i + 1] + 1e-9

    def test_e12_capped_plan_respects_cap(self):
        instance = instance_family("zipf", 2, 20, 5, rng=np.random.default_rng(12))
        result = get_solver("heuristic")(instance, max_group_size=6)
        assert max(result.extras["group_sizes"]) <= 6

    def test_e12_caps_cost_more_at_default_shape(self):
        table = run_e12_bandwidth(rng=np.random.default_rng(120))
        for row in table.as_dicts():
            assert row["heuristic_ep"] >= row["optimal_ep"] - 1e-9
            assert row["heuristic_ep"] >= row["uncapped_heuristic_ep"] - 1e-9

    def test_e15_scheme_finds_at_most_two_clusters(self):
        instance = clustered_instance(
            2, 10, 3, rng=np.random.default_rng(15), num_levels=2
        )
        assert len(clustered_exhaustive(instance).clusters) <= 2

    def test_e15_scheme_is_optimal_at_5_trials(self):
        table = run_e15_clustered(trials=5, rng=np.random.default_rng(150))
        assert all(value == "True" for value in table.column("scheme_optimal"))


class TestHardness:
    def test_e06_equivalences(self):
        table = run_e06_reduction_m2d2(trials=6, rng=np.random.default_rng(10))
        row = table.as_dicts()[0]
        assert row["equivalences_hold"] == row["trials"]

    def test_e06b_equivalences(self):
        table = run_e06_reduction_general(
            configurations=((2, 2, 3),), trials=4, rng=np.random.default_rng(11)
        )
        row = table.as_dicts()[0]
        assert row["equivalences_hold"] == row["trials"]

    def test_e14_equivalences(self):
        table = run_e14_quasipartition2(
            trials=6, num_sizes=4, rng=np.random.default_rng(12)
        )
        row = table.as_dicts()[0]
        assert row["equivalences_hold"] == row["trials"]

    def test_e17_first_group_is_extra(self):
        table = run_e17_lifting(trials=2, num_cells=4, rng=np.random.default_rng(13))
        assert all(value == "True" for value in table.column("first_group_is_extra"))
        for gap in table.column("gap"):
            assert gap >= -1e-9

    def test_e18_qap_agrees(self):
        table = run_e18_qap(trials=2, num_cells=5, rng=np.random.default_rng(14))
        assert all(value == "True" for value in table.column("agree"))

    def test_e06_yes_instance_hits_lower_bound(self):
        sizes = [Fraction(v) for v in (3, 1, 2, 2, 1, 3)]
        reduction = reduce_quasipartition1_to_conference_call(sizes)
        result = optimal_strategy(reduction.instance)
        assert result.expected_paging == reduction.lower_bound

    def test_e06_equivalences_at_12_trials(self):
        table = run_e06_reduction_m2d2(trials=12, rng=np.random.default_rng(6))
        row = table.as_dicts()[0]
        assert row["equivalences_hold"] == row["trials"]

    def test_e06b_equivalences_at_5_trials(self):
        table = run_e06_reduction_general(
            configurations=((2, 2, 6), (3, 2, 4)),
            trials=5,
            rng=np.random.default_rng(66),
        )
        for row in table.as_dicts():
            assert row["equivalences_hold"] == row["trials"]

    def test_e14_balanced_partition_has_witness(self):
        reduction = reduce_partition_to_quasipartition2(
            PartitionInstance((3, 1, 2, 2, 5, 3))
        )
        assert solve_quasipartition2(reduction.sizes, reduction.parameters) is not None

    def test_e14_equivalences_at_10_trials(self):
        table = run_e14_quasipartition2(trials=10, rng=np.random.default_rng(14))
        row = table.as_dicts()[0]
        assert row["equivalences_hold"] == row["trials"]

    def test_e17_lifting_near_optimal(self):
        table = run_e17_lifting(trials=4, num_cells=4, rng=np.random.default_rng(17))
        assert all(value == "True" for value in table.column("first_group_is_extra"))
        for gap in table.column("gap"):
            assert -1e-9 <= gap < 0.5

    def test_e18_qap_objective_in_range(self):
        instance = instance_family("dirichlet", 2, 6, 6, rng=np.random.default_rng(18))
        _pi, objective = solve_qap_bruteforce(formulate_qap(instance))
        assert 0 < float(objective) < 6

    def test_e18_qap_agrees_at_4_trials(self):
        table = run_e18_qap(trials=4, rng=np.random.default_rng(180))
        assert all(value == "True" for value in table.column("agree"))


class TestSystem:
    def test_e13_heuristic_saves_cells(self):
        table = run_e13_cellnet(radius=2, num_devices=4, horizon=250, seed=99)
        rows = {row["pager"]: row for row in table.as_dicts()}
        assert rows["heuristic"]["cells_per_call"] <= rows["blanket"]["cells_per_call"]
        assert rows["heuristic"]["saving_vs_blanket"] > 0
        assert rows["blanket"]["rounds_per_call"] == pytest.approx(1.0)
        assert rows["heuristic"]["rounds_per_call"] > 1.0

    def test_e13b_reporting_tradeoff_endpoints(self):
        table = run_e13_reporting_tradeoff(radius=2, num_devices=3, horizon=250)
        rows = {row["reporting"]: row for row in table.as_dicts()}
        assert rows["never"]["reports"] == 0
        assert rows["always"]["cells_paged"] < rows["never"]["cells_paged"]
        assert rows["always"]["reports"] > rows["la"]["reports"]

    def test_e13_heuristic_saves_a_tenth_at_radius_3(self):
        table = run_e13_cellnet(radius=3, num_devices=6, horizon=500, seed=13)
        rows = {row["pager"]: row for row in table.as_dicts()}
        assert rows["blanket"]["rounds_per_call"] == pytest.approx(1.0)
        assert rows["heuristic"]["saving_vs_blanket"] > 0.1
        assert rows["adaptive"]["cells_per_call"] <= rows["blanket"]["cells_per_call"]
        # Identical call streams across policies.
        assert len({row["calls"] for row in table.as_dicts()}) == 1

    def test_e13b_reporting_saves_paging_at_radius_3(self):
        table = run_e13_reporting_tradeoff(radius=3, num_devices=5, horizon=400)
        rows = {row["reporting"]: row for row in table.as_dicts()}
        assert rows["never"]["reports"] == 0
        assert rows["always"]["cells_paged"] <= rows["never"]["cells_paged"]
        assert rows["la"]["cells_paged"] <= rows["never"]["cells_paged"]

    @pytest.mark.parametrize("num_cells", [200, 250, 800])
    def test_e22_heuristic_covers_every_cell(self, num_cells):
        result = get_solver("heuristic")(_e22_instance(num_cells))
        assert sum(result.extras["group_sizes"]) == num_cells

    def test_e22_reference_covers_every_cell(self):
        result = conference_call_heuristic(_e22_instance(250))
        assert sum(result.group_sizes) == 250

    @pytest.mark.parametrize("num_cells", [50, 120, 250])
    def test_e22_heuristic_agrees_with_reference(self, num_cells):
        instance = _e22_instance(num_cells)
        reference = conference_call_heuristic(instance)
        fast = get_solver("heuristic")(instance)
        assert abs(
            float(reference.expected_paging) - float(fast.expected_paging)
        ) < 1e-9

    def test_registry_lists_all_experiments(self):
        assert len(EXPERIMENTS) >= 18
        assert "E2" in EXPERIMENTS and "E13" in EXPERIMENTS
