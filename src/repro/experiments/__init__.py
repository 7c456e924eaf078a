"""The experiment harness: every table the reproduction reports."""

from __future__ import annotations

from .advanced import (
    run_e19_adaptivity_gap,
    run_e20_imperfect_detection,
    run_e21_movement_sensitivity,
    run_e23_area_dimensioning,
    run_e24_correlation_sensitivity,
    run_e25_weighted_costs,
    run_e26_learning_curve,
)
from .approximation import (
    run_e03_ratio_sweep,
    run_e08_single_user_optimal,
    run_e09_delay_tradeoff,
    run_e10_adaptive,
)
from .extensions import (
    run_e11_signature_sweep,
    run_e11_yellow_pages,
    run_e12_bandwidth,
    run_e15_clustered,
)
from .hardness_experiments import (
    run_e06_reduction_general,
    run_e06_reduction_m2d2,
    run_e14_quasipartition2,
    run_e17_lifting,
    run_e18_qap,
)
from .paper_claims import (
    run_e01_uniform_single_user,
    run_e02_lower_bound,
    run_e04_lemma31,
    run_e05_lemma34,
    run_e16_four_thirds,
)
from .runner import (
    EXPERIMENTS,
    lint_attestation,
    main,
    run_experiments,
    save_report,
    spawn_task_seed,
)
from .system import (
    heuristic_workload,
    run_e07_dp_scaling,
    run_e13_cellnet,
    run_e13_reporting_tradeoff,
    run_e27_batched_replanning,
    run_e28_timevary,
    run_e29_contention,
)
from .tables import ExperimentTable, render_all

__all__ = [
    "EXPERIMENTS",
    "ExperimentTable",
    "heuristic_workload",
    "lint_attestation",
    "main",
    "render_all",
    "run_e01_uniform_single_user",
    "run_e02_lower_bound",
    "run_e03_ratio_sweep",
    "run_e04_lemma31",
    "run_e05_lemma34",
    "run_e06_reduction_general",
    "run_e06_reduction_m2d2",
    "run_e07_dp_scaling",
    "run_e08_single_user_optimal",
    "run_e09_delay_tradeoff",
    "run_e10_adaptive",
    "run_e11_signature_sweep",
    "run_e11_yellow_pages",
    "run_e12_bandwidth",
    "run_e13_cellnet",
    "run_e13_reporting_tradeoff",
    "run_e14_quasipartition2",
    "run_e15_clustered",
    "run_e16_four_thirds",
    "run_e17_lifting",
    "run_e18_qap",
    "run_e19_adaptivity_gap",
    "run_e20_imperfect_detection",
    "run_e21_movement_sensitivity",
    "run_e23_area_dimensioning",
    "run_e24_correlation_sensitivity",
    "run_e25_weighted_costs",
    "run_e26_learning_curve",
    "run_e27_batched_replanning",
    "run_e28_timevary",
    "run_e29_contention",
    "run_experiments",
    "save_report",
    "spawn_task_seed",
]
