"""Section 5 extension experiments (E11, E12, E15).

* E11 — Yellow Pages orderings compared (weight order degrades; the
  best-single-device order stays within the m-approximation), plus the
  Signature quorum sweep from k = 1 (Yellow Pages) to k = m (Conference
  Call).
* E12 — bandwidth-limited paging: EP as the per-round cap b tightens.
* E15 — the clustered-probability exhaustive scheme vs heuristic vs optimal.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..core.ordering import by_device_probability, random_order
from ..distributions.generators import clustered_instance, instance_family
from ..solvers import get_solver
from .tables import ExperimentTable

# Registry dispatch: experiments name solvers, they never import the
# concrete functions (tests/experiments/test_solver_imports.py enforces it).
_exact = get_solver("exact")
_heuristic = get_solver("heuristic")
_clustered = get_solver("clustered")
_signature = get_solver("signature")
_signature_cuts = get_solver("signature-cuts")
_adaptive_quorum = get_solver("adaptive-quorum")
_yp_exact = get_solver("yellow-pages-exact")
_yp_greedy = get_solver("yellow-pages-greedy")
_yp_m_approx = get_solver("yellow-pages-m-approx")
_yp_weight_order = get_solver("yellow-pages-weight-order")
_yp_cuts = get_solver("yellow-pages-cuts")


def run_e11_yellow_pages(
    *,
    trials: int = 15,
    num_devices: int = 3,
    num_cells: int = 9,
    max_rounds: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> ExperimentTable:
    """Yellow Pages ordering comparison (mean EP, lower is better)."""
    if rng is None:
        rng = np.random.default_rng(11)
    table = ExperimentTable(
        "E11a",
        "Yellow Pages (find 1 of m): ordering heuristics vs the exact optimum",
        [
            "family",
            "optimal",
            "greedy_hit",
            "best_single_device",
            "weight_order",
            "random",
        ],
    )
    for family in ("dirichlet", "hotspot", "zipf"):
        optimal_values, greedy, single, weight, random_values = [], [], [], [], []
        for _ in range(trials):
            instance = instance_family(
                family, num_devices, num_cells, max_rounds, rng=rng
            )
            optimal_values.append(
                float(_yp_exact(instance).expected_paging)
            )
            greedy.append(float(_yp_greedy(instance).expected_paging))
            single.append(
                float(_yp_m_approx(instance).expected_paging)
            )
            weight.append(
                float(_yp_weight_order(instance).expected_paging)
            )
            random_values.append(
                float(
                    _yp_cuts(
                        instance, order=random_order(instance, rng)
                    ).expected_paging
                )
            )
        table.add_row(
            family,
            float(np.mean(optimal_values)),
            float(np.mean(greedy)),
            float(np.mean(single)),
            float(np.mean(weight)),
            float(np.mean(random_values)),
        )
    table.add_note("paper: the weight order is NOT constant-factor for Yellow Pages")
    table.add_note("best_single_device is the paper's m-approximation candidate")
    return table


def run_e11_signature_sweep(
    *,
    num_devices: int = 4,
    num_cells: int = 10,
    max_rounds: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> ExperimentTable:
    """EP as the quorum k rises from Yellow Pages (1) to Conference Call (m)."""
    if rng is None:
        rng = np.random.default_rng(111)
    instance = instance_family(
        "hotspot", num_devices, num_cells, max_rounds, rng=rng
    )
    table = ExperimentTable(
        "E11b",
        "Signature problem: quorum sweep k = 1..m",
        ["quorum", "weight_order_ep", "best_single_device_ep", "adaptive_ep"],
    )
    for quorum in range(1, num_devices + 1):
        weight_value = float(
            _signature(instance, quorum=quorum).expected_paging
        )
        best_single = min(
            float(
                _signature_cuts(
                    instance,
                    order=by_device_probability(instance, device),
                    quorum=quorum,
                ).expected_paging
            )
            for device in range(num_devices)
        )
        adaptive_value = float(_adaptive_quorum(instance, quorum=quorum).expected_paging)
        table.add_row(quorum, weight_value, best_single, adaptive_value)
    table.add_note("k = m reduces to Conference Call; k = 1 to Yellow Pages")
    table.add_note("adaptive_ep replans the quorum search after every round")
    return table


def run_e12_bandwidth(
    *,
    num_devices: int = 2,
    num_cells: int = 12,
    rng: Optional[np.random.Generator] = None,
) -> ExperimentTable:
    """Bandwidth-limited paging: cost of tightening the per-round cap."""
    if rng is None:
        rng = np.random.default_rng(12)
    instance = instance_family(
        "zipf", num_devices, num_cells, num_cells, rng=rng
    )
    table = ExperimentTable(
        "E12",
        "Bandwidth cap b cells/round (Section 5 extension)",
        ["d", "b", "heuristic_ep", "optimal_ep", "uncapped_heuristic_ep"],
    )
    for d in (3, 4, 6):
        base = instance.with_max_rounds(d)
        uncapped = float(_heuristic(base).expected_paging)
        for b in sorted({num_cells, num_cells // 2, (num_cells + d - 1) // d}):
            if d * b < num_cells:
                continue
            capped = _heuristic(base, max_group_size=b)
            exact = _exact(base, max_group_size=b)
            table.add_row(
                d,
                b,
                float(capped.expected_paging),
                float(exact.expected_paging),
                uncapped,
            )
    table.add_note("tighter caps force flatter strategies and higher EP")
    return table


def run_e15_clustered(
    *,
    trials: int = 8,
    num_devices: int = 2,
    num_cells: int = 9,
    max_rounds: int = 3,
    rng: Optional[np.random.Generator] = None,
) -> ExperimentTable:
    """The clustered exhaustive scheme vs heuristic vs exact optimum."""
    if rng is None:
        rng = np.random.default_rng(15)
    table = ExperimentTable(
        "E15",
        "Clustered probabilities: exhaustive scheme (Section 5)",
        ["trial", "clusters", "scheme_ep", "heuristic_ep", "optimal_ep", "scheme_optimal"],
    )
    for trial in range(trials):
        instance = clustered_instance(
            num_devices, num_cells, max_rounds, rng=rng, num_levels=2
        )
        scheme = _clustered(instance)
        heuristic = _heuristic(instance)
        optimal = _exact(instance)
        table.add_row(
            trial,
            len(scheme.extras["clusters"]),
            float(scheme.expected_paging),
            float(heuristic.expected_paging),
            float(optimal.expected_paging),
            str(
                abs(float(scheme.expected_paging) - float(optimal.expected_paging))
                < 1e-9
            ),
        )
    table.add_note(
        "with exactly-repeating columns the cluster-symmetric search is optimal"
    )
    return table
