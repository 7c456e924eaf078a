"""System-level experiments (E7, E13, E27).

* E7 — the Theorem 4.8 complexity claim: heuristic runtime grows as
  ``O(c (m + d c))``.  The table records the best wall time of each size
  on its workload grid, normalized by that work term.
* E13 — the end-to-end cellular simulation: conference calls in a GSM-style
  system under blanket LA paging vs the paper's heuristic vs the adaptive
  variant, with identical mobility and call streams.
* E27 — batched replanning throughput: per-plan cost of one ``run_batch``
  call into the Fig. 1 kernel vs a loop of scalar ``heuristic`` calls (each
  a batch of one), with a bit-identity check per batch.
* E29 — heavy-traffic contention: concurrent call setups competing for
  finite per-cell paging channels (the event-driven engine), measuring
  blocking probability and setup-latency percentiles vs offered load and
  carrier count.
"""

from __future__ import annotations

import time
from typing import Sequence

import numpy as np

from ..cellnet.location_areas import LocationAreaPlan
from ..cellnet.mobility import GravityMobility
from ..cellnet.simulator import CellularSimulator, SimulationConfig
from ..cellnet.timevary import hmy_fixed_point, transition_matrix
from ..cellnet.topology import CellTopology
from ..distributions.generators import dirichlet_instance
from ..solvers import get_solver
from .tables import ExperimentTable

# Registry dispatch: experiments name solvers, they never import the
# concrete functions (tests/experiments/test_solver_imports.py enforces it).
_heuristic = get_solver("heuristic")


def heuristic_workload(
    num_devices: int, num_cells: int, max_rounds: int, *, seed: int = 7
):
    """A deterministic instance for timing runs."""
    rng = np.random.default_rng(seed)
    return dirichlet_instance(num_devices, num_cells, max_rounds, rng=rng)


def run_e07_dp_scaling(
    cell_counts: Sequence[int] = (20, 40, 80, 160),
    *,
    num_devices: int = 3,
    max_rounds: int = 5,
    repeats: int = 3,
) -> ExperimentTable:
    """Measured heuristic runtime vs the c(m + dc) work term."""
    table = ExperimentTable(
        "E7",
        "Theorem 4.8 scaling: heuristic time vs c(m + dc)",
        ["c", "m", "d", "seconds", "work_term", "ns_per_unit"],
    )
    for c in cell_counts:
        instance = heuristic_workload(num_devices, c, max_rounds)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            _heuristic(instance)
            best = min(best, time.perf_counter() - start)
        work = c * (num_devices + max_rounds * c)
        table.add_row(
            c,
            num_devices,
            max_rounds,
            best,
            work,
            best / work * 1e9,
        )
    table.add_note(
        "ns_per_unit should stay roughly flat: time tracks the O(c(m+dc)) term"
    )
    return table


def run_e13_cellnet(
    *,
    radius: int = 3,
    num_devices: int = 6,
    num_areas: int = 4,
    horizon: int = 600,
    call_rate: float = 0.08,
    max_rounds: int = 3,
    seed: int = 13,
) -> ExperimentTable:
    """Blanket vs heuristic vs adaptive paging in the simulated network.

    All three policies see identical topologies, mobility streams, and call
    arrivals (same seed), so the paging columns are directly comparable.
    """
    table = ExperimentTable(
        "E13",
        "End-to-end cellular simulation: link usage per paging policy",
        [
            "pager",
            "calls",
            "cells_per_call",
            "rounds_per_call",
            "reports",
            "total_wireless",
            "saving_vs_blanket",
        ],
    )
    rows = {}
    for pager in ("blanket", "heuristic", "adaptive"):
        rng = np.random.default_rng(seed)
        topology = CellTopology.hexagonal_disk(radius)
        plan = LocationAreaPlan.by_bfs(topology, num_areas)
        attraction = np.random.default_rng(seed + 1).uniform(
            0.5, 3.0, size=topology.num_cells
        )
        models = [
            GravityMobility(topology, attraction) for _ in range(num_devices)
        ]
        config = SimulationConfig(
            horizon=horizon,
            call_rate=call_rate,
            max_paging_rounds=max_rounds,
            reporting="la",
            pager=pager,
        )
        simulator = CellularSimulator(topology, plan, models, config, rng=rng)
        report = simulator.run()
        rows[pager] = report.metrics
    blanket_cells = rows["blanket"].mean_cells_per_call
    for pager in ("blanket", "heuristic", "adaptive"):
        metrics = rows[pager]
        saving = (
            0.0
            if blanket_cells == 0
            else 1.0 - metrics.mean_cells_per_call / blanket_cells
        )
        table.add_row(
            pager,
            metrics.calls_handled,
            metrics.mean_cells_per_call,
            metrics.mean_rounds_per_call,
            metrics.report_messages,
            metrics.total_wireless_messages,
            saving,
        )
    table.add_note(
        "the Section 1.1 motivation: multi-round paging cuts cells paged per "
        "call at the cost of delay (rounds_per_call)"
    )
    return table


def run_e27_batched_replanning(
    batch_sizes: Sequence[int] = (32, 128, 512),
    *,
    num_devices: int = 4,
    num_cells: int = 120,
    max_rounds: int = 5,
    seed: int = 27,
) -> ExperimentTable:
    """Per-plan cost of batched vs per-instance planning (ROADMAP item 2).

    One family of same-shape dirichlet instances is planned two ways
    through the ``heuristic`` registry entry: a per-instance loop of
    scalar calls and one ``run_batch`` call (whichever backend ``auto``
    resolves).  The ``identical`` column re-checks, per batch, that every
    batched plan (order, group sizes, value) matches its scalar
    counterpart exactly — the speedup never buys a different answer.
    """
    planner = get_solver("heuristic")
    table = ExperimentTable(
        "E27",
        "Batched replanning throughput: one kernel call vs a planner loop",
        ["batch", "loop_ms_per_plan", "batch_ms_per_plan", "speedup", "identical"],
    )
    rng = np.random.default_rng(seed)
    instances = [
        dirichlet_instance(num_devices, num_cells, max_rounds, rng=rng)
        for _ in range(max(batch_sizes))
    ]
    for batch_size in batch_sizes:
        stack = instances[:batch_size]
        start = time.perf_counter()
        loop_results = [planner(instance) for instance in stack]
        loop_seconds = time.perf_counter() - start
        start = time.perf_counter()
        plans = planner.run_batch(stack)
        batch_seconds = time.perf_counter() - start
        identical = all(
            plans.result(i).order == loop_results[i].extras["order"]
            and plans.result(i).group_sizes == loop_results[i].extras["group_sizes"]
            and plans.values[i].item() == loop_results[i].expected_paging
            for i in range(batch_size)
        )
        table.add_row(
            batch_size,
            loop_seconds / batch_size * 1e3,
            batch_seconds / batch_size * 1e3,
            loop_seconds / max(batch_seconds, 1e-12),
            identical,
        )
    table.add_note(
        "identical=True per row: one batched call reproduces the scalar "
        "calls' orders, cuts, and values bit for bit (backend "
        f"{planner.run_batch(instances[:1]).backend!r})"
    )
    return table


def run_e13_reporting_tradeoff(
    *,
    radius: int = 3,
    num_devices: int = 5,
    horizon: int = 500,
    call_rate: float = 0.08,
    seed: int = 131,
) -> ExperimentTable:
    """The reporting/paging trade-off across update policies (Section 1.1)."""
    table = ExperimentTable(
        "E13b",
        "Reporting vs paging trade-off across update policies",
        ["reporting", "reports", "cells_paged", "total_wireless"],
    )
    for reporting in ("never", "timer", "la", "distance", "always"):
        rng = np.random.default_rng(seed)
        topology = CellTopology.hexagonal_disk(radius)
        plan = LocationAreaPlan.by_bfs(topology, 4)
        attraction = np.random.default_rng(seed + 1).uniform(
            0.5, 3.0, size=topology.num_cells
        )
        models = [
            GravityMobility(topology, attraction) for _ in range(num_devices)
        ]
        config = SimulationConfig(
            horizon=horizon,
            call_rate=call_rate,
            max_paging_rounds=3,
            reporting=reporting,
            pager="heuristic",
        )
        simulator = CellularSimulator(topology, plan, models, config, rng=rng)
        report = simulator.run()
        metrics = report.metrics
        table.add_row(
            reporting,
            metrics.report_messages,
            metrics.cells_paged,
            metrics.total_wireless_messages,
        )
    table.add_note(
        "never-report maximizes paging, always-report maximizes updates; the "
        "LA policy sits between (the balance Section 1.1 describes)"
    )
    return table


def run_e28_timevary(
    *,
    radius: int = 3,
    num_devices: int = 5,
    horizon: int = 600,
    call_rate: float = 0.08,
    distance_threshold: int = 3,
    max_rounds: int = 3,
    seed: int = 28,
) -> ExperimentTable:
    """Time-varying operation: conditional priors and the HMY fixed point.

    Part one replays one seeded distance-reporting workload (identical
    topology, mobility streams, and call arrivals) under three priors —
    uniform (no knowledge), online visit counts (the static profile the
    paper cites), and conditional (matrix-power belief evolved from each
    device's last successful report, docs/timevary.md) — and compares
    expected cells paged per call.  Part two runs the Hajek–Mitzel–Yang
    registration/paging iteration for both policy families and records the
    full cost trajectory, one row per step, so convergence (monotone
    non-increasing combined cost) is visible in the output.
    """
    table = ExperimentTable(
        "E28",
        "Time-varying operation: conditional priors and the HMY iteration",
        ["row", "value", "detail"],
    )
    topology = CellTopology.hexagonal_disk(radius)
    plan = LocationAreaPlan.by_bfs(topology, 4)
    attraction = np.random.default_rng(seed + 1).uniform(
        0.5, 3.0, size=topology.num_cells
    )
    cells_per_call = {}
    for prior_mode in ("uniform", "online", "conditional"):
        rng = np.random.default_rng(seed)
        models = [
            GravityMobility(topology, attraction) for _ in range(num_devices)
        ]
        config = SimulationConfig(
            horizon=horizon,
            call_rate=call_rate,
            max_paging_rounds=max_rounds,
            reporting="distance",
            distance_threshold=distance_threshold,
            pager="heuristic",
            prior_mode=prior_mode,
        )
        simulator = CellularSimulator(topology, plan, models, config, rng=rng)
        metrics = simulator.run().metrics
        cells_per_call[prior_mode] = metrics.mean_cells_per_call
        table.add_row(
            f"paging prior={prior_mode}",
            metrics.mean_cells_per_call,
            f"calls={metrics.calls_handled} fallbacks={metrics.fallback_searches}",
        )
    matrix = transition_matrix(
        GravityMobility(topology, attraction), topology
    )
    hmy_candidates = {"timer": (2, 5, 10, 20), "distance": (1, 2, 3, 4)}
    for kind, candidates in hmy_candidates.items():
        result = hmy_fixed_point(
            topology,
            matrix,
            kind=kind,
            candidates=candidates,
            max_rounds=max_rounds,
            call_rate=call_rate,
        )
        for step in result.trajectory:
            table.add_row(
                f"hmy[{kind}] iter {step.iteration} ({step.phase})",
                step.evaluation.combined_cost,
                f"threshold={step.evaluation.threshold} "
                f"paging/call={step.evaluation.paging_per_call:.3f} "
                f"report_rate={step.evaluation.report_rate:.4f}",
            )
        table.add_row(
            f"hmy[{kind}] fixed point",
            result.evaluation.combined_cost,
            f"threshold={result.threshold} converged={result.converged}",
        )
    saving = 1.0 - cells_per_call["conditional"] / cells_per_call["online"]
    table.add_note(
        "conditional priors page "
        f"{saving:.1%} fewer cells per call than the static online profile "
        "on the same seeded workload (same calls, same movement)"
    )
    table.add_note(
        "each hmy trajectory is monotone non-increasing: alternating "
        "best-response registration against re-planned paging can only "
        "improve the combined per-step wireless cost (HMY, PAPERS.md)"
    )
    return table


def run_e29_contention(
    offered_loads: Sequence[float] = (0.25, 0.5, 1.0, 1.5),
    carrier_counts: Sequence[int] = (1, 2, 4),
    *,
    radius: int = 2,
    num_devices: int = 8,
    num_areas: int = 3,
    horizon: int = 400,
    channel_capacity: int = 1,
    max_rounds: int = 3,
    max_wait: int = 8,
    seed: int = 29,
) -> ExperimentTable:
    """Heavy-traffic contention: blocking vs offered load vs carriers.

    Every cell offers ``channel_capacity * carriers`` page slots per round
    through the event-driven engine (docs/contention.md); call arrivals are
    a true Poisson stream (``arrival_mode="poisson"``), so offered load may
    exceed one setup per step.  Each (load, carriers) point replays the
    identical seeded topology and mobility; the Erlang-style story to look
    for is blocking probability rising with offered load and falling as
    carriers are added, with the setup-latency tail (p95/p99) stretching
    well before blocking becomes visible.
    """
    table = ExperimentTable(
        "E29",
        "Shared-channel contention: blocking vs offered load vs carriers",
        [
            "load",
            "carriers",
            "offered",
            "blocked",
            "blocking_probability",
            "latency_p50",
            "latency_p95",
            "latency_p99",
            "occupancy",
        ],
    )
    for call_rate in offered_loads:
        for carriers in carrier_counts:
            rng = np.random.default_rng(seed)
            topology = CellTopology.hexagonal_disk(radius)
            plan = LocationAreaPlan.by_bfs(topology, num_areas)
            attraction = np.random.default_rng(seed + 1).uniform(
                0.5, 3.0, size=topology.num_cells
            )
            models = [
                GravityMobility(topology, attraction)
                for _ in range(num_devices)
            ]
            config = SimulationConfig(
                horizon=horizon,
                call_rate=call_rate,
                max_paging_rounds=max_rounds,
                pager="heuristic",
                channel_capacity=channel_capacity,
                carriers=carriers,
                max_wait=max_wait,
                arrival_mode="poisson",
                record_calls=False,
            )
            simulator = CellularSimulator(
                topology, plan, models, config, rng=rng
            )
            metrics = simulator.run().metrics
            table.add_row(
                call_rate,
                carriers,
                metrics.offered_calls,
                metrics.blocked_calls,
                metrics.blocking_probability,
                metrics.setup_latency_percentile(50),
                metrics.setup_latency_percentile(95),
                metrics.setup_latency_percentile(99),
                metrics.mean_channel_occupancy,
            )
    table.add_note(
        "blocking probability rises with offered load and falls with added "
        "carriers; the latency tail (p95/p99) degrades first — "
        "provisioning headroom shows up in delay before it shows up in loss"
    )
    return table
