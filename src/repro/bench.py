"""The performance trajectory: ``repro bench`` → ``BENCH_<n>.json``.

Every optimization PR should be able to show its speedup against a recorded
baseline.  This module times the named kernel pairs on pinned seeds —

* scalar vs vectorized Monte Carlo (:mod:`repro.core.expected_paging` vs
  :mod:`repro.core.batch`) on an E22-scale instance,
* the pure-Python Fig. 1 reference (:mod:`repro.core.dp` via
  :func:`~repro.core.heuristic.conference_call_heuristic`) vs the
  ``heuristic`` registry entry on the same float instance — the batched
  kernel at batch size one, the path every float caller takes,
* scalar strategy scoring vs :func:`repro.core.batch.expected_paging_batch`,
* the serial vs parallel experiment runner,
* a sweep over the ``repro.solvers`` registry: every no-required-option
  solver that supports the pinned instance is timed under its registry
  name (heuristic kinds on a large instance, exact/variant kinds on a
  small one),
* the ``repro.service`` paging controller under a seeded closed-loop
  workload, in two regimes: ``service_cold_cache`` (a fresh controller
  per repeat — cache population plus batched planning) and
  ``service_warm_cache`` (replaying the stream against warmed caches —
  the steady-state hot path); per-pass hit rates land in the row params —

and appends one schema'd snapshot (min/median per benchmark plus machine
info) to the repo root as ``BENCH_<n>.json``, where ``n`` counts up from 0.
The committed ``BENCH_0.json`` is the trajectory's origin; future PRs add
``BENCH_1.json``, ``BENCH_2.json``, ... so regressions and wins stay
visible in-tree.

The ``smoke`` profile shrinks every size so CI can validate the pipeline in
seconds; its timings are not comparable across machines and exist only to
prove the trajectory machinery works.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

SCHEMA = "repro-bench/1"

#: Pinned seeds: the trajectory must time the same workload in every PR.
INSTANCE_SEED = 22
STRATEGY_SEED = 220
MONTE_CARLO_SEED = 2002

_BENCH_FILE = re.compile(r"^BENCH_(\d+)\.json$")

#: Size knobs per profile.  ``full`` is the recorded trajectory; ``smoke``
#: exists so CI can exercise the whole pipeline in a few seconds.
PROFILES: Dict[str, Dict[str, object]] = {
    "full": {
        "monte_carlo": {"devices": 4, "cells": 800, "rounds": 5, "trials": 100_000},
        "planner": {"devices": 4, "cells": 250, "rounds": 5},
        "batch_plan": {"devices": 4, "cells": 250, "rounds": 5, "batch": 1024},
        "batch_eval": {"devices": 4, "cells": 200, "rounds": 5, "strategies": 64},
        "runner": {"experiments": ["E1", "E2", "E4", "E5", "E8"], "jobs": 4},
        "solvers": {
            "large": {"devices": 4, "cells": 250, "rounds": 5, "kinds": ["heuristic"]},
            "small": {"devices": 3, "cells": 9, "rounds": 3, "kinds": ["exact", "variant"]},
        },
        "service": {
            "requests": 20000, "areas": 64, "devices": 3, "cells": 40,
            "rounds": 3, "profiles_per_area": 8, "hot_fraction": 0.97,
            "seed": 20060, "shards": 4, "cache_size": 8192, "window": 64,
        },
        "timevary": {
            "radius": 3, "kind": "distance", "threshold": 2,
            "candidates": [1, 2, 3], "rounds": 3, "call_rate": 0.08,
            "stay": 0.4,
        },
        "contention": {
            "radius": 3, "devices": 10, "areas": 4, "horizon": 1200,
            "call_rate": 2.0, "capacity": 1, "carriers": 2, "rounds": 3,
            "max_wait": 8, "seed": 29,
        },
        "repeats": 5,
    },
    "smoke": {
        "monte_carlo": {"devices": 3, "cells": 24, "rounds": 3, "trials": 400},
        "planner": {"devices": 3, "cells": 24, "rounds": 3},
        "batch_plan": {"devices": 3, "cells": 24, "rounds": 3, "batch": 16},
        "batch_eval": {"devices": 3, "cells": 16, "rounds": 3, "strategies": 6},
        "runner": {"experiments": ["E1", "E4"], "jobs": 2},
        "solvers": {
            "large": {"devices": 3, "cells": 24, "rounds": 3, "kinds": ["heuristic"]},
            "small": {"devices": 2, "cells": 7, "rounds": 2, "kinds": ["exact", "variant"]},
        },
        "service": {
            "requests": 1500, "areas": 8, "devices": 3, "cells": 12,
            "rounds": 3, "profiles_per_area": 4, "hot_fraction": 0.95,
            "seed": 20060, "shards": 2, "cache_size": 512, "window": 16,
        },
        "timevary": {
            "radius": 2, "kind": "distance", "threshold": 2,
            "candidates": [1, 2], "rounds": 3, "call_rate": 0.08,
            "stay": 0.4,
        },
        "contention": {
            "radius": 2, "devices": 6, "areas": 3, "horizon": 150,
            "call_rate": 0.8, "capacity": 1, "carriers": 1, "rounds": 3,
            "max_wait": 8, "seed": 29,
        },
        "repeats": 2,
    },
}


@dataclass
class BenchmarkTiming:
    """Repeated wall-clock timings of one named benchmark."""

    name: str
    params: Dict[str, object]
    times_s: List[float] = field(default_factory=list)

    @property
    def min_s(self) -> float:
        return min(self.times_s)

    @property
    def median_s(self) -> float:
        return float(np.median(self.times_s))

    def to_json(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "params": self.params,
            "repeats": len(self.times_s),
            "times_s": self.times_s,
            "min_s": self.min_s,
            "median_s": self.median_s,
        }


def _time(
    function: Callable[[], object],
    *,
    repeats: int,
    warmup: bool = True,
) -> List[float]:
    """Wall-clock ``function()`` ``repeats`` times (plus an untimed warmup)."""
    if warmup:
        function()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        function()
        times.append(time.perf_counter() - start)
    return times


def machine_info() -> Dict[str, object]:
    """The hardware/software context a timing is only comparable within."""
    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "processor": platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
    }


def _bench_instance(devices: int, cells: int, rounds: int) -> "object":
    from .core import PagingInstance

    rng = np.random.default_rng(INSTANCE_SEED)
    matrix = rng.dirichlet(np.ones(cells), size=devices)
    return PagingInstance.from_array(matrix, max_rounds=rounds)


def _random_strategies(cells: int, rounds: int, count: int) -> List["object"]:
    from .core import Strategy

    rng = np.random.default_rng(STRATEGY_SEED)
    strategies = []
    for _ in range(count):
        order = tuple(int(j) for j in rng.permutation(cells))
        cuts = np.sort(rng.choice(np.arange(1, cells), size=rounds - 1, replace=False))
        bounds = [0, *(int(cut) for cut in cuts), cells]
        sizes = tuple(bounds[i + 1] - bounds[i] for i in range(rounds))
        strategies.append(Strategy.from_order_and_sizes(order, sizes))
    return strategies


def _bench_monte_carlo(config: Dict[str, int], repeats: int) -> List[BenchmarkTiming]:
    from .core import expected_paging_monte_carlo, expected_paging_monte_carlo_fast
    from .solvers import get_solver

    instance = _bench_instance(
        int(config["devices"]), int(config["cells"]), int(config["rounds"])
    )
    strategy = get_solver("heuristic")(instance).strategy
    trials = int(config["trials"])
    params = dict(config)

    def scalar() -> float:
        return expected_paging_monte_carlo(
            instance, strategy, trials=trials, rng=np.random.default_rng(MONTE_CARLO_SEED)
        )

    def fast() -> float:
        return expected_paging_monte_carlo_fast(
            instance, strategy, trials=trials, rng=np.random.default_rng(MONTE_CARLO_SEED)
        )

    # The scalar loop reference is timed once, without warmup: at the full
    # profile's 100k trials it is tens of seconds per repetition, and the
    # vectorized kernel's speedup dwarfs any timer noise.
    scalar_times = _time(scalar, repeats=1, warmup=False)
    fast_times = _time(fast, repeats=repeats)
    return [
        BenchmarkTiming("monte_carlo_scalar", params, scalar_times),
        BenchmarkTiming("monte_carlo_fast", params, fast_times),
    ]


def _bench_planner(config: Dict[str, int], repeats: int) -> List[BenchmarkTiming]:
    from .core import conference_call_heuristic
    from .solvers import get_solver

    instance = _bench_instance(
        int(config["devices"]), int(config["cells"]), int(config["rounds"])
    )
    params = dict(config)
    # The two planners are cheap (ms-scale) and sensitive to slow
    # environment drift (CPU frequency, cache state, container neighbors),
    # so their repeats are interleaved rather than timed as back-to-back
    # blocks: drift lands on both rows instead of biasing whichever block
    # ran second.  The BENCH_0 -> BENCH_1 planner_reference ~18 ms ->
    # ~24 ms "regression" was exactly that bias (docs/performance.md).
    reference = lambda: conference_call_heuristic(instance)  # noqa: E731
    heuristic = get_solver("heuristic")
    registry = lambda: heuristic(instance)  # noqa: E731
    reference()
    registry()
    reference_times: List[float] = []
    registry_times: List[float] = []
    for _ in range(repeats):
        start = time.perf_counter()
        reference()
        reference_times.append(time.perf_counter() - start)
        start = time.perf_counter()
        registry()
        registry_times.append(time.perf_counter() - start)
    return [
        BenchmarkTiming("planner_reference", params, reference_times),
        BenchmarkTiming("planner_heuristic", params, registry_times),
    ]


def _bench_batch_plan(config: Dict[str, int], repeats: int) -> List[BenchmarkTiming]:
    """One ``plan_batch`` row per available backend, same shape as planner.

    The derived ``planner_batch_speedup`` is *per instance*: the scalar
    ``planner_heuristic`` time divided by the batched time over ``batch``.
    """
    from .core import available_backends, plan_batch

    batch = int(config["batch"])
    rng = np.random.default_rng(INSTANCE_SEED)
    matrices = rng.dirichlet(
        np.ones(int(config["cells"])), size=(batch, int(config["devices"]))
    )
    rounds = int(config["rounds"])
    timings = []
    for backend in available_backends():
        times = _time(
            lambda: plan_batch(matrices, rounds, backend=backend), repeats=repeats
        )
        params = dict(config)
        params["backend"] = backend
        timings.append(BenchmarkTiming(f"planner_batch_{backend}", params, times))
    return timings


def _bench_batch_eval(config: Dict[str, int], repeats: int) -> List[BenchmarkTiming]:
    from .core import expected_paging_batch, expected_paging_float

    instance = _bench_instance(
        int(config["devices"]), int(config["cells"]), int(config["rounds"])
    )
    strategies = _random_strategies(
        int(config["cells"]), int(config["rounds"]), int(config["strategies"])
    )
    params = dict(config)

    def scalar() -> List[float]:
        return [expected_paging_float(instance, strategy) for strategy in strategies]

    scalar_times = _time(scalar, repeats=repeats)
    batch_times = _time(
        lambda: expected_paging_batch(instance, strategies), repeats=repeats
    )
    return [
        BenchmarkTiming("batch_eval_scalar", params, scalar_times),
        BenchmarkTiming("batch_eval_batch", params, batch_times),
    ]


def _bench_runner(config: Dict[str, object], repeats: int) -> List[BenchmarkTiming]:
    from .experiments import run_experiments

    names = list(config["experiments"])  # type: ignore[arg-type]
    jobs = int(config["jobs"])  # type: ignore[arg-type]
    params = {"experiments": names, "jobs": jobs}
    serial_times = _time(
        lambda: run_experiments(names, jobs=1), repeats=max(1, repeats - 1), warmup=False
    )
    parallel_times = _time(
        lambda: run_experiments(names, jobs=jobs),
        repeats=max(1, repeats - 1),
        warmup=False,
    )
    return [
        BenchmarkTiming("runner_serial", params, serial_times),
        BenchmarkTiming("runner_parallel", params, parallel_times),
    ]


def _bench_solvers(
    config: Dict[str, Dict[str, object]], repeats: int
) -> List[BenchmarkTiming]:
    """Time every parameter-free registered solver that fits the instance.

    The registry is the source of truth: any solver added later shows up in
    the next trajectory snapshot automatically, timed under its registry
    name.  Solvers with required options (orders, quorums, cost vectors)
    and solvers whose ``supports`` predicate rejects the pinned instance
    are skipped — the sweep never fabricates inputs.
    """
    from .solvers import get_solver, list_solvers

    timings: List[BenchmarkTiming] = []
    for scale in ("large", "small"):
        cfg = dict(config[scale])
        kinds = set(cfg["kinds"])  # type: ignore[arg-type]
        instance = _bench_instance(
            int(cfg["devices"]), int(cfg["cells"]), int(cfg["rounds"])  # type: ignore[arg-type]
        )
        for spec in list_solvers():
            if spec.kind not in kinds or spec.required:
                continue
            solver = get_solver(spec.name)
            if not solver.supports(instance):
                continue
            times = _time(lambda: solver(instance), repeats=repeats)
            params = dict(cfg)
            params.update({"solver": spec.name, "kind": spec.kind})
            timings.append(BenchmarkTiming(f"solver_{spec.name}", params, times))
    return timings


def _bench_service(config: Dict[str, object], repeats: int) -> List[BenchmarkTiming]:
    """Closed-loop service throughput in the cold- and warm-cache regimes.

    *Cold* builds a fresh controller per repeat, so each timed pass pays
    cache population and the batched planning of every distinct profile;
    its hit rate is what workload recurrence alone buys.  *Warm* replays
    the same stream against one already-populated controller — the
    steady-state regime the >=10k req/s ROADMAP target speaks about.
    Per-pass hit rates are recorded in the row params so the trajectory
    captures quality of service, not just speed.
    """
    from .service import (
        PagingController,
        ServiceConfig,
        WorkloadConfig,
        build_requests,
        run_closed_loop,
    )

    workload = WorkloadConfig(
        requests=int(config["requests"]),
        areas=int(config["areas"]),
        devices=int(config["devices"]),
        cells=int(config["cells"]),
        rounds=int(config["rounds"]),
        profiles_per_area=int(config["profiles_per_area"]),
        hot_fraction=float(config["hot_fraction"]),
        seed=int(config["seed"]),
    )
    service = ServiceConfig(
        num_shards=int(config["shards"]),
        cache_size=int(config["cache_size"]),
        batch_window=int(config["window"]),
    )
    requests = build_requests(workload)

    cold_report = run_closed_loop(PagingController(service), requests)
    cold_times = _time(
        lambda: run_closed_loop(PagingController(service), requests),
        repeats=repeats,
        warmup=False,
    )
    warm_controller = PagingController(service)
    run_closed_loop(warm_controller, requests)
    warm_report = run_closed_loop(warm_controller, requests)
    warm_times = _time(
        lambda: run_closed_loop(warm_controller, requests),
        repeats=repeats,
        warmup=False,
    )
    params = dict(config)
    cold_params = dict(params)
    cold_params["hit_rate"] = round(float(cold_report["hit_rate"]), 4)
    cold_params["throughput_rps"] = round(float(cold_report["throughput_rps"]), 1)
    warm_params = dict(params)
    warm_params["hit_rate"] = round(float(warm_report["hit_rate"]), 4)
    warm_params["throughput_rps"] = round(float(warm_report["throughput_rps"]), 1)
    return [
        BenchmarkTiming("service_cold_cache", cold_params, cold_times),
        BenchmarkTiming("service_warm_cache", warm_params, warm_times),
    ]


def _bench_timevary(config: Dict[str, object], repeats: int) -> List[BenchmarkTiming]:
    """Conditional-prior re-planning and the HMY fixed-point iteration.

    ``timevary_evaluate`` times one full registration-policy evaluation —
    every reachable report age of every start cell re-planned through the
    batched Fig. 1 kernel; it is the per-candidate cost the joint
    iteration pays.  ``timevary_hmy`` times the whole alternation to its
    fixed point over the candidate thresholds; the reached threshold,
    cost, and convergence flag are recorded in the row params so the
    trajectory tracks answer quality alongside speed.
    """
    from .cellnet import (
        CellTopology,
        RandomWalk,
        evaluate_registration,
        hmy_fixed_point,
        random_walk_transition_matrix,
    )

    topology = CellTopology.hexagonal_disk(int(config["radius"]))
    walk = RandomWalk(topology, stay_probability=float(config["stay"]))
    matrix = random_walk_transition_matrix(walk, topology)
    kind = str(config["kind"])
    threshold = int(config["threshold"])
    candidates = [int(value) for value in config["candidates"]]  # type: ignore[union-attr]
    rounds = int(config["rounds"])
    call_rate = float(config["call_rate"])

    evaluation = evaluate_registration(
        topology,
        matrix,
        kind=kind,
        threshold=threshold,
        max_rounds=rounds,
        call_rate=call_rate,
    )
    evaluate_times = _time(
        lambda: evaluate_registration(
            topology,
            matrix,
            kind=kind,
            threshold=threshold,
            max_rounds=rounds,
            call_rate=call_rate,
        ),
        repeats=repeats,
    )
    result = hmy_fixed_point(
        topology,
        matrix,
        kind=kind,
        candidates=candidates,
        max_rounds=rounds,
        call_rate=call_rate,
    )
    hmy_times = _time(
        lambda: hmy_fixed_point(
            topology,
            matrix,
            kind=kind,
            candidates=candidates,
            max_rounds=rounds,
            call_rate=call_rate,
        ),
        repeats=repeats,
    )
    params = dict(config)
    evaluate_params = dict(params)
    evaluate_params["plans"] = evaluation.plans
    evaluate_params["batched"] = evaluation.batched
    hmy_params = dict(params)
    hmy_params["fixed_point_threshold"] = result.threshold
    hmy_params["fixed_point_cost"] = round(result.evaluation.combined_cost, 6)
    hmy_params["converged"] = result.converged
    return [
        BenchmarkTiming("timevary_evaluate", evaluate_params, evaluate_times),
        BenchmarkTiming("timevary_hmy", hmy_params, hmy_times),
    ]


def _bench_contention(
    config: Dict[str, object], repeats: int
) -> List[BenchmarkTiming]:
    """The event-driven engine: contended setup and legacy-path overhead.

    ``contention_engine`` times a heavy-traffic run — Poisson arrivals on
    finite per-cell channels, every setup queued through the
    :class:`~repro.cellnet.engine.ChannelScheduler` — and records the run's
    blocking probability in the row params so throughput is never read
    apart from the loss it came with.  ``contention_legacy_path`` times the
    same network and seed with ``channel_capacity=None`` (the engine façade
    replaying the historic step loop) at a light load: Bernoulli arrivals
    at ``call_rate`` 0.1 on one carrier.  Load and arrival process both
    differ from the engine row, so the pair is no measure of the engine's
    overhead; the legacy row records the parameters it actually runs.
    """
    from .cellnet import (
        CellTopology,
        CellularSimulator,
        LocationAreaPlan,
        RandomWalk,
        SimulationConfig,
    )

    radius = int(config["radius"])
    devices = int(config["devices"])
    seed = int(config["seed"])

    def run(contended: bool):
        rng = np.random.default_rng(seed)
        topology = CellTopology.hexagonal_disk(radius)
        plan = LocationAreaPlan.by_bfs(topology, int(config["areas"]))
        models = [
            RandomWalk(topology, stay_probability=0.3) for _ in range(devices)
        ]
        sim_config = SimulationConfig(
            horizon=int(config["horizon"]),
            call_rate=float(config["call_rate"]) if contended else 0.1,
            max_paging_rounds=int(config["rounds"]),
            channel_capacity=int(config["capacity"]) if contended else None,
            carriers=int(config["carriers"]) if contended else 1,
            max_wait=int(config["max_wait"]),
            arrival_mode="poisson" if contended else "bernoulli",
            record_calls=False,
        )
        simulator = CellularSimulator(
            topology, plan, models, sim_config, rng=rng
        )
        return simulator.run()

    engine_report = run(contended=True)
    engine_times = _time(lambda: run(contended=True), repeats=repeats)
    legacy_times = _time(lambda: run(contended=False), repeats=repeats)
    engine_params = dict(config)
    metrics = engine_report.metrics
    engine_params["offered_calls"] = metrics.offered_calls
    engine_params["blocked_calls"] = metrics.blocked_calls
    engine_params["blocking_probability"] = round(
        metrics.blocking_probability, 6
    )
    engine_params["latency_p95"] = metrics.setup_latency_percentile(95)
    legacy_params = dict(config)
    legacy_params["call_rate"] = 0.1
    legacy_params["capacity"] = None
    legacy_params["carriers"] = 1
    legacy_params["arrival_mode"] = "bernoulli"
    return [
        BenchmarkTiming("contention_engine", engine_params, engine_times),
        BenchmarkTiming("contention_legacy_path", legacy_params, legacy_times),
    ]


def _speedup(results: Dict[str, BenchmarkTiming], slow: str, fast: str) -> float:
    return results[slow].min_s / max(results[fast].min_s, 1e-12)


def run_benchmarks(profile: str = "full") -> Dict[str, object]:
    """Time every benchmark pair and assemble the trajectory payload."""
    if profile not in PROFILES:
        raise ValueError(f"unknown profile {profile!r}; known: {sorted(PROFILES)}")
    sizes = PROFILES[profile]
    repeats = int(sizes["repeats"])  # type: ignore[arg-type]
    timings: List[BenchmarkTiming] = []
    timings += _bench_monte_carlo(sizes["monte_carlo"], repeats)  # type: ignore[arg-type]
    timings += _bench_planner(sizes["planner"], repeats)  # type: ignore[arg-type]
    batch_plan_timings = _bench_batch_plan(sizes["batch_plan"], repeats)  # type: ignore[arg-type]
    timings += batch_plan_timings
    timings += _bench_batch_eval(sizes["batch_eval"], repeats)  # type: ignore[arg-type]
    timings += _bench_runner(sizes["runner"], repeats)  # type: ignore[arg-type]
    solver_timings = _bench_solvers(sizes["solvers"], repeats)  # type: ignore[arg-type]
    timings += solver_timings
    service_timings = _bench_service(sizes["service"], repeats)  # type: ignore[arg-type]
    timings += service_timings
    timevary_timings = _bench_timevary(sizes["timevary"], repeats)  # type: ignore[arg-type]
    timings += timevary_timings
    contention_timings = _bench_contention(sizes["contention"], repeats)  # type: ignore[arg-type]
    timings += contention_timings
    by_name = {timing.name: timing for timing in timings}
    # Per-instance speedup of the best batched backend over one scalar call.
    best_per_instance = min(
        timing.min_s / int(timing.params["batch"]) for timing in batch_plan_timings
    )
    planner_batch_speedup = by_name["planner_heuristic"].min_s / max(
        best_per_instance, 1e-12
    )
    return {
        "schema": SCHEMA,
        "profile": profile,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "machine": machine_info(),
        "benchmarks": [timing.to_json() for timing in timings],
        "derived": {
            "monte_carlo_speedup": _speedup(
                by_name, "monte_carlo_scalar", "monte_carlo_fast"
            ),
            "planner_batch_speedup": planner_batch_speedup,
            "batch_eval_speedup": _speedup(
                by_name, "batch_eval_scalar", "batch_eval_batch"
            ),
            "runner_speedup": _speedup(by_name, "runner_serial", "runner_parallel"),
            "solvers_timed": float(len(solver_timings)),
            # steady-state requests/sec of the paging controller (warm cache)
            "service_throughput": int(sizes["service"]["requests"])  # type: ignore[index]
            / max(by_name["service_warm_cache"].min_s, 1e-12),
            # conditional-prior re-plans per second inside one policy
            # evaluation (the inner loop of the HMY iteration)
            "timevary_replans_per_s": int(
                by_name["timevary_evaluate"].params["plans"]  # type: ignore[arg-type]
            )
            / max(by_name["timevary_evaluate"].min_s, 1e-12),
            # contended call setups pushed through the shared channels per
            # second of engine wall time (blocking recorded in row params)
            "contention_setups_per_s": int(
                by_name["contention_engine"].params["offered_calls"]  # type: ignore[arg-type]
            )
            / max(by_name["contention_engine"].min_s, 1e-12),
        },
    }


# ---------------------------------------------------------------------------
# Trajectory files
# ---------------------------------------------------------------------------

def next_bench_index(root: Path) -> int:
    """The next free ``n`` for ``BENCH_<n>.json`` under ``root``."""
    taken = [-1]
    for entry in root.iterdir() if root.is_dir() else ():
        match = _BENCH_FILE.match(entry.name)
        if match:
            taken.append(int(match.group(1)))
    return max(taken) + 1


def write_trajectory(
    payload: Dict[str, object],
    *,
    root: Optional[Path] = None,
    path: Optional[Path] = None,
) -> Path:
    """Persist one trajectory snapshot.

    With ``path`` the payload goes exactly there; otherwise it becomes the
    next ``BENCH_<n>.json`` at ``root`` (default: the project root found
    from the current directory).  The chosen index is recorded in the
    payload itself.
    """
    if path is None:
        if root is None:
            from .lint import find_project_root

            root = find_project_root(Path.cwd()) or Path.cwd()
        index = next_bench_index(root)
        path = root / f"BENCH_{index}.json"
    else:
        match = _BENCH_FILE.match(Path(path).name)
        index = int(match.group(1)) if match else None
    payload = dict(payload)
    payload["index"] = index
    path = Path(path)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def validate_payload(payload: object) -> List[str]:
    """Schema-check one trajectory payload; returns the list of problems."""
    problems: List[str] = []
    if not isinstance(payload, dict):
        return ["payload is not a JSON object"]
    if payload.get("schema") != SCHEMA:
        problems.append(f"schema must be {SCHEMA!r}, got {payload.get('schema')!r}")
    if payload.get("profile") not in PROFILES:
        problems.append(f"unknown profile {payload.get('profile')!r}")
    machine = payload.get("machine")
    if not isinstance(machine, dict) or "python" not in machine:
        problems.append("machine info missing (needs at least 'python')")
    benchmarks = payload.get("benchmarks")
    if not isinstance(benchmarks, list) or not benchmarks:
        problems.append("benchmarks must be a non-empty list")
        benchmarks = []
    for entry in benchmarks:
        if not isinstance(entry, dict):
            problems.append("benchmark entry is not an object")
            continue
        name = entry.get("name", "<unnamed>")
        for key in ("name", "params", "repeats", "times_s", "min_s", "median_s"):
            if key not in entry:
                problems.append(f"benchmark {name}: missing key {key!r}")
        times = entry.get("times_s")
        if isinstance(times, list) and times:
            if entry.get("repeats") != len(times):
                problems.append(f"benchmark {name}: repeats does not match times_s")
            lo, hi = min(times), max(times)
            min_s, median_s = entry.get("min_s"), entry.get("median_s")
            if not isinstance(min_s, (int, float)) or not lo <= min_s <= hi:
                problems.append(f"benchmark {name}: min_s outside observed times")
            if not isinstance(median_s, (int, float)) or not lo <= median_s <= hi:
                problems.append(f"benchmark {name}: median_s outside observed times")
        else:
            problems.append(f"benchmark {name}: times_s must be a non-empty list")
    derived = payload.get("derived")
    if not isinstance(derived, dict):
        problems.append("derived speedups missing")
    else:
        for key, value in derived.items():
            if not isinstance(value, (int, float)) or value <= 0:
                problems.append(f"derived {key}: must be a positive number")
    return problems


# ---------------------------------------------------------------------------
# Trajectory diffing
# ---------------------------------------------------------------------------

#: A benchmark (or derived speedup) counts as regressed past this ratio.
REGRESSION_THRESHOLD = 0.20


def _benchmark_mins(payload: Dict[str, object]) -> Dict[str, float]:
    mins: Dict[str, float] = {}
    for entry in payload.get("benchmarks", ()):  # type: ignore[union-attr]
        if isinstance(entry, dict) and isinstance(entry.get("min_s"), (int, float)):
            mins[str(entry["name"])] = float(entry["min_s"])
    return mins


def diff_payloads(
    previous: Dict[str, object],
    current: Dict[str, object],
    *,
    threshold: float = REGRESSION_THRESHOLD,
) -> Dict[str, object]:
    """Compare two trajectory snapshots metric by metric.

    Benchmarks regress when ``min_s`` grows by more than ``threshold``
    (20% by default); derived speedups regress when they *shrink* by more
    than the threshold.  Metrics present in only one snapshot are listed
    but never counted as regressions — a new solver is not a slowdown.
    """
    rows: List[Dict[str, object]] = []
    prev_mins, curr_mins = _benchmark_mins(previous), _benchmark_mins(current)
    for name in sorted(set(prev_mins) | set(curr_mins)):
        prev, curr = prev_mins.get(name), curr_mins.get(name)
        if prev is None or curr is None:
            rows.append(
                {"name": name, "prev_min_s": prev, "curr_min_s": curr,
                 "ratio": None, "regression": False,
                 "note": "only in one snapshot"}
            )
            continue
        ratio = curr / max(prev, 1e-12)
        rows.append(
            {"name": name, "prev_min_s": prev, "curr_min_s": curr,
             "ratio": ratio, "regression": ratio > 1.0 + threshold}
        )
    derived_rows: List[Dict[str, object]] = []
    prev_derived = previous.get("derived") or {}
    curr_derived = current.get("derived") or {}
    for name in sorted(set(prev_derived) & set(curr_derived)):  # type: ignore[arg-type]
        prev, curr = prev_derived[name], curr_derived[name]  # type: ignore[index]
        if not isinstance(prev, (int, float)) or not isinstance(curr, (int, float)):
            continue
        ratio = float(curr) / max(float(prev), 1e-12)
        derived_rows.append(
            {"name": name, "prev": float(prev), "curr": float(curr),
             "ratio": ratio, "regression": ratio < 1.0 - threshold}
        )
    regressions = [
        str(row["name"])
        for row in rows + derived_rows
        if row["regression"]
    ]
    return {
        "schema": "repro-bench-diff/1",
        "threshold": threshold,
        "prev_index": previous.get("index"),
        "curr_index": current.get("index"),
        "benchmarks": rows,
        "derived": derived_rows,
        "regressions": regressions,
    }


def render_diff(diff: Dict[str, object]) -> str:
    """Human-readable report for one :func:`diff_payloads` result."""
    lines = [
        f"bench diff (threshold {float(diff['threshold']) * 100:.0f}%): "  # type: ignore[arg-type]
        f"BENCH_{diff.get('prev_index')} -> BENCH_{diff.get('curr_index')}"
    ]
    for row in diff["benchmarks"]:  # type: ignore[union-attr]
        if row["ratio"] is None:
            lines.append(f"  {row['name']}: {row['note']}")
            continue
        flag = "  REGRESSION" if row["regression"] else ""
        lines.append(
            f"  {row['name']}: {row['prev_min_s'] * 1e3:.3f}ms -> "
            f"{row['curr_min_s'] * 1e3:.3f}ms ({row['ratio']:.2f}x){flag}"
        )
    for row in diff["derived"]:  # type: ignore[union-attr]
        flag = "  REGRESSION" if row["regression"] else ""
        lines.append(
            f"  {row['name']}: {row['prev']:.2f} -> {row['curr']:.2f} "
            f"({row['ratio']:.2f}x){flag}"
        )
    regressions = diff["regressions"]
    lines.append(
        f"{len(regressions)} regression(s)"  # type: ignore[arg-type]
        + (f": {', '.join(regressions)}" if regressions else "")  # type: ignore[arg-type]
    )
    return "\n".join(lines)


def latest_bench_path(root: Path) -> Optional[Path]:
    """The highest-numbered ``BENCH_<n>.json`` under ``root``, if any."""
    best: Optional[Path] = None
    best_index = -1
    for entry in root.iterdir() if root.is_dir() else ():
        match = _BENCH_FILE.match(entry.name)
        if match and int(match.group(1)) > best_index:
            best_index = int(match.group(1))
            best = entry
    return best


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the ``repro bench`` options to an argparse parser."""
    parser.add_argument(
        "--profile",
        choices=sorted(PROFILES),
        default="full",
        help="workload sizes: 'full' records the trajectory, 'smoke' is a "
        "seconds-long CI pipeline check",
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: the next BENCH_<n>.json at the repo root)",
    )
    parser.add_argument(
        "--root",
        default=None,
        help="repo root for auto-numbering (default: auto-detected)",
    )
    parser.add_argument(
        "--validate",
        default=None,
        metavar="PATH",
        help="validate an existing trajectory JSON and exit",
    )
    parser.add_argument(
        "--diff",
        default=None,
        metavar="PREV",
        help="compare PREV against the newest BENCH_<n>.json (or --against) "
        "and flag >20%% per-metric regressions; exits 1 when any regress",
    )
    parser.add_argument(
        "--against",
        default=None,
        metavar="CURR",
        help="the 'current' snapshot for --diff (default: newest BENCH_<n>)",
    )
    parser.add_argument(
        "--fail-rows",
        default=None,
        metavar="REGEX",
        help="with --diff: exit 1 only for regressed metrics matching REGEX "
        "(all rows are still reported); default: any regression exits 1",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a bench run described by parsed CLI arguments."""
    if args.diff is not None:
        root = Path(args.root).resolve() if args.root else None
        if root is None:
            from .lint import find_project_root

            root = find_project_root(Path.cwd()) or Path.cwd()
        current_path = (
            Path(args.against) if args.against else latest_bench_path(root)
        )
        if current_path is None:
            print(f"no BENCH_<n>.json found under {root}", file=sys.stderr)
            return 2
        try:
            previous = json.loads(Path(args.diff).read_text())
            current = json.loads(Path(current_path).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read trajectory: {error}", file=sys.stderr)
            return 2
        diff = diff_payloads(previous, current)
        print(render_diff(diff))
        regressions = [str(name) for name in diff["regressions"]]  # type: ignore[union-attr]
        if args.fail_rows is not None:
            pattern = re.compile(args.fail_rows)
            fatal = [name for name in regressions if pattern.search(name)]
            if fatal:
                print(
                    f"fatal regression(s) matching {args.fail_rows!r}: "
                    + ", ".join(fatal),
                    file=sys.stderr,
                )
            return 1 if fatal else 0
        return 1 if regressions else 0
    if args.validate is not None:
        try:
            payload = json.loads(Path(args.validate).read_text())
        except (OSError, json.JSONDecodeError) as error:
            print(f"cannot read {args.validate}: {error}", file=sys.stderr)
            return 2
        problems = validate_payload(payload)
        for problem in problems:
            print(f"{args.validate}: {problem}", file=sys.stderr)
        print(
            f"{args.validate}: "
            + ("valid" if not problems else f"{len(problems)} problem(s)")
        )
        return 0 if not problems else 1
    payload = run_benchmarks(args.profile)
    root = Path(args.root).resolve() if args.root else None
    path = Path(args.out) if args.out else None
    written = write_trajectory(payload, root=root, path=path)
    derived = payload["derived"]
    print(f"trajectory written to {written}")
    for key in sorted(derived):  # type: ignore[union-attr]
        if key.endswith("_throughput") or key.endswith("_per_s"):
            print(f"  {key}: {derived[key]:.0f}/s")  # type: ignore[index]
        else:
            print(f"  {key}: {derived[key]:.1f}x")  # type: ignore[index]
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Standalone entry point: ``python -m repro.bench``."""
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="time the batched/parallel kernels on pinned seeds and "
        "record one BENCH_<n>.json trajectory snapshot",
    )
    add_bench_arguments(parser)
    return run_from_args(parser.parse_args(argv))


if __name__ == "__main__":  # pragma: no cover - CLI entry point
    raise SystemExit(main())
