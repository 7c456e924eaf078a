"""The layers the benchmark attributes time to, and how it hooks them.

Each layer is named after its module and charged through the public entry
points listed in :data:`HOOKS`.  Functions that other modules import by
name are hooked where they are bound (``plan_pending_call`` in the
simulator module, ``build_sub_instance`` in the engine, paging and faults
modules), because that is the name the caller looks up.

Known gap: the simulator's private step handlers (movement loop, candidate
sets, priors) have no public entry point, so their time is the self time
of ``cellnet.engine.events``.  Splitting it needs spans inside the
program.
"""

from __future__ import annotations

from typing import Dict, Mapping

from spans import Hook, Tracer

#: Root span of every traced run: the benchmark's own loop.
DRIVER = "bench.driver"

LAYERS = (
    "cellnet.simulator",
    "cellnet.engine.events",
    "cellnet.engine.scheduler",
    "cellnet.engine.admission",
    "cellnet.calls",
    "cellnet.mobility",
    "cellnet.reporting",
    "cellnet.database",
    "cellnet.paging",
    "cellnet.faults",
    "cellnet.metrics",
    "cellnet.timevary",
    "core.instance",
    "solvers",
    "service.controller",
    "service.cache",
    DRIVER,
)


def _queue_depth(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    tracer.counters["engine.queue_depth_sum"] += args[0].active_calls


def _sub_instance(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    cells = args[1] if len(args) > 1 else kwargs["candidate_cells"]
    tracer.counters["paging.sub_instances"] += 1
    tracer.counters["paging.sub_instance_cells"] += len(cells)


def _found(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    record = args[1] if len(args) > 1 else kwargs["record"]
    tracer.counters["paging.found"] += record.participants - record.failed_devices


def _planner_inputs(tracer: Tracer, keys: list) -> None:
    seen = tracer.seen["solvers"]
    counters = tracer.counters
    counters["solvers.planner_calls"] += 1
    counters["solvers.instances"] += len(keys)
    for key in keys:
        if key in seen:
            counters["solvers.repeat_inputs"] += 1
        else:
            seen.add(key)


def _solve_one(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    instance = args[1] if len(args) > 1 else kwargs["instance"]
    rounds = kwargs.get("max_rounds", instance.max_rounds)
    _planner_inputs(
        tracer, [hash((instance.rows, rounds, kwargs.get("max_group_size")))]
    )


def _solve_batch(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    instances = args[1] if len(args) > 1 else kwargs["instances"]
    rounds = kwargs.get("max_rounds")
    cap = kwargs.get("max_group_size")
    if hasattr(instances, "tobytes"):  # a (batch, devices, cells) stack
        keys = [hash((row.tobytes(), rounds, cap)) for row in instances]
    else:
        keys = [
            hash((item.rows, item.max_rounds if rounds is None else rounds, cap))
            for item in instances
        ]
    _planner_inputs(tracer, keys)


def _evaluation(tracer: Tracer, args: tuple, kwargs: dict) -> None:
    key = (tuple(id(arg) for arg in args), tuple(sorted(kwargs.items())))
    seen = tracer.seen["timevary"]
    tracer.counters["timevary.evaluations"] += 1
    if key in seen:
        tracer.counters["timevary.repeat_evaluations"] += 1
    seen.add(key)


HOOKS = (
    Hook("cellnet.simulator", "repro.cellnet.simulator", "CellularSimulator.run"),
    Hook("cellnet.engine.events", "repro.cellnet.engine", "EventEngine.run"),
    Hook("cellnet.engine.scheduler", "repro.cellnet.engine", "ChannelScheduler.admit"),
    Hook("cellnet.engine.scheduler", "repro.cellnet.engine",
         "ChannelScheduler.serve_round", _queue_depth),
    Hook("cellnet.engine.scheduler", "repro.cellnet.engine", "ChannelScheduler.on_retry"),
    Hook("cellnet.engine.scheduler", "repro.cellnet.engine", "ChannelScheduler.drain"),
    Hook("cellnet.engine.admission", "repro.cellnet.simulator", "plan_pending_call"),
    Hook("cellnet.calls", "repro.cellnet.calls", "PoissonConferenceCalls.arrivals"),
    Hook("cellnet.mobility", "repro.cellnet.mobility", "RandomWalk.step"),
    Hook("cellnet.reporting", "repro.cellnet.reporting", "LACrossingReport.should_report"),
    Hook("cellnet.reporting", "repro.cellnet.reporting", "DistanceReport.should_report"),
    Hook("cellnet.database", "repro.cellnet.database", "LocationRegistry.register"),
    Hook("cellnet.database", "repro.cellnet.database", "LocationRegistry.report"),
    Hook("cellnet.database", "repro.cellnet.database", "LocationRegistry.confirm"),
    Hook("cellnet.database", "repro.cellnet.database",
         "LocationRegistry.invalidate_confirmation"),
    Hook("cellnet.database", "repro.cellnet.database", "LocationRegistry.lookup"),
    Hook("cellnet.paging", "repro.cellnet.engine", "build_sub_instance", _sub_instance),
    Hook("cellnet.paging", "repro.cellnet.paging", "build_sub_instance", _sub_instance),
    Hook("cellnet.paging", "repro.cellnet.faults", "build_sub_instance", _sub_instance),
    Hook("cellnet.paging", "repro.cellnet.paging", "HeuristicPager.search"),
    Hook("cellnet.faults", "repro.cellnet.faults", "FaultInjector.page_delivered"),
    Hook("cellnet.faults", "repro.cellnet.faults", "FaultInjector.update_delivered"),
    Hook("cellnet.metrics", "repro.cellnet.metrics", "LinkUsageMetrics.record_call", _found),
    Hook("cellnet.metrics", "repro.cellnet.metrics", "LinkUsageMetrics.record_*"),
    Hook("cellnet.timevary", "repro.cellnet.timevary", "BeliefPropagator.distribution"),
    Hook("cellnet.timevary", "repro.cellnet.timevary", "BeliefPropagator.evolve"),
    Hook("cellnet.timevary", "repro.cellnet.timevary", "registration_cycle"),
    Hook("cellnet.timevary", "repro.cellnet.timevary", "evaluate_registration", _evaluation),
    Hook("core.instance", "repro.core.instance", "PagingInstance.__init__"),
    Hook("solvers", "repro.solvers.registry", "RegisteredSolver.__call__", _solve_one),
    Hook("solvers", "repro.solvers.registry", "RegisteredSolver.run_batch", _solve_batch),
    Hook("service.controller", "repro.service.controller", "PagingController.submit"),
    Hook("service.controller", "repro.service.controller", "PagingController.poll"),
    Hook("service.controller", "repro.service.controller", "PagingController.flush"),
    Hook("service.cache", "repro.service.cache", "PlanCache.get"),
    Hook("service.cache", "repro.service.cache", "PlanCache.put"),
    Hook("service.cache", "repro.service.controller", "plan_cache_key"),
)


def _ratio(numerator: float, denominator: float) -> float:
    return float(numerator) / float(denominator) if denominator else 0.0


def layer_metrics(
    tracer: Tracer,
    stats: Mapping[str, float],
    *,
    untraced_s: float,
    unhooked: int,
) -> Dict[str, float]:
    """Every per-layer metric of one traced run, by its benchmark name.

    ``stats`` carries the run's own totals (cells paged, calls handled,
    cache hit rate, ...) under the keys used below; a workload that has
    no such layer leaves them out and the ratio reads 0.
    """
    totals = tracer.layer_totals()
    attributed = sum(entry["self_s"] for entry in totals.values())
    calls = tracer.hook_calls
    counters = tracer.counters
    values: Dict[str, float] = {}
    for layer in LAYERS:
        entry = totals.get(layer, {"calls": 0.0, "self_s": 0.0})
        values[f"{layer}.calls"] = float(entry["calls"])
        values[f"{layer}.self_share"] = _ratio(entry["self_s"], attributed)

    def hooked(qualname: str, module: str = "repro.cellnet.engine") -> float:
        return float(calls.get(f"{module}:{qualname}", 0))

    rounds = hooked("ChannelScheduler.serve_round")
    registry = [
        hooked(f"LocationRegistry.{name}", "repro.cellnet.database")
        for name in ("register", "report", "confirm", "invalidate_confirmation", "lookup")
    ]
    instances = counters["solvers.instances"]
    evaluations = counters["timevary.evaluations"]
    values.update({
        "solvers.instances": instances,
        "solvers.batch_rows_mean": _ratio(instances, counters["solvers.planner_calls"]),
        "solvers.repeat_input_share": _ratio(counters["solvers.repeat_inputs"], instances),
        "cellnet.paging.sub_instance_cells_mean": _ratio(
            counters["paging.sub_instance_cells"], counters["paging.sub_instances"]
        ),
        "cellnet.paging.found_per_page": _ratio(
            counters["paging.found"], stats.get("cells_paged", 0)
        ),
        "cellnet.paging.fallback_share": _ratio(
            stats.get("fallback_searches", 0), stats.get("calls_handled", 0)
        ),
        "cellnet.engine.queue_depth_mean": _ratio(
            counters["engine.queue_depth_sum"], rounds
        ),
        "cellnet.engine.deferred_per_call": _ratio(
            stats.get("deferred_steps", 0), stats.get("offered_calls", 0)
        ),
        "cellnet.engine.pages_per_round": _ratio(stats.get("pages_sent", 0), rounds),
        "cellnet.faults.retries_per_call": _ratio(
            stats.get("retry_rounds", 0), stats.get("calls_handled", 0)
        ),
        "cellnet.faults.loss_share": _ratio(
            stats.get("pages_lost", 0),
            hooked("FaultInjector.page_delivered", "repro.cellnet.faults"),
        ),
        "cellnet.reporting.report_share": _ratio(
            stats.get("report_messages", 0),
            hooked("RandomWalk.step", "repro.cellnet.mobility"),
        ),
        "cellnet.database.read_share": _ratio(registry[-1], sum(registry)),
        "cellnet.timevary.evaluations": evaluations,
        "cellnet.timevary.repeat_evaluation_share": _ratio(
            counters["timevary.repeat_evaluations"], evaluations
        ),
        "service.cache.hit_rate": float(stats.get("hit_rate", 0.0)),
        "service.batch_rows_mean": float(stats.get("batch_rows_mean", 0.0)),
        "loadgen.late_share": float(stats.get("late_share", 0.0)),
        "trace.overhead_share": _ratio(tracer.root_s - untraced_s, untraced_s),
        "trace.unhooked_count": float(unhooked),
    })
    return values


def layer_seconds(tracer: Tracer) -> Dict[str, float]:
    """Corrected self seconds per layer (printed, kept out of the metrics:
    a layer a workload never enters would read exactly 0 s every run)."""
    totals = tracer.layer_totals()
    return {
        f"{layer}.self_s": totals.get(layer, {"self_s": 0.0})["self_s"]
        for layer in LAYERS
    }
