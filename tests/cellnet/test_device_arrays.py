"""The simulator's array bookkeeping pass against a per-device reference.

``CellularSimulator`` keeps every device's state in arrays and does one
step's location bookkeeping (handovers, lost fixes, the reporting
decision, registry updates, metrics, visit counts) in one array pass.
:class:`PerDeviceReference` keeps the loop that pass replaced: one device
at a time, a scalar :class:`MoveContext` per device, and the reporting
rules written out from their definitions, without the policy classes.
Both are stepped side by side and compared after every step.
"""

import dataclasses

import networkx as nx
import numpy as np
import pytest

from repro.cellnet import (
    AlwaysReport,
    CellTopology,
    CellularSimulator,
    DistanceReport,
    FaultModel,
    LACrossingReport,
    LocationAreaPlan,
    MoveContext,
    NeverReport,
    RandomWalk,
    SimulationConfig,
    TimerReport,
)
from repro.cellnet.mobility import step_random_walks

POLICIES = ("never", "always", "la", "distance", "timer")
FAULTS = {
    "no-fault": None,
    "update-loss": FaultModel(update_loss=0.5),
    "stale": FaultModel(stale_after=2),
}


class _Scalar(RandomWalk):
    """Same walk; not an exact RandomWalk, so it is stepped one at a time."""


def reference_decision(simulator, move):
    """Whether ``move`` reports, from each policy's definition."""
    config = simulator._config  # noqa: SLF001 - test introspection
    if config.reporting == "never":
        return False
    if config.reporting == "always":
        return move.old_cell != move.new_cell
    if config.reporting == "la":
        plan = simulator._plan  # noqa: SLF001
        return plan.area_of(move.old_cell) != plan.area_of(move.new_cell)
    if config.reporting == "distance":
        graph = simulator._topology.graph  # noqa: SLF001
        hops = nx.shortest_path_length(graph, move.last_reported_cell, move.new_cell)
        return hops >= config.distance_threshold
    return move.steps_since_report >= config.timer_period


class PerDeviceReference(CellularSimulator):
    """The per-device bookkeeping loop, as it ran before the array pass."""

    handovers = 0

    def _step_movement(self, time):
        rng = self._rng
        moves = None
        if self._walk_stays is not None:
            moves = step_random_walks(
                rng.bit_generator,
                self._cells.tolist(),
                self._walk_stays,
                self._topology.neighbor_table,
            )
        new_cells = []
        for index, model in enumerate(self._models):
            old_cell = int(self._cells[index])
            new_cell = model.step(old_cell, rng) if moves is None else moves[index]
            new_cells.append(new_cell)
            self._cells[index] = new_cell
            self._since_report[index] += 1
            if new_cell != old_cell:
                if time < self._busy_until[index]:
                    self.handovers += 1
                    self._registry.confirm(
                        index, new_cell, self._plan.area_of(new_cell), time
                    )
                else:
                    self._registry.invalidate_confirmation(index)
            move = MoveContext(
                index,
                old_cell,
                new_cell,
                time,
                int(self._last_reported[index]),
                int(self._since_report[index]),
            )
            if reference_decision(self, move):
                self._metrics.record_report()
                self._last_reported[index] = new_cell
                self._since_report[index] = 0
                if self._injector is None or self._injector.update_delivered(time):
                    self._registry.report(
                        index, self._plan.area_of(new_cell), new_cell, time
                    )
        self._visit_counts[self._device_rows, new_cells] += 1.0


def build(simulator_cls, *, model_type, reporting, faults, duration):
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    models = [
        model_type(topology, stay_probability=stay)
        for stay in (0.0, 0.3, 0.3, 0.5, 0.7, 0.9)
    ]
    config = SimulationConfig(
        horizon=80,
        call_rate=0.5,
        reporting=reporting,
        distance_threshold=2,
        timer_period=3,
        mean_call_duration=duration,
        faults=faults,
    )
    return simulator_cls(topology, plan, models, config, rng=np.random.default_rng(5))


def snapshot(simulator):
    """Every piece of state the bookkeeping writes."""
    registry = simulator.registry
    records = [
        dataclasses.astuple(registry.lookup(device))
        for device in registry.known_devices()
    ]
    return {
        "cells": simulator._cells.tolist(),  # noqa: SLF001
        "last_reported": simulator._last_reported.tolist(),  # noqa: SLF001
        "since_report": simulator._since_report.tolist(),  # noqa: SLF001
        "busy_until": simulator._busy_until.tolist(),  # noqa: SLF001
        "visit_counts": simulator._visit_counts.tolist(),  # noqa: SLF001
        "records": records,
        "updates_processed": registry.updates_processed,
        "metrics": dataclasses.asdict(simulator.metrics),
        "stream": simulator._rng.bit_generator.state,  # noqa: SLF001
    }


def advance(simulator, time):
    """One step of the legacy schedule: movement, then the step's calls."""
    simulator._step_movement(time)  # noqa: SLF001
    for request in simulator._calls.arrivals(time, simulator._rng):  # noqa: SLF001
        simulator._handle_call(request)  # noqa: SLF001


@pytest.mark.parametrize("duration", [0, 4], ids=["instant", "durations"])
@pytest.mark.parametrize("fault", sorted(FAULTS))
@pytest.mark.parametrize("reporting", POLICIES)
@pytest.mark.parametrize("movement", ["batched", "per-device"])
def test_array_pass_equals_per_device_loop(movement, reporting, fault, duration):
    model_type = RandomWalk if movement == "batched" else _Scalar
    options = dict(
        model_type=model_type,
        reporting=reporting,
        faults=FAULTS[fault],
        duration=duration,
    )
    arrays = build(CellularSimulator, **options)
    reference = build(PerDeviceReference, **options)
    batched = movement == "batched" and fault != "update-loss"
    assert (arrays._walk_stays is not None) == batched  # noqa: SLF001
    assert snapshot(arrays) == snapshot(reference)
    for time in range(1, 81):
        advance(arrays, time)
        advance(reference, time)
        assert snapshot(arrays) == snapshot(reference), f"step {time}"
        confirmed = {
            device
            for device in arrays.registry.known_devices()
            if arrays.registry.lookup(device).confirmed_cell is not None
        }
        # The registry's confirmed-cell column agrees with its records.
        column = arrays.registry._confirmed_cell  # noqa: SLF001
        assert set(np.flatnonzero(column != -1).tolist()) == confirmed
        assert arrays.registry.holds_fixes == bool(confirmed)
    assert arrays.metrics.calls_handled > 0
    if duration:
        assert reference.handovers > 0
    if fault == "update-loss" and reporting != "never":
        assert arrays.metrics.updates_lost > 0


def _policy(name, topology, plan):
    if name == "never":
        return NeverReport()
    if name == "always":
        return AlwaysReport()
    if name == "la":
        return LACrossingReport(plan)
    if name == "distance":
        return DistanceReport(topology, 2)
    return TimerReport(4)


@pytest.mark.parametrize("name", POLICIES)
def test_policy_on_arrays_equals_scalar_calls(name):
    topology = CellTopology.hexagonal_disk(3)
    plan = LocationAreaPlan.by_bfs(topology, 5)
    policy = _policy(name, topology, plan)
    rng = np.random.default_rng(3)
    n = 300
    old = rng.integers(topology.num_cells, size=n)
    # half the devices stay put, the rest land anywhere
    new = np.where(rng.random(n) < 0.5, old, rng.integers(topology.num_cells, size=n))
    last = rng.integers(topology.num_cells, size=n)
    steps = rng.integers(0, 8, size=n)
    step = MoveContext(np.arange(n), old, new, 9, last, steps)
    decided = np.broadcast_to(policy.should_report(step), (n,))
    scalar = [
        bool(
            policy.should_report(
                MoveContext(i, int(old[i]), int(new[i]), 9, int(last[i]), int(steps[i]))
            )
        )
        for i in range(n)
    ]
    assert decided.dtype == bool
    assert decided.tolist() == scalar
    if name != "never":
        assert 0 < sum(scalar) < n
