"""Unit tests for the location registry and reporting policies."""

import numpy as np
import pytest

from repro.cellnet import (
    AlwaysReport,
    CellTopology,
    DistanceReport,
    LACrossingReport,
    LocationAreaPlan,
    LocationRegistry,
    MoveContext,
    NeverReport,
    TimerReport,
)
from repro.errors import SimulationError


class TestRegistry:
    def test_register_and_lookup(self):
        registry = LocationRegistry()
        registry.register(0, area=1, cell=5, time=0)
        record = registry.lookup(0)
        assert record.reported_area == 1
        assert record.reported_cell == 5
        assert record.confirmed_cell is None

    def test_report_updates_belief(self):
        registry = LocationRegistry()
        registry.register(0, area=0, cell=0, time=0)
        registry.report(0, area=2, cell=9, time=5)
        record = registry.lookup(0)
        assert record.reported_area == 2
        assert record.updated_at == 5
        assert registry.updates_processed == 1

    def test_confirmation_cycle(self):
        registry = LocationRegistry()
        registry.register(0, area=0, cell=0, time=0)
        registry.confirm(0, cell=3, area=1, time=2)
        assert registry.lookup(0).confirmed_cell == 3
        registry.invalidate_confirmation(0)
        assert registry.lookup(0).confirmed_cell is None

    def test_invalidate_many_touches_only_fixes(self):
        registry = LocationRegistry()
        for device in range(5):
            registry.register(device, area=0, cell=device, time=0)
        registry.confirm(1, cell=7, area=2, time=3)
        registry.confirm(3, cell=8, area=2, time=3)
        registry.invalidate_confirmation(np.array([0, 1, 2, 4]))
        assert registry.lookup(1).confirmed_cell is None
        assert registry.lookup(3).confirmed_cell == 8
        # the rest of the record keeps the confirmed belief
        assert (registry.lookup(1).reported_cell, registry.lookup(1).updated_at) == (7, 3)
        registry.report(3, area=1, cell=4, time=5)
        registry.invalidate_confirmation(np.arange(5))
        assert all(registry.lookup(d).confirmed_cell is None for d in range(5))

    def test_invalidate_unknown_device_rejected(self):
        registry = LocationRegistry()
        with pytest.raises(SimulationError, match="registered"):
            registry.invalidate_confirmation(4)

    @pytest.mark.parametrize(
        "devices", [[7], [0, 7], np.array([1, 7, 0]), (-1,)], ids=str
    )
    def test_invalidate_many_rejects_unknown_device_before_any_change(
        self, devices
    ):
        registry = LocationRegistry()
        for device in range(3):
            registry.register(device, area=0, cell=device, time=0)
            registry.confirm(device, cell=4, area=1, time=1)
        with pytest.raises(SimulationError, match="registered"):
            registry.invalidate_confirmation(devices)
        assert [registry.lookup(d).confirmed_cell for d in range(3)] == [4, 4, 4]

    def test_unknown_device_rejected(self):
        registry = LocationRegistry()
        with pytest.raises(SimulationError, match="registered"):
            registry.lookup(9)

    def test_known_devices_sorted(self):
        registry = LocationRegistry()
        registry.register(3, 0, 0, 0)
        registry.register(1, 0, 0, 0)
        assert registry.known_devices() == (1, 3)


def move(old, new, *, last=None, steps=1, time=1):
    return MoveContext(
        device=0,
        old_cell=old,
        new_cell=new,
        time=time,
        last_reported_cell=last,
        steps_since_report=steps,
    )


class TestPolicies:
    def test_never(self):
        assert not NeverReport().should_report(move(0, 5))

    def test_always(self):
        policy = AlwaysReport()
        assert policy.should_report(move(0, 1))
        assert not policy.should_report(move(2, 2))

    def test_la_crossing(self):
        plan = LocationAreaPlan([[0, 1], [2, 3]], 4)
        policy = LACrossingReport(plan)
        assert policy.should_report(move(1, 2))
        assert not policy.should_report(move(0, 1))

    def test_distance(self):
        topology = CellTopology.line(6)
        policy = DistanceReport(topology, threshold=2)
        assert not policy.should_report(move(0, 1, last=0))
        assert policy.should_report(move(1, 2, last=0))
        assert policy.should_report(move(0, 1, last=None))  # never reported yet

    def test_distance_rejects_bad_threshold(self):
        topology = CellTopology.line(3)
        with pytest.raises(SimulationError):
            DistanceReport(topology, threshold=0)

    def test_timer(self):
        policy = TimerReport(period=5)
        assert not policy.should_report(move(0, 1, steps=4))
        assert policy.should_report(move(0, 1, steps=5))

    def test_timer_rejects_bad_period(self):
        with pytest.raises(SimulationError):
            TimerReport(period=0)
