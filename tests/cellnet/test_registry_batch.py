"""``LocationRegistry.report`` on a whole step's reporters at once."""

import pytest

from repro.cellnet import LocationRegistry
from repro.errors import SimulationError


def _registry(devices):
    registry = LocationRegistry()
    for device in range(devices):
        registry.register(device, area=0, cell=0, time=0)
    return registry


def test_many_equal_one_at_a_time():
    devices, areas, cells = [4, 0, 2, 4], [1, 2, 3, 5], [7, 8, 9, 11]
    batched = _registry(6)
    batched.confirm(2, cell=3, area=1, time=1)
    single = _registry(6)
    single.confirm(2, cell=3, area=1, time=1)
    batched.report(devices, areas, cells, 5)
    for device, area, cell in zip(devices, areas, cells):
        single.report(device, area, cell, 5)
    assert batched == single
    assert batched.updates_processed == 4
    # device 4 reported twice: the later update wins, as in device order
    assert batched.lookup(4).reported_cell == 11
    assert batched.lookup(2).confirmed_cell is None


def test_unknown_device_raises_after_the_earlier_updates():
    registry = _registry(2)
    with pytest.raises(SimulationError):
        registry.report([1, 7, 0], [3, 3, 3], [4, 4, 4], 2)
    assert registry.updates_processed == 1
    assert registry.lookup(1).reported_cell == 4
    assert registry.lookup(0).reported_cell == 0
