"""``LocationRegistry`` on whole batches, and against the dict-of-records registry.

The registry keeps its beliefs as array columns; the property suite at the
end runs seeded random streams of every update against the per-device
dictionary it replaced and compares every record after each operation.
"""

import numpy as np
import pytest

from repro.cellnet import LocationRegistry, RegistryRecord
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


def test_duplicates_in_a_large_batch_keep_the_later_update():
    rng = np.random.default_rng(3)
    registry, reference = LocationRegistry(), ReferenceRegistry()
    for device in range(300):
        registry.register(device, 0, 0, 0)
        reference.register(device, 0, 0, 0)
    ids = rng.integers(300, size=20_000)
    areas, cells = rng.integers(5, size=ids.size), rng.integers(60, size=ids.size)
    registry.report(ids, areas, cells, 9)
    reference.report(ids.tolist(), areas.tolist(), cells.tolist(), 9)
    _assert_same(registry, reference)


def test_lookup_is_a_snapshot():
    registry = _registry(2)
    record = registry.lookup(1)
    record.reported_cell = 5
    assert registry.lookup(1).reported_cell == 0
    registry.report(1, 3, 4, 2)
    assert record.updated_at == 0


class ReferenceRegistry:
    """The dict-of-records registry the array columns replaced.

    Kept as it was, except that ``invalidate_confirmation`` on many devices
    now rejects an unregistered id before it changes anything, as it always
    did for one device.
    """

    def __init__(self):
        self.records = {}
        self.updates_processed = 0

    def register(self, device, area, cell, time):
        self.records[device] = RegistryRecord(
            reported_area=area, reported_cell=cell, updated_at=time
        )

    def report(self, device, area, cell, time):
        if isinstance(device, (int, np.integer)):
            device, area, cell = (device,), (area,), (cell,)
        applied = 0
        try:
            for one, one_area, one_cell in zip(device, area, cell):
                record = self.lookup(one)
                record.reported_area = one_area
                record.reported_cell = one_cell
                record.updated_at = time
                record.confirmed_cell = None
                applied += 1
        finally:
            self.updates_processed += applied

    def confirm(self, device, cell, area, time):
        record = self.lookup(device)
        record.reported_area = area
        record.reported_cell = cell
        record.confirmed_cell = cell
        record.updated_at = time

    def invalidate_confirmation(self, devices):
        if isinstance(devices, (int, np.integer)):
            devices = (devices,)
        records = [self.lookup(device) for device in devices]
        for record in records:
            record.confirmed_cell = None

    def lookup(self, device):
        if device not in self.records:
            raise SimulationError(f"device {device} never registered")
        return self.records[device]

    def known_devices(self):
        return tuple(sorted(self.records))


#: Ids the streams draw from; the registered ones are a random subset.
IDS = 24


def _random_ids(rng, size):
    """Some batch of ids: unknown and negative ones included, in any order."""
    shape = rng.integers(4)
    if shape == 0:  # the simulator's form: strictly increasing, known or not
        return np.sort(rng.choice(IDS, size=min(size, IDS), replace=False))
    if shape == 1:  # duplicates, in draw order
        return rng.integers(IDS // 2, size=size)
    if shape == 2:  # unsorted, out of range on both sides
        return rng.integers(-3, IDS + 6, size=size)
    return rng.permutation(IDS)[:size]


def _random_operation(rng, time):
    kind = rng.choice(["register", "report", "report-one", "confirm", "invalidate",
                       "invalidate-one"], p=[0.15, 0.3, 0.1, 0.2, 0.15, 0.1])
    device = int(rng.integers(-1, IDS + 2))
    if kind == "register":
        return "register", (int(rng.integers(IDS)), int(rng.integers(5)),
                            int(rng.integers(30)), time)
    if kind == "report":
        ids = _random_ids(rng, int(rng.integers(0, 9)))
        areas = rng.integers(5, size=ids.size)
        cells = rng.integers(30, size=ids.size)
        if rng.random() < 0.5:
            ids, areas, cells = ids.tolist(), areas.tolist(), cells.tolist()
        return "report", (ids, areas, cells, time)
    if kind == "report-one":
        return "report", (device, int(rng.integers(5)), int(rng.integers(30)), time)
    if kind == "confirm":
        return "confirm", (device, int(rng.integers(30)), int(rng.integers(5)), time)
    if kind == "invalidate":
        ids = _random_ids(rng, int(rng.integers(0, 9)))
        return "invalidate_confirmation", (ids if rng.random() < 0.5 else ids.tolist(),)
    return "invalidate_confirmation", (device,)


def _assert_same(registry, reference):
    assert registry.known_devices() == reference.known_devices()
    assert registry.updates_processed == reference.updates_processed
    for device in range(-2, IDS + 3):
        if device in reference.records:
            assert registry.lookup(device) == reference.lookup(device)
        else:
            with pytest.raises(SimulationError):
                registry.lookup(device)
    held = any(r.confirmed_cell is not None for r in reference.records.values())
    assert registry.holds_fixes == held


@pytest.mark.parametrize("seed", range(12))
def test_random_streams_match_the_dict_of_records(seed):
    rng = np.random.default_rng(seed)
    registry, reference = LocationRegistry(), ReferenceRegistry()
    for device in rng.choice(IDS, size=IDS // 2, replace=False).tolist():
        registry.register(device, 0, device, 0)
        reference.register(device, 0, device, 0)
    raised = 0
    for time in range(1, 250):
        name, arguments = _random_operation(rng, time)
        outcomes = []
        for target in (registry, reference):
            try:
                getattr(target, name)(*arguments)
                outcomes.append(None)
            except SimulationError:
                outcomes.append(SimulationError)
        assert outcomes[0] == outcomes[1], (time, name, arguments)
        raised += outcomes[0] is not None
        _assert_same(registry, reference)
    assert 0 < raised < 200
    assert registry.updates_processed > 0


@pytest.mark.parametrize("capacity", [1, 5, 8, 9, 40])
def test_every_out_of_range_id_is_unknown(capacity):
    """Negative ids and ids past the columns never alias a registered one."""
    registry = _registry(capacity)
    for device in range(-3 * capacity - 20, 3 * capacity + 20):
        known = 0 <= device < capacity
        assert registry._known(np.array([device])).tolist() == [known]  # noqa: SLF001
        if known:
            registry.invalidate_confirmation([device])
            registry.lookup(device)
            continue
        for call in (
            lambda: registry.lookup(device),
            lambda: registry.confirm(device, 1, 1, 1),
            lambda: registry.invalidate_confirmation(device),
            lambda: registry.invalidate_confirmation([0, device]),
            lambda: registry.report(device, 1, 1, 1),
            lambda: registry.report([device], [1], [1], 1),
        ):
            with pytest.raises(SimulationError):
                call()
    assert registry.updates_processed == 0
