"""The location registry: the wired-backbone database of Section 1.1.

GSM MAP and IS-41 persist, per device, the most recently reported location
area in a database reachable over the wired backbone (the HLR/VLR pair).
:class:`LocationRegistry` models exactly that: the *system's belief* about
each device, which can lag reality between reports — the uncertainty the
paging optimizer exists to handle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, Optional, Sequence, Set, Tuple, Union

import numpy as np

from ..errors import SimulationError


@dataclass
class RegistryRecord:
    """What the system knows about one device."""

    reported_area: int
    reported_cell: Optional[int]
    updated_at: int
    #: set when the device is on an active call and thus precisely located
    confirmed_cell: Optional[int] = None

    def age(self, time: int) -> int:
        """Steps elapsed since this record was last touched."""
        return time - self.updated_at

    def confirmed_fix(
        self, *, time: Optional[int] = None, stale_after: Optional[int] = None
    ) -> Optional[int]:
        """The confirmed cell, unless the fix aged past ``stale_after``.

        With no staleness window (``stale_after=None``, the fault-free
        default) this is just ``confirmed_cell``.  Under fault injection
        (``FaultModel.stale_after``) a fix older than the window is
        distrusted — the system falls back to the reported-area belief,
        modelling registries that go stale between refreshes.
        """
        if self.confirmed_cell is None:
            return None
        if (
            stale_after is not None
            and time is not None
            and self.age(time) > stale_after
        ):
            return None
        return self.confirmed_cell


@dataclass
class LocationRegistry:
    """Per-device location beliefs with update accounting.

    Besides the records it keeps the set of devices whose record holds a
    confirmed fix, so invalidating the fixes of a whole step's movers
    touches only those devices (usually none).
    """

    _records: Dict[int, RegistryRecord] = field(default_factory=dict)
    updates_processed: int = 0
    _confirmed: Set[int] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._confirmed = {
            device
            for device, record in self._records.items()
            if record.confirmed_cell is not None
        }

    def register(self, device: int, area: int, cell: Optional[int], time: int) -> None:
        """Initial attach (power-on registration)."""
        self._records[device] = RegistryRecord(
            reported_area=area, reported_cell=cell, updated_at=time
        )
        self._confirmed.discard(device)

    def report(
        self,
        device: Union[int, Sequence[int]],
        area: Union[int, Sequence[int]],
        cell: Union[Optional[int], Sequence[int]],
        time: int,
    ) -> None:
        """Location update messages arriving over a wireless link.

        ``device``, ``area`` and ``cell`` are one device's update or
        equal-length sequences of many (a whole step's reporters), applied
        in order, each counted in ``updates_processed``.
        """
        if isinstance(device, (int, np.integer)):
            device, area, cell = (device,), (area,), (cell,)
        records = self._records
        confirmed = self._confirmed
        applied = 0
        try:
            for one, one_area, one_cell in zip(device, area, cell):
                record = records.get(one) or self._require(one)
                record.reported_area = one_area
                record.reported_cell = one_cell
                record.updated_at = time
                record.confirmed_cell = None
                confirmed.discard(one)
                applied += 1
        finally:
            # One count per applied update, also when an unknown device
            # (``_require`` raises) stops the batch part way.
            self.updates_processed += applied

    def confirm(self, device: int, cell: int, area: int, time: int) -> None:
        """Exact location learned as a side effect (e.g. found by paging)."""
        record = self._require(device)
        record.reported_area = area
        record.reported_cell = cell
        record.confirmed_cell = cell
        record.updated_at = time
        self._confirmed.add(device)

    def invalidate_confirmation(self, devices: Union[int, Iterable[int]]) -> None:
        """The devices moved since their last confirmation; the fixes are stale.

        ``devices`` is one device id or many (a whole step's movers); only
        those among them that hold a fix are touched.
        """
        if isinstance(devices, (int, np.integer)):
            self._require(int(devices))
            devices = (int(devices),)
        if not self._confirmed:
            return
        for device in self._confirmed.intersection(np.asarray(devices).tolist()):
            self._records[device].confirmed_cell = None
            self._confirmed.discard(device)

    def lookup(self, device: int) -> RegistryRecord:
        """The system's current belief (raises for unknown devices)."""
        return self._require(device)

    def known_devices(self) -> Tuple[int, ...]:
        return tuple(sorted(self._records))

    def _require(self, device: int) -> RegistryRecord:
        if device not in self._records:
            raise SimulationError(f"device {device} never registered")
        return self._records[device]
