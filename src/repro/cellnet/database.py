"""The location registry: the wired-backbone database of Section 1.1.

GSM MAP and IS-41 persist, per device, the most recently reported location
area in a database reachable over the wired backbone (the HLR/VLR pair).
:class:`LocationRegistry` models exactly that: the *system's belief* about
each device, which can lag reality between reports — the uncertainty the
paging optimizer exists to handle.

The registry keeps its beliefs as int columns indexed by device id (the
reported area, the reported cell, the step of the last update and the
confirmed cell, ``-1`` meaning no cell) next to a mask of registered ids,
so a whole step's location updates are a few fancy assignments rather
than a loop over devices.  :meth:`LocationRegistry.lookup` returns a
:class:`RegistryRecord` snapshot of one device's columns.  An id that was
never registered raises :class:`~repro.errors.SimulationError` in every
entry point, for one device and for many alike.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError

#: "No cell" in the reported-cell and confirmed-cell columns.
_NO_CELL = -1
#: The registered-id column's entry for an id never registered: no id
#: equals it.
_UNREGISTERED = np.iinfo(np.intp).min


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


class LocationRegistry:
    """Per-device location beliefs with update accounting.

    Two registries are equal when they know the same devices with the same
    beliefs and have processed the same number of updates.
    """

    __hash__ = None  # type: ignore[assignment]  # compared by state

    def __init__(self) -> None:
        #: location updates applied by :meth:`report`, one per device update
        self.updates_processed = 0
        self._area = np.zeros(0, dtype=np.intp)
        self._cell = np.zeros(0, dtype=np.intp)
        self._updated = np.zeros(0, dtype=np.intp)
        self._confirmed_cell = np.zeros(0, dtype=np.intp)
        # The registered mask, as ids: entry i is i when device i is
        # registered, else _UNREGISTERED.  So ``_registered[ids] == ids``
        # tells which ids are registered in one gather, also for negative
        # ids, which wrap round to another entry without matching it.
        self._registered = np.zeros(0, dtype=np.intp)

    # -- updates --------------------------------------------------------
    def register(self, device: int, area: int, cell: Optional[int], time: int) -> None:
        """Initial attach (power-on registration)."""
        if not isinstance(device, (int, np.integer)) or device < 0:
            raise SimulationError(f"device ids are non-negative integers, not {device!r}")
        if device >= self._area.size:
            self._grow(device + 1)
        self._registered[device] = device
        self._area[device] = area
        self._cell[device] = _NO_CELL if cell is None else cell
        self._updated[device] = time
        self._confirmed_cell[device] = _NO_CELL

    def report(
        self,
        device: Union[int, Sequence[int], np.ndarray],
        area: Union[int, Sequence[int], np.ndarray],
        cell: Union[Optional[int], Sequence[int], np.ndarray],
        time: int,
    ) -> None:
        """Location update messages arriving over a wireless link.

        ``device``, ``area`` and ``cell`` are one device's update or
        equal-length sequences of many (a whole step's reporters, best as
        ``intp`` arrays), applied in order, so a device listed twice keeps
        its later update; each is counted in ``updates_processed``.  An
        unregistered id raises after the updates before it are applied.
        """
        if isinstance(device, (int, np.integer)):
            self._require(device)
            self._area[device] = area
            self._cell[device] = _NO_CELL if cell is None else cell
            self._updated[device] = time
            self._confirmed_cell[device] = _NO_CELL
            self.updates_processed += 1
            return
        ids = np.asarray(device, dtype=np.intp)
        areas = np.asarray(area, dtype=np.intp)
        cells = np.asarray(cell, dtype=np.intp)
        if not ids.shape == areas.shape == cells.shape or ids.ndim != 1:
            raise SimulationError("need one area and one cell per reporting device")
        total = ids.size
        if not total:
            return
        known = self._known(ids)
        applied = total
        devices = ids
        if np.count_nonzero(known) != total:
            applied = int(np.argmin(known))
            devices, areas, cells = ids[:applied], areas[:applied], cells[:applied]
        # A 1-D fancy assignment writes in index order, so a device listed
        # twice keeps its later update (test_registry_batch pins this for
        # duplicate and unsorted batches).
        self._area[devices] = areas
        self._cell[devices] = cells
        self._updated[devices] = time
        self._confirmed_cell[devices] = _NO_CELL
        self.updates_processed += applied
        if applied < total:
            raise SimulationError(f"device {ids[applied]} never registered")

    def confirm(self, device: int, cell: int, area: int, time: int) -> None:
        """Exact location learned as a side effect (e.g. found by paging)."""
        self._require(device)
        self._area[device] = area
        self._cell[device] = cell
        self._confirmed_cell[device] = cell
        self._updated[device] = time

    def invalidate_confirmation(
        self, devices: Union[int, Iterable[int], np.ndarray]
    ) -> None:
        """The devices moved since their last confirmation; the fixes are stale.

        ``devices`` is one device id or many (a whole step's movers); the
        rest of each record keeps the confirmed belief.  Any unregistered
        id raises before anything changes.
        """
        if isinstance(devices, (int, np.integer)):
            self._require(devices)
            self._confirmed_cell[devices] = _NO_CELL
            return
        if not isinstance(devices, (np.ndarray, list, tuple)):
            devices = list(devices)
        ids = np.asarray(devices, dtype=np.intp)
        known = self._known(ids)
        if np.count_nonzero(known) != ids.size:
            unknown = ids[int(np.argmin(known))]
            raise SimulationError(f"device {unknown} never registered")
        self._confirmed_cell[ids] = _NO_CELL

    # -- reads ----------------------------------------------------------
    @property
    def holds_fixes(self) -> bool:
        """Whether any device holds a confirmed fix."""
        return np.count_nonzero(self._confirmed_cell != _NO_CELL) > 0

    def lookup(self, device: int) -> RegistryRecord:
        """A snapshot of the system's current belief (raises for unknown devices)."""
        self._require(device)
        cell = self._cell.item(device)
        confirmed = self._confirmed_cell.item(device)
        return RegistryRecord(
            self._area.item(device),
            None if cell == _NO_CELL else cell,
            self._updated.item(device),
            None if confirmed == _NO_CELL else confirmed,
        )

    def known_devices(self) -> Tuple[int, ...]:
        return tuple(np.flatnonzero(self._registered != _UNREGISTERED).tolist())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LocationRegistry):
            return NotImplemented
        devices = self.known_devices()
        if devices != other.known_devices():
            return False
        if self.updates_processed != other.updates_processed:
            return False
        ids = np.array(devices, dtype=np.intp)
        return all(
            np.array_equal(mine[ids], theirs[ids])
            for mine, theirs in zip(self._columns(), other._columns())
        )

    def __repr__(self) -> str:
        return (
            f"LocationRegistry(devices={len(self.known_devices())}, "
            f"updates_processed={self.updates_processed})"
        )

    # -- internals ------------------------------------------------------
    def _columns(self) -> Tuple[np.ndarray, ...]:
        return self._area, self._cell, self._updated, self._confirmed_cell

    def _grow(self, size: int) -> None:
        """Make room for ids below ``size``, at least doubling the capacity."""
        extra = max(size, 2 * self._area.size, 8) - self._area.size
        self._area, self._cell, self._updated, self._confirmed_cell = (
            np.concatenate((column, np.full(extra, _NO_CELL, np.intp)))
            for column in self._columns()
        )
        self._registered = np.concatenate(
            (self._registered, np.full(extra, _UNREGISTERED, np.intp))
        )

    def _known(self, ids: np.ndarray) -> np.ndarray:
        """Which of the ``intp`` ids are registered, as a bool array."""
        registered = self._registered
        try:
            return registered[ids] == ids
        except IndexError:
            inside = (ids >= 0) & (ids < registered.size)
            known = np.zeros(ids.size, dtype=bool)
            known[inside] = registered[ids[inside]] == ids[inside]
            return known

    def _require(self, device: int) -> None:
        try:
            if self._registered.item(device) == device:
                return
        except (IndexError, TypeError, ValueError):
            pass
        raise SimulationError(f"device {device} never registered")
