"""Location-update (reporting) policies.

The reporting/paging trade-off of Section 1.1: every report costs one uplink
wireless message but shrinks the search space of later pagings.  Policies:

* :class:`NeverReport` — pure paging (search the whole system on a call).
* :class:`AlwaysReport` — report every cell change (paging becomes free).
* :class:`LACrossingReport` — the GSM MAP / IS-41 standard: report when the
  broadcast location-area id changes.
* :class:`DistanceReport` — report after drifting ``k`` hops from the last
  reported cell [Bar-Noy & Kessler 1993 family].
* :class:`TimerReport` — report every ``T`` time steps regardless of motion.

A policy only decides that an update *is sent*; whether it arrives is the
network's business.  Under fault injection
(:class:`~repro.cellnet.faults.FaultModel` ``update_loss``) the simulator
still charges the uplink message to the metrics but may drop it before the
registry, so the system's belief goes stale exactly as a lossy uplink makes
it in the field.

The simulator asks a policy once per step, with a :class:`MoveContext` of
arrays (every device's move); the same ``should_report`` answers one
device's move with scalar fields.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Protocol

import numpy as np

from ..errors import SimulationError
from .location_areas import LocationAreaPlan
from .topology import CellTopology


@dataclass(frozen=True)
class MoveContext:
    """Everything a policy may inspect when devices move.

    Either one device's move (every field a scalar) or a whole simulated
    step (every field but ``time`` an equal-length array, entry ``i``
    describing device ``device[i]``).  Every policy's ``should_report``
    answers both: a bool for one move, a bool array for a step, equal
    entry by entry to the scalar calls.
    """

    device: Any
    old_cell: Any
    new_cell: Any
    time: int
    #: ``None`` only in a scalar context: the device has never reported
    last_reported_cell: Any
    steps_since_report: Any


class ReportingPolicy(Protocol):
    """Decides whether a move triggers a location-update message."""

    def should_report(self, move: MoveContext) -> Any: ...


class NeverReport:
    """Devices stay silent; calls must search everywhere."""

    def should_report(self, move: MoveContext) -> Any:
        return np.zeros(np.shape(move.new_cell), dtype=bool)


class AlwaysReport:
    """Report every cell change (maximum uplink traffic, zero search)."""

    def should_report(self, move: MoveContext) -> Any:
        return move.old_cell != move.new_cell


class LACrossingReport:
    """The GSM MAP / IS-41 standard policy (paper Section 1.1)."""

    def __init__(self, plan: LocationAreaPlan) -> None:
        self._areas = plan.area_table

    def should_report(self, move: MoveContext) -> Any:
        return self._areas[move.old_cell] != self._areas[move.new_cell]


class DistanceReport:
    """Report when ``hop_distance(last_reported, here) >= threshold``."""

    def __init__(self, topology: CellTopology, threshold: int) -> None:
        if threshold < 1:
            raise SimulationError("distance threshold must be at least 1")
        self._distances = topology.hop_distances
        self._threshold = threshold

    def should_report(self, move: MoveContext) -> Any:
        if move.last_reported_cell is None:
            return True
        return (
            self._distances[move.last_reported_cell, move.new_cell]
            >= self._threshold
        )


class TimerReport:
    """Report every ``period`` steps (movement-independent heartbeat)."""

    def __init__(self, period: int) -> None:
        if period < 1:
            raise SimulationError("period must be at least 1")
        self._period = period

    def should_report(self, move: MoveContext) -> Any:
        return move.steps_since_report >= self._period
