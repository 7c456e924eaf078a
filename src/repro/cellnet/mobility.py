"""Mobility models for devices roaming the cell topology.

Three classical models, all exposing the same one-step interface so the
simulator and the trace-based distribution estimator can swap them freely:

* :class:`RandomWalk` — stay put with some probability, otherwise hop to a
  uniformly random neighboring cell.  :func:`step_random_walks` steps many
  of them in one call (in the compiled library when it loads), with the
  same result and the same generator state as stepping them one by one;
  :class:`BoundWalks` binds those arguments once for a whole run and
  steps them with :meth:`BoundWalks.step`.
* :class:`RandomWaypoint` — pick a random destination cell, walk a shortest
  path toward it (optionally pausing), then pick a new destination.
* :class:`GravityMobility` — neighbor choice biased by per-cell attraction
  weights (hotspots), producing the skewed stationary distributions that the
  paging optimizer thrives on.
"""

from __future__ import annotations

import ctypes
from typing import Dict, List, Optional, Protocol, Sequence, Tuple, Union

import numpy as np

from ..errors import SimulationError
from ..core.backends import auto_kernel
from .topology import CellTopology, build_neighbor_csr


class MobilityModel(Protocol):
    """One device's movement rule: current cell in, next cell out."""

    def step(self, cell: int, rng: np.random.Generator) -> int:
        """The cell occupied after one time step."""
        ...


class RandomWalk:
    """Stay with probability ``stay_probability``, else hop to a neighbor.

    One step draws ``rng.random()`` and, when the device moves to one of
    ``k >= 2`` neighbors, ``rng.integers(k)``.  The simulator steps a
    population of exact ``RandomWalk`` instances through
    :meth:`BoundWalks.step`, which reproduces those draws without calling
    :meth:`step`; a subclass that overrides :meth:`step` is stepped one
    device at a time.
    """

    def __init__(self, topology: CellTopology, *, stay_probability: float = 0.4) -> None:
        if not 0 <= stay_probability < 1:
            raise SimulationError("stay_probability must lie in [0, 1)")
        self._topology = topology
        self._neighbors = topology.neighbor_table
        self._stay = stay_probability

    @property
    def topology(self) -> CellTopology:
        return self._topology

    @property
    def stay_probability(self) -> float:
        """The model's stay parameter (its kernel is a closed form of it)."""
        return self._stay

    def step(self, cell: int, rng: np.random.Generator) -> int:
        if rng.random() < self._stay:
            return cell
        neighbors = self._neighbors[cell]
        if not neighbors:
            return cell
        return int(neighbors[rng.integers(len(neighbors))])


_OFF_TOPOLOGY = "a device's cell is not a cell of the topology"


class BoundWalks:
    """One population's repeated walk steps, with their arguments bound.

    Made once for a run, it binds the generator, the ``intp`` array the
    caller keeps the devices' cells in (and updates in place between
    steps), their ``float64`` stay probabilities and the topology's
    :attr:`~CellTopology.neighbor_csr`.  It reads the addresses the
    compiled kernel takes once, so :meth:`step` reads none, and each step
    writes into the one reused buffer :attr:`out`, which the next step
    overwrites: copy the result out before stepping again.
    """

    __slots__ = ("bit_generator", "cells", "stays", "csr", "out", "arguments")

    def __init__(
        self,
        bit_generator: np.random.BitGenerator,
        cells: np.ndarray,
        stays: np.ndarray,
        csr: Tuple[np.ndarray, np.ndarray],
    ) -> None:
        for array, dtype in ((cells, np.intp), (stays, np.float64)):
            if array.dtype != dtype or array.ndim != 1 or not array.flags.c_contiguous:
                raise SimulationError(
                    f"bound walks need a C-contiguous 1-D {np.dtype(dtype)} array"
                )
        if stays.size != cells.size:
            raise SimulationError("need one stay probability per device")
        offsets, flat = csr
        self.bit_generator = bit_generator
        self.cells = cells
        self.stays = stays
        self.csr = csr
        self.out = np.empty_like(cells)
        # ctypes objects of the declared argument types pass unconverted.
        address, size = ctypes.c_void_p, ctypes.c_ssize_t
        self.arguments = (
            bit_generator.ctypes.bit_generator,
            size(cells.size),
            address(cells.ctypes.data),
            address(stays.ctypes.data),
            size(offsets.size - 1),
            address(offsets.ctypes.data),
            address(flat.ctypes.data),
            address(self.out.ctypes.data),
        )

    def step(self) -> np.ndarray:
        """One :class:`RandomWalk` step of every bound device, into :attr:`out`.

        Device ``i`` is in ``cells[i]`` and stays with probability
        ``stays[i]``.  The result equals ``[walk.step(cell, rng) for ...]``
        in device order on ``rng = np.random.Generator(bit_generator)``,
        draw for draw, and the generator is left in exactly the state that
        loop leaves it in.  A cell off the topology raises
        :class:`~repro.errors.SimulationError` before anything is drawn.

        With the compiled library (:func:`~repro.core.backends.auto_kernel`,
        asked on every step) the loop runs in C on the bit generator's own
        ``next_double`` and ``next_uint32``, holding ``bit_generator.lock``
        as ``Generator`` methods do, so it replays any numpy bit generator.
        Without it the same loop runs in Python: ``random()``, then
        ``integers(k)`` when the device moves and has ``k`` neighbors, the
        very calls :meth:`RandomWalk.step` makes.
        """
        kernel = auto_kernel()
        if kernel is None:
            offsets, flat = (array.tolist() for array in self.csr)
            cells = self.cells.tolist()
            if cells and (min(cells) < 0 or max(cells) >= len(offsets) - 1):
                raise SimulationError(_OFF_TOPOLOGY)
            rng = np.random.Generator(self.bit_generator)
            for index, (cell, stay) in enumerate(zip(cells, self.stays.tolist())):
                if rng.random() < stay:
                    continue
                first = offsets[cell]
                k = offsets[cell + 1] - first
                if k:
                    cells[index] = flat[first + rng.integers(k)]
            self.out[...] = cells
            return self.out
        with self.bit_generator.lock:
            status = kernel.repro_step_walks(*self.arguments)
        if status != 0:
            raise SimulationError(_OFF_TOPOLOGY)
        return self.out


def step_random_walks(
    bit_generator: np.random.BitGenerator,
    cells: Union[Sequence[int], np.ndarray],
    stay: Union[Sequence[float], np.ndarray],
    neighbors: Sequence[Sequence[int]],
    csr: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Union[List[int], np.ndarray]:
    """One :class:`RandomWalk` step of every device, in one call.

    Device ``i`` is in ``cells[i]`` and stays with probability ``stay[i]``;
    ``neighbors`` is the topology's :attr:`~CellTopology.neighbor_table`
    and ``csr``, when given, its :attr:`~CellTopology.neighbor_csr`.  The
    step is :meth:`BoundWalks.step` on a binding made for this one call,
    with its draws and its errors.  The result is a list, or an ``intp``
    array when ``cells`` is an array.  A ``stay`` of another length raises
    :class:`~repro.errors.SimulationError` before anything is drawn.
    """
    if len(stay) != len(cells):
        raise SimulationError("need one stay probability per device")
    as_array = isinstance(cells, np.ndarray)
    if len(cells) == 0:
        return np.empty(0, dtype=np.intp) if as_array else []
    moved = BoundWalks(
        bit_generator,
        np.ascontiguousarray(cells, dtype=np.intp),
        np.ascontiguousarray(stay, dtype=np.float64),
        build_neighbor_csr(neighbors) if csr is None else csr,
    ).step()
    return moved if as_array else moved.tolist()


class RandomWaypoint:
    """Walk shortest paths to random destinations, pausing in between.

    Keeps one active path, so an instance models exactly *one* device.
    Sharing one instance across devices silently corrupts every path (each
    device keeps hijacking the other's journey); :meth:`step` detects the
    interleaved calls and raises instead.  Use :meth:`clone_for_devices` to
    mint one independent instance per device, and :meth:`reset` to reuse an
    instance for a fresh trace.
    """

    def __init__(self, topology: CellTopology, *, pause_probability: float = 0.2) -> None:
        if not 0 <= pause_probability < 1:
            raise SimulationError("pause_probability must lie in [0, 1)")
        self._topology = topology
        self._pause = pause_probability
        self._path: List[int] = []
        self._last_cell: Optional[int] = None

    @property
    def pause_probability(self) -> float:
        return self._pause

    def reset(self) -> None:
        """Forget the active path; the next step plans a fresh journey."""
        self._path = []
        self._last_cell = None

    def clone_for_devices(self, count: int) -> List["RandomWaypoint"]:
        """``count`` independent same-parameter instances, one per device."""
        if count < 1:
            raise SimulationError("count must be at least 1")
        return [
            RandomWaypoint(self._topology, pause_probability=self._pause)
            for _ in range(count)
        ]

    def step(self, cell: int, rng: np.random.Generator) -> int:
        if (
            self._path
            and self._last_cell is not None
            and cell != self._last_cell
        ):
            raise SimulationError(
                "RandomWaypoint stepped from a cell it never returned while "
                "mid-journey — one instance is being shared across devices; "
                "use clone_for_devices() (or reset() between traces)"
            )
        if rng.random() < self._pause:
            self._last_cell = cell
            return cell
        if not self._path or self._path[0] != cell:
            destination = int(rng.integers(self._topology.num_cells))
            self._path = self._topology.shortest_path(cell, destination)
        if len(self._path) <= 1:
            self._path = []
            self._last_cell = cell
            return cell
        self._path = self._path[1:]
        self._last_cell = self._path[0]
        return self._path[0]


class GravityMobility:
    """Neighbor choice weighted by per-cell attraction (hotspot behavior)."""

    def __init__(
        self,
        topology: CellTopology,
        attraction: Sequence[float],
        *,
        stay_bonus: float = 1.0,
    ) -> None:
        if len(attraction) != topology.num_cells:
            raise SimulationError("need one attraction weight per cell")
        if any(weight <= 0 for weight in attraction):
            raise SimulationError("attraction weights must be positive")
        if stay_bonus <= 0:
            raise SimulationError("stay_bonus must be positive")
        self._topology = topology
        self._attraction = [float(weight) for weight in attraction]
        self._stay_bonus = stay_bonus

    @property
    def attraction(self) -> List[float]:
        """Per-cell attraction weights (the kernel is a closed form of them)."""
        return list(self._attraction)

    @property
    def stay_bonus(self) -> float:
        return self._stay_bonus

    def step(self, cell: int, rng: np.random.Generator) -> int:
        candidates = [cell] + list(self._topology.neighbors(cell))
        weights = np.array(
            [self._attraction[cell] * self._stay_bonus]
            + [self._attraction[neighbor] for neighbor in candidates[1:]]
        )
        weights = weights / weights.sum()
        return int(rng.choice(candidates, p=weights))


def generate_trace(
    model: MobilityModel,
    start_cell: int,
    steps: int,
    rng: np.random.Generator,
) -> List[int]:
    """A movement trace: the sequence of occupied cells, start included."""
    if steps < 0:
        raise SimulationError("steps must be non-negative")
    trace = [start_cell]
    cell = start_cell
    for _ in range(steps):
        cell = model.step(cell, rng)
        trace.append(cell)
    return trace


def stationary_distribution(
    model: MobilityModel,
    topology: CellTopology,
    *,
    start_cell: int = 0,
    burn_in: int = 500,
    samples: int = 5_000,
    rng: Optional[np.random.Generator] = None,
) -> np.ndarray:
    """Empirical long-run occupancy of a mobility model.

    Used by the end-to-end experiment to obtain the "true" location
    distribution against which the trace-based estimator is judged.
    """
    if burn_in < 0:
        raise SimulationError("burn_in must be non-negative")
    if samples < 1:
        raise SimulationError("samples must be at least 1")
    if rng is None:
        rng = np.random.default_rng(0)
    cell = start_cell
    for _ in range(burn_in):
        cell = model.step(cell, rng)
    counts: Dict[int, int] = {}
    for _ in range(samples):
        cell = model.step(cell, rng)
        counts[cell] = counts.get(cell, 0) + 1
    distribution = np.zeros(topology.num_cells)
    for visited, count in counts.items():
        distribution[visited] = count
    total = distribution.sum()
    if total <= 0:
        raise SimulationError("trace produced no visits; cannot normalize")
    return distribution / total
