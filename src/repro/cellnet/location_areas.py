"""Location areas: the GSM MAP / IS-41 cell partitioning (paper Section 1.1).

Production systems partition the cells into location areas (LAs); devices
report when crossing LA boundaries and the system pages only within the last
reported LA.  :class:`LocationAreaPlan` is that partition plus lookup helpers;
builders produce balanced plans by BFS growth over the topology or by simple
index blocks.
"""

from __future__ import annotations

from collections import deque
from typing import FrozenSet, List, Optional, Sequence, Tuple

import numpy as np

from ..errors import SimulationError
from .topology import CellTopology


class LocationAreaPlan:
    """A partition of the cells into named location areas."""

    def __init__(self, areas: Sequence[Sequence[int]], num_cells: int) -> None:
        normalized = tuple(frozenset(int(cell) for cell in area) for area in areas)
        if not normalized:
            raise SimulationError("need at least one location area")
        seen: set = set()
        for index, area in enumerate(normalized):
            if not area:
                raise SimulationError(f"location area {index} is empty")
            if seen & area:
                raise SimulationError("location areas overlap")
            seen |= area
        if seen != set(range(num_cells)):
            raise SimulationError("location areas must cover every cell exactly once")
        self._areas = normalized
        self._sorted_cells = tuple(tuple(sorted(area)) for area in normalized)
        self._area_table = np.empty(num_cells, dtype=int)
        for index, area in enumerate(normalized):
            self._area_table[list(area)] = index
        self._area_table.flags.writeable = False

    # ------------------------------------------------------------------
    @property
    def num_areas(self) -> int:
        return len(self._areas)

    @property
    def areas(self) -> Tuple[FrozenSet[int], ...]:
        return self._areas

    @property
    def area_table(self) -> np.ndarray:
        """``area_table[cell] == area_of(cell)``: the cell-to-LA map as an array."""
        return self._area_table

    def area_of(self, cell: int) -> int:
        """The LA id broadcast by the cell's base station."""
        if not 0 <= cell < self._area_table.size:
            raise SimulationError(f"cell {cell} belongs to no location area")
        return self._area_table.item(cell)

    def cells_of(self, area: int) -> Tuple[int, ...]:
        """Cells of an LA, sorted (the candidate set for paging)."""
        return self._sorted_cells[area]

    def crosses_boundary(self, old_cell: int, new_cell: int) -> bool:
        """Whether a move triggers a GSM-style location update."""
        return self.area_of(old_cell) != self.area_of(new_cell)

    def sizes(self) -> Tuple[int, ...]:
        return tuple(len(area) for area in self._areas)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def single_area(cls, num_cells: int) -> "LocationAreaPlan":
        """One LA covering everything (never report, always search widely)."""
        return cls([range(num_cells)], num_cells)

    @classmethod
    def by_blocks(cls, num_cells: int, area_size: int) -> "LocationAreaPlan":
        """Contiguous index blocks of (up to) ``area_size`` cells."""
        if area_size < 1:
            raise SimulationError("area_size must be positive")
        areas = [
            range(start, min(start + area_size, num_cells))
            for start in range(0, num_cells, area_size)
        ]
        return cls(areas, num_cells)

    @classmethod
    def by_bfs(
        cls,
        topology: CellTopology,
        num_areas: int,
        *,
        rng: Optional[np.random.Generator] = None,
    ) -> "LocationAreaPlan":
        """Grow ``num_areas`` connected areas of balanced size by BFS.

        Seeds are spread deterministically (or randomly with ``rng``); each
        area claims unclaimed cells in breadth-first waves, so areas stay
        connected — the physically meaningful shape for an LA.
        """
        c = topology.num_cells
        if not 1 <= num_areas <= c:
            raise SimulationError(f"need 1 <= num_areas <= {c}")
        if rng is None:
            seeds = [int(round(i * (c - 1) / max(1, num_areas - 1))) for i in range(num_areas)]
            seeds = sorted(set(seeds))
            extra = [cell for cell in range(c) if cell not in seeds]
            seeds = (seeds + extra)[:num_areas]
        else:
            seeds = [int(s) for s in rng.choice(c, size=num_areas, replace=False)]
        owner = [-1] * c
        queues: List[deque] = []
        for index, seed in enumerate(seeds):
            owner[seed] = index
            queues.append(deque([seed]))
        remaining = c - num_areas
        while remaining > 0:
            progressed = False
            for index, queue in enumerate(queues):
                while queue:
                    cell = queue.popleft()
                    claimed = False
                    for neighbor in topology.neighbors(cell):
                        if owner[neighbor] == -1:
                            owner[neighbor] = index
                            queues[index].append(neighbor)
                            remaining -= 1
                            claimed = True
                            progressed = True
                            break
                    if claimed:
                        queue.appendleft(cell)
                        break
                if remaining == 0:
                    break
            if not progressed and remaining > 0:
                # Connected topology guarantees progress; this is defensive.
                for cell in range(c):
                    if owner[cell] == -1:
                        owner[cell] = 0
                        remaining -= 1
        areas: List[List[int]] = [[] for _ in range(num_areas)]
        for cell, area in enumerate(owner):
            areas[area].append(cell)
        return cls(areas, c)
