"""Cell topology: the adjacency structure of a wireless coverage area.

A :class:`CellTopology` wraps a networkx graph whose nodes are integer cell
ids.  Builders cover the standard shapes (hexagonal disk, hexagonal
rectangle, line, ring, torus grid); hop distances drive mobility models,
location-area construction, and the distance reporting policy.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import networkx as nx
import numpy as np

from ..errors import SimulationError
from .geometry import Hex, hex_disk, hex_rectangle


def build_neighbor_csr(
    table: Sequence[Sequence[int]],
) -> Tuple[np.ndarray, np.ndarray]:
    """A neighbor table as ``intp`` arrays ``(offsets, cells)``.

    ``cells[offsets[c]:offsets[c + 1]]`` lists ``table[c]`` in order.
    """
    offsets = np.zeros(len(table) + 1, dtype=np.intp)
    offsets[1:] = np.cumsum([len(row) for row in table])
    cells = np.array([cell for row in table for cell in row], dtype=np.intp)
    return offsets, cells


class CellTopology:
    """An undirected adjacency graph over cells ``0..c-1``."""

    def __init__(
        self,
        graph: nx.Graph,
        *,
        positions: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> None:
        expected = set(range(graph.number_of_nodes()))
        if set(graph.nodes) != expected:
            raise SimulationError(
                "topology nodes must be the contiguous integers 0..c-1"
            )
        if graph.number_of_nodes() == 0:
            raise SimulationError("topology needs at least one cell")
        if not nx.is_connected(graph):
            raise SimulationError("topology must be connected")
        self._graph = graph
        self._positions = dict(positions) if positions else {}
        # Built once: the graph is not edited after it is wrapped, and the
        # mobility models read this table on every device step.
        self._neighbor_table: Tuple[Tuple[int, ...], ...] = tuple(
            tuple(sorted(graph.neighbors(cell)))
            for cell in range(graph.number_of_nodes())
        )
        self._neighbor_csr = build_neighbor_csr(self._neighbor_table)
        for array in self._neighbor_csr:
            array.flags.writeable = False
        self._hop_distances: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @property
    def graph(self) -> nx.Graph:
        return self._graph

    @property
    def num_cells(self) -> int:
        return self._graph.number_of_nodes()

    def neighbors(self, cell: int) -> Tuple[int, ...]:
        """Adjacent cells, sorted for determinism."""
        return self._neighbor_table[cell]

    @property
    def neighbor_table(self) -> Tuple[Tuple[int, ...], ...]:
        """``neighbor_table[cell] == neighbors(cell)`` for every cell."""
        return self._neighbor_table

    @property
    def neighbor_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """:attr:`neighbor_table` as :func:`build_neighbor_csr` arrays (read-only).

        The compiled random-walk step reads this layout.
        """
        return self._neighbor_csr

    def position(self, cell: int) -> Tuple[float, float]:
        """Planar position of the cell center (for distance-flavored models)."""
        if cell not in self._positions:
            raise SimulationError(f"no position recorded for cell {cell}")
        return self._positions[cell]

    @property
    def hop_distances(self) -> np.ndarray:
        """All-pairs hop counts as one ``(cells, cells)`` int array.

        Built on first use and kept; ``hop_distances[a, b]`` equals
        ``hop_distance(a, b)``, and a row compared against a threshold
        gives a whole ring at once.
        """
        if self._hop_distances is None:
            table = np.empty((self.num_cells, self.num_cells), dtype=int)
            for source, lengths in nx.all_pairs_shortest_path_length(self._graph):
                table[source, list(lengths)] = list(lengths.values())
            table.flags.writeable = False
            self._hop_distances = table
        return self._hop_distances

    def hop_distance(self, source: int, target: int) -> int:
        """Shortest-path hop count (one entry of :attr:`hop_distances`)."""
        return int(self.hop_distances[source, target])

    def shortest_path(self, source: int, target: int) -> List[int]:
        """One shortest path, endpoints included."""
        return nx.shortest_path(self._graph, source, target)

    # ------------------------------------------------------------------
    # Builders
    # ------------------------------------------------------------------
    @classmethod
    def from_hexes(cls, hexes: Sequence[Hex]) -> "CellTopology":
        """Topology over explicit hex positions; adjacency = hex neighbors."""
        index = {position: cell for cell, position in enumerate(hexes)}
        graph = nx.Graph()
        graph.add_nodes_from(range(len(hexes)))
        for position, cell in index.items():
            for neighbor in position.neighbors():
                if neighbor in index:
                    graph.add_edge(cell, index[neighbor])
        positions = {
            cell: position.to_cartesian() for position, cell in index.items()
        }
        return cls(graph, positions=positions)

    @classmethod
    def hexagonal_disk(cls, radius: int) -> "CellTopology":
        """A disk-shaped hexagonal area (``1 + 3 R (R+1)`` cells)."""
        return cls.from_hexes(hex_disk(radius))

    @classmethod
    def hexagonal_rectangle(cls, rows: int, cols: int) -> "CellTopology":
        """A ``rows x cols`` hexagonal patch."""
        return cls.from_hexes(hex_rectangle(rows, cols))

    @classmethod
    def line(cls, num_cells: int) -> "CellTopology":
        """Cells along a highway: ``0 - 1 - ... - c-1``."""
        graph = nx.path_graph(num_cells)
        positions = {cell: (float(cell), 0.0) for cell in range(num_cells)}
        return cls(graph, positions=positions)

    @classmethod
    def ring(cls, num_cells: int) -> "CellTopology":
        """A ring road of cells."""
        graph = nx.cycle_graph(num_cells)
        return cls(graph)

    @classmethod
    def grid(cls, rows: int, cols: int) -> "CellTopology":
        """A Manhattan grid of cells (4-neighbor, with boundary)."""
        lattice = nx.grid_2d_graph(rows, cols)
        mapping = {(row, col): row * cols + col for row, col in lattice.nodes}
        graph = nx.relabel_nodes(lattice, mapping)
        positions = {
            row * cols + col: (float(col), float(row))
            for row in range(rows)
            for col in range(cols)
        }
        return cls(nx.Graph(graph), positions=positions)

    @classmethod
    def torus(cls, rows: int, cols: int) -> "CellTopology":
        """A wrap-around rectangular grid (no boundary effects)."""
        grid = nx.grid_2d_graph(rows, cols, periodic=True)
        mapping = {(row, col): row * cols + col for row, col in grid.nodes}
        graph = nx.relabel_nodes(grid, mapping)
        return cls(nx.Graph(graph))
