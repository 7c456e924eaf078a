"""Unit tests for cell topologies."""

import networkx as nx
import pytest

from repro.cellnet import CellTopology
from repro.errors import SimulationError


class TestBuilders:
    def test_hexagonal_disk(self):
        topology = CellTopology.hexagonal_disk(2)
        assert topology.num_cells == 19
        degrees = [len(topology.neighbors(cell)) for cell in range(19)]
        assert max(degrees) == 6  # interior cells have six neighbors

    def test_hexagonal_rectangle(self):
        topology = CellTopology.hexagonal_rectangle(3, 4)
        assert topology.num_cells == 12

    def test_line(self):
        topology = CellTopology.line(5)
        assert topology.neighbors(0) == (1,)
        assert topology.neighbors(2) == (1, 3)
        assert topology.hop_distance(0, 4) == 4

    def test_ring(self):
        topology = CellTopology.ring(6)
        assert topology.hop_distance(0, 3) == 3
        assert topology.hop_distance(0, 5) == 1

    def test_torus(self):
        topology = CellTopology.torus(3, 4)
        assert topology.num_cells == 12
        degrees = [len(topology.neighbors(cell)) for cell in range(12)]
        assert all(degree == 4 for degree in degrees)

    def test_grid(self):
        topology = CellTopology.grid(3, 4)
        assert topology.num_cells == 12
        # Corners have 2 neighbors, edges 3, interior 4.
        assert len(topology.neighbors(0)) == 2
        assert len(topology.neighbors(1)) == 3
        assert len(topology.neighbors(5)) == 4
        assert topology.hop_distance(0, 11) == 5  # Manhattan distance
        assert topology.position(5) == (1.0, 1.0)


class TestValidation:
    def test_rejects_disconnected(self):
        graph = nx.Graph()
        graph.add_nodes_from(range(4))
        graph.add_edge(0, 1)
        graph.add_edge(2, 3)
        with pytest.raises(SimulationError, match="connected"):
            CellTopology(graph)

    def test_rejects_non_contiguous_labels(self):
        graph = nx.Graph()
        graph.add_edge(1, 2)
        with pytest.raises(SimulationError, match="contiguous"):
            CellTopology(graph)

    def test_rejects_empty(self):
        with pytest.raises(SimulationError):
            CellTopology(nx.Graph())


class TestDistances:
    def test_hop_distance_matches_networkx(self):
        topology = CellTopology.hexagonal_disk(2)
        lengths = dict(nx.all_pairs_shortest_path_length(topology.graph))
        for source in range(topology.num_cells):
            for target in range(topology.num_cells):
                assert topology.hop_distance(source, target) == lengths[source][target]

    @pytest.mark.parametrize(
        "topology",
        [CellTopology.hexagonal_disk(3), CellTopology.grid(3, 5), CellTopology.ring(7)],
        ids=["disk", "grid", "ring"],
    )
    def test_hop_distance_table_matches_networkx(self, topology):
        table = topology.hop_distances
        assert table.shape == (topology.num_cells, topology.num_cells)
        assert table.dtype.kind == "i"
        assert not table.flags.writeable
        assert table is topology.hop_distances  # built once
        lengths = dict(nx.all_pairs_shortest_path_length(topology.graph))
        for source in range(topology.num_cells):
            for target in range(topology.num_cells):
                assert table[source, target] == lengths[source][target]

    def test_shortest_path_endpoints(self):
        topology = CellTopology.line(6)
        path = topology.shortest_path(1, 4)
        assert path[0] == 1
        assert path[-1] == 4
        assert len(path) == 4

    def test_positions_available_for_geometric_builders(self):
        topology = CellTopology.hexagonal_disk(1)
        assert topology.position(0) is not None
        ringed = CellTopology.ring(4)
        with pytest.raises(SimulationError, match="position"):
            ringed.position(0)
