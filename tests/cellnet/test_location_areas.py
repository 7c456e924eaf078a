"""Unit tests for location-area plans."""

import pytest

from repro.cellnet import CellTopology, LocationAreaPlan
from repro.errors import SimulationError


class TestValidation:
    def test_valid_partition(self):
        plan = LocationAreaPlan([[0, 1], [2, 3]], 4)
        assert plan.num_areas == 2

    def test_rejects_overlap(self):
        with pytest.raises(SimulationError, match="overlap"):
            LocationAreaPlan([[0, 1], [1, 2]], 3)

    def test_rejects_uncovered_cells(self):
        with pytest.raises(SimulationError, match="cover"):
            LocationAreaPlan([[0, 1]], 3)

    def test_rejects_empty_area(self):
        with pytest.raises(SimulationError, match="empty"):
            LocationAreaPlan([[0, 1], []], 2)


class TestLookups:
    def test_area_of_and_cells_of(self):
        plan = LocationAreaPlan([[0, 2], [1, 3]], 4)
        assert plan.area_of(2) == 0
        assert plan.cells_of(1) == (1, 3)

    def test_crosses_boundary(self):
        plan = LocationAreaPlan([[0, 1], [2, 3]], 4)
        assert plan.crosses_boundary(1, 2)
        assert not plan.crosses_boundary(0, 1)

    def test_sizes(self):
        plan = LocationAreaPlan([[0], [1, 2, 3]], 4)
        assert plan.sizes() == (1, 3)

    def test_area_table_matches_area_of(self):
        topology = CellTopology.hexagonal_disk(3)
        plan = LocationAreaPlan.by_bfs(topology, 5)
        assert plan.area_table.tolist() == [
            plan.area_of(cell) for cell in range(topology.num_cells)
        ]
        assert not plan.area_table.flags.writeable

    def test_unknown_cell_rejected(self):
        plan = LocationAreaPlan([[0]], 1)
        with pytest.raises(SimulationError):
            plan.area_of(5)


class TestBuilders:
    def test_single_area(self):
        plan = LocationAreaPlan.single_area(5)
        assert plan.num_areas == 1
        assert plan.cells_of(0) == (0, 1, 2, 3, 4)

    def test_by_blocks(self):
        plan = LocationAreaPlan.by_blocks(10, 4)
        assert plan.sizes() == (4, 4, 2)
        assert plan.area_of(9) == 2

    def test_by_blocks_rejects_bad_size(self):
        with pytest.raises(SimulationError):
            LocationAreaPlan.by_blocks(10, 0)

    def test_by_bfs_covers_everything(self):
        topology = CellTopology.hexagonal_disk(3)
        plan = LocationAreaPlan.by_bfs(topology, 4)
        assert plan.num_areas == 4
        assert sum(plan.sizes()) == topology.num_cells

    def test_by_bfs_areas_are_connected(self):
        import networkx as nx

        topology = CellTopology.hexagonal_disk(3)
        plan = LocationAreaPlan.by_bfs(topology, 5)
        for area in range(plan.num_areas):
            cells = plan.cells_of(area)
            subgraph = topology.graph.subgraph(cells)
            assert nx.is_connected(subgraph), f"area {area} disconnected: {cells}"

    def test_by_bfs_balanced_sizes(self):
        topology = CellTopology.hexagonal_disk(3)
        plan = LocationAreaPlan.by_bfs(topology, 4)
        sizes = plan.sizes()
        assert max(sizes) - min(sizes) <= topology.num_cells // 3

    def test_by_bfs_random_seeds(self, rng):
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3, rng=rng)
        assert sum(plan.sizes()) == topology.num_cells

    def test_by_bfs_rejects_bad_count(self):
        topology = CellTopology.line(4)
        with pytest.raises(SimulationError):
            LocationAreaPlan.by_bfs(topology, 9)
