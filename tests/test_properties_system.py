"""Property-based tests on the substrate: geometry, plans, serialization,
and the float-planner/reference equivalence."""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cellnet import CellTopology, Hex, LocationAreaPlan
from repro.core import PagingInstance, Strategy, conference_call_heuristic
from repro.core.serialization import dumps, loads
from repro.solvers import get_solver

hex_coordinates = st.integers(-20, 20)


@st.composite
def hexes(draw):
    return Hex(draw(hex_coordinates), draw(hex_coordinates))


# ----------------------------------------------------------------------
# Hex geometry is a metric space
# ----------------------------------------------------------------------
@given(hexes(), hexes())
@settings(max_examples=100, deadline=None)
def test_hex_distance_symmetry(a, b):
    assert a.distance(b) == b.distance(a)
    assert (a.distance(b) == 0) == (a == b)


@given(hexes(), hexes(), hexes())
@settings(max_examples=100, deadline=None)
def test_hex_distance_triangle_inequality(a, b, c):
    assert a.distance(c) <= a.distance(b) + b.distance(c)


@given(hexes())
@settings(max_examples=60, deadline=None)
def test_hex_neighbors_at_distance_one(a):
    neighbors = a.neighbors()
    assert len(set(neighbors)) == 6
    assert all(a.distance(n) == 1 for n in neighbors)


@given(hexes())
@settings(max_examples=60, deadline=None)
def test_hex_cube_invariant(a):
    assert a.q + a.r + a.s == 0


# ----------------------------------------------------------------------
# Location-area plans partition the cells
# ----------------------------------------------------------------------
@given(st.integers(1, 4), st.integers(0, 3))
@settings(max_examples=30, deadline=None)
def test_bfs_plans_partition_and_connect(num_areas, radius):
    import networkx as nx

    topology = CellTopology.hexagonal_disk(radius)
    areas = min(num_areas, topology.num_cells)
    plan = LocationAreaPlan.by_bfs(topology, areas)
    assert sum(plan.sizes()) == topology.num_cells
    covered = set()
    for index in range(plan.num_areas):
        cells = plan.cells_of(index)
        assert not covered & set(cells)
        covered |= set(cells)
        assert nx.is_connected(topology.graph.subgraph(cells))
    assert covered == set(range(topology.num_cells))
    for cell in range(topology.num_cells):
        assert cell in plan.cells_of(plan.area_of(cell))


# ----------------------------------------------------------------------
# Serialization round trips
# ----------------------------------------------------------------------
@st.composite
def exact_instances(draw):
    m = draw(st.integers(1, 3))
    c = draw(st.integers(2, 6))
    d = draw(st.integers(1, c))
    rows = []
    for _ in range(m):
        weights = draw(st.lists(st.integers(0, 9), min_size=c, max_size=c))
        if sum(weights) == 0:
            weights[0] = 1
        total = sum(weights)
        rows.append([Fraction(w, total) for w in weights])
    return PagingInstance(rows, max_rounds=d, allow_zero=True)


@given(exact_instances())
@settings(max_examples=50, deadline=None)
def test_instance_serialization_round_trip(instance):
    assert loads(dumps(instance)) == instance


@given(st.lists(st.integers(0, 3), min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_strategy_serialization_round_trip(labels):
    t = max(labels) + 1
    padded = list(range(t)) + labels  # guarantee every round non-empty
    strategy = Strategy.from_assignment(padded)
    assert loads(dumps(strategy)) == strategy


# ----------------------------------------------------------------------
# The float planner (the heuristic entry's batched kernel) equals the
# reference under the contract of docs/performance.md
# ----------------------------------------------------------------------
@given(st.integers(0, 10_000), st.integers(2, 10), st.integers(1, 3))
@settings(max_examples=40, deadline=None)
def test_fast_planner_matches_reference(seed, num_cells, num_devices):
    rng = np.random.default_rng(seed)
    matrix = rng.dirichlet(np.ones(num_cells), size=num_devices)
    d = int(rng.integers(1, num_cells + 1))
    instance = PagingInstance.from_array(matrix, max_rounds=d)
    reference = conference_call_heuristic(instance)
    fast = get_solver("heuristic")(instance)
    value = fast.expected_paging
    assert abs(reference.expected_paging - value) <= 1e-12 * value
    assert fast.extras["order"] == reference.order
