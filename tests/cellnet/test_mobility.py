"""Unit tests for mobility models."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.cellnet import (
    CellTopology,
    GravityMobility,
    RandomWalk,
    RandomWaypoint,
    generate_trace,
    stationary_distribution,
    step_random_walks,
)
from repro.cellnet.mobility import BoundWalks
from repro.core import compiled_available
from repro.errors import SimulationError


@pytest.fixture
def topology():
    return CellTopology.hexagonal_disk(2)


class TestRandomWalk:
    def test_steps_stay_adjacent(self, topology, rng):
        model = RandomWalk(topology, stay_probability=0.2)
        cell = 0
        for _ in range(100):
            nxt = model.step(cell, rng)
            assert nxt == cell or nxt in topology.neighbors(cell)
            cell = nxt

    def test_stay_probability_observed(self, topology, rng):
        model = RandomWalk(topology, stay_probability=0.8)
        stays = sum(1 for _ in range(2_000) if model.step(5, rng) == 5)
        assert 0.74 < stays / 2_000 < 0.86

    def test_rejects_bad_probability(self, topology):
        with pytest.raises(SimulationError):
            RandomWalk(topology, stay_probability=1.0)


def _with_buffer(seed, has_uint32, uinteger):
    """A seeded PCG64 generator whose 32-bit buffer is set by hand."""
    rng = np.random.Generator(np.random.PCG64(seed))
    state = rng.bit_generator.state
    state["has_uint32"] = has_uint32
    state["uinteger"] = uinteger
    rng.bit_generator.state = state
    return rng


def _cell_of_degree(topology, degree):
    return next(
        cell
        for cell in range(topology.num_cells)
        if len(topology.neighbors(cell)) == degree
    )


#: The movement paths this host runs: the compiled kernel when it loads,
#: and always the Python loop a host with no C compiler runs.
WALK_PATHS = ("compiled", "python") if compiled_available() else ("python",)

#: numpy's bit generators; the batch must replay the scalar loop on each.
BIT_GENERATORS = (
    np.random.PCG64,
    np.random.PCG64DXSM,
    np.random.MT19937,
    np.random.Philox,
    np.random.SFC64,
)


def _same_state(first, second):
    """Two bit generators' states are equal, field by field.

    MT19937 keeps its key as an array, so ``==`` on the dicts would raise.
    """
    if first.keys() != second.keys():
        return False
    return all(
        _same_state(first[key], second[key])
        if isinstance(first[key], dict)
        else np.array_equal(first[key], second[key])
        for key in first
    )


@contextmanager
def _on_path(path):
    """Run the block on one movement path, switched the way CI switches it."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "python":
            patch.setenv("REPRO_DISABLE_COMPILED", "1")
        yield


def _scalar_and_batch(topology, stay, cells, steps, make_rng):
    """Step the scalar loop and every path, each on its own ``make_rng()``.

    Asserts equal cells and generator state after every step.
    """
    model = RandomWalk(topology, stay_probability=stay)
    table = topology.neighbor_table
    stays = [stay] * len(cells)
    scalar = make_rng()
    batches = {path: make_rng() for path in WALK_PATHS}
    expected = list(cells)
    actual = {path: list(cells) for path in WALK_PATHS}
    for _ in range(steps):
        expected = [model.step(cell, scalar) for cell in expected]
        for path, batch in batches.items():
            with _on_path(path):
                actual[path] = step_random_walks(
                    batch.bit_generator, actual[path], stays, table
                )
            assert actual[path] == expected
            assert _same_state(batch.bit_generator.state, scalar.bit_generator.state)


class TestStepRandomWalks:
    """The batch replays ``RandomWalk.step`` on numpy's generator streams.

    Every test runs each path in :data:`WALK_PATHS`.  If numpy ever changes
    how ``random()`` or ``integers(k)`` consume a bit generator's draws,
    these tests fail here, by name, before any simulator digest.
    """

    @pytest.mark.parametrize("stay", [0.0, 0.3, 0.9])
    @pytest.mark.parametrize("seed", [0, 7, 29, 2002])
    def test_matches_scalar_steps_and_state(self, topology, seed, stay):
        """On every bit generator in :data:`BIT_GENERATORS`."""
        starts = np.random.default_rng(seed).integers(topology.num_cells, size=40)
        for bit_generator in BIT_GENERATORS:
            _scalar_and_batch(
                topology,
                stay,
                [int(cell) for cell in starts],
                50,
                lambda: np.random.Generator(bit_generator(seed)),
            )

    @pytest.mark.parametrize(
        "topology, degree",
        [
            (CellTopology.hexagonal_disk(2), 6),
            (CellTopology.grid(3, 3), 4),
            (CellTopology.grid(3, 3), 3),
            (CellTopology.line(3), 1),
            (CellTopology.line(1), 0),
        ],
        ids=["6-neighbors", "4-neighbors", "3-neighbors", "1-neighbor", "one-cell"],
    )
    def test_every_degree(self, topology, degree):
        cell = _cell_of_degree(topology, degree)
        for seed in (1, 2, 3):
            _scalar_and_batch(
                topology,
                0.3,
                [cell] * 25,
                20,
                lambda: np.random.default_rng(seed),
            )

    @pytest.mark.parametrize("uinteger", [0x12345678, 0xFFFFFFFF])
    def test_starts_with_full_buffer(self, topology, uinteger):
        _scalar_and_batch(
            topology,
            0.3,
            list(range(topology.num_cells)),
            10,
            lambda: _with_buffer(5, 1, uinteger),
        )

    def test_lemire_rejection(self, topology):
        """A buffered half of 0 is rejected for k = 6 and drawn again."""
        cell = _cell_of_degree(topology, 6)
        scalar = _with_buffer(11, 1, 0)
        rejected = scalar.bit_generator.state
        scalar.integers(6)
        after = scalar.bit_generator.state
        # integers(6) used the buffered half and then a fresh raw draw
        assert after["state"] != rejected["state"]
        assert after["has_uint32"] == 1
        _scalar_and_batch(topology, 0.0, [cell] * 8, 5, lambda: _with_buffer(11, 1, 0))

    def test_no_devices_draws_nothing(self, topology, rng):
        before = rng.bit_generator.state
        table = topology.neighbor_table
        for path in WALK_PATHS:
            with _on_path(path):
                assert step_random_walks(rng.bit_generator, [], [], table) == []
            assert rng.bit_generator.state == before

    def test_mixed_stay_probabilities(self, topology):
        models = [
            RandomWalk(topology, stay_probability=stay) for stay in (0.0, 0.5, 0.9)
        ] * 5
        stays = [model.stay_probability for model in models]
        for path in WALK_PATHS:
            scalar = np.random.default_rng(3)
            batch = np.random.default_rng(3)
            cells = [cell % topology.num_cells for cell in range(len(models))]
            for _ in range(30):
                expected = [
                    model.step(cell, scalar) for model, cell in zip(models, cells)
                ]
                with _on_path(path):
                    cells = step_random_walks(
                        batch.bit_generator, cells, stays, topology.neighbor_table
                    )
                assert cells == expected
            assert batch.bit_generator.state == scalar.bit_generator.state

    @pytest.mark.parametrize("bad", [-1, 19])
    def test_cell_off_the_topology_draws_nothing(self, topology, rng, bad):
        before = rng.bit_generator.state
        for path in WALK_PATHS:
            with _on_path(path), pytest.raises(SimulationError):
                step_random_walks(
                    rng.bit_generator, [0, bad], [0.0, 0.0], topology.neighbor_table
                )
            assert rng.bit_generator.state == before

    def test_stays_must_match_cells(self, topology, rng):
        with pytest.raises(SimulationError):
            step_random_walks(rng.bit_generator, [0, 1], [0.3], topology.neighbor_table)

    def test_400_devices_from_a_buffered_half(self):
        """The roaming workload's population size, starting mid-buffer."""
        topology = CellTopology.hexagonal_disk(4)
        starts = np.random.default_rng(29).integers(topology.num_cells, size=400)
        _scalar_and_batch(
            topology,
            0.3,
            [int(cell) for cell in starts],
            100,
            lambda: _with_buffer(29, 1, 0x9E3779B9),
        )

    def test_array_cells_give_an_array(self):
        """The simulator's call: arrays in, the topology's CSR, an array out."""
        topology = CellTopology.hexagonal_disk(3)
        model = RandomWalk(topology, stay_probability=0.3)
        cells = np.random.default_rng(4).integers(topology.num_cells, size=60)
        scalar = np.random.default_rng(4)
        expected = [model.step(int(cell), scalar) for cell in cells]
        for path in WALK_PATHS:
            batch = np.random.default_rng(4)
            with _on_path(path):
                moved = step_random_walks(
                    batch.bit_generator,
                    cells,
                    np.full(cells.size, 0.3),
                    topology.neighbor_table,
                    topology.neighbor_csr,
                )
            assert isinstance(moved, np.ndarray) and moved.dtype == np.intp
            assert moved.tolist() == expected
            assert batch.bit_generator.state == scalar.bit_generator.state

    def test_bound_walks_step_the_cells_in_place(self):
        """The simulator's call: arguments bound once, cells copied back."""
        topology = CellTopology.hexagonal_disk(3)
        model = RandomWalk(topology, stay_probability=0.3)
        start = np.random.default_rng(6).integers(topology.num_cells, size=50)
        for path in WALK_PATHS:
            scalar = np.random.default_rng(6)
            batch = np.random.default_rng(6)
            expected = start.tolist()
            cells = start.astype(np.intp)
            stays = np.full(cells.size, 0.3)
            bound = BoundWalks(
                batch.bit_generator, cells, stays, topology.neighbor_csr
            )
            for _ in range(20):
                expected = [model.step(cell, scalar) for cell in expected]
                with _on_path(path):
                    moved = bound.step()
                assert moved is bound.out
                assert moved.tolist() == expected
                cells[...] = moved
            assert batch.bit_generator.state == scalar.bit_generator.state

    def test_bound_walks_reject_other_arguments(self, topology, rng):
        """Off-topology cells draw nothing; bad arrays are refused at once."""
        cells = np.zeros(3, dtype=np.intp)
        stays = np.full(3, 0.3)
        bound = BoundWalks(rng.bit_generator, cells, stays, topology.neighbor_csr)
        before = rng.bit_generator.state
        for bad in (-1, 19):
            cells[1] = bad
            for path in WALK_PATHS:
                with _on_path(path), pytest.raises(SimulationError):
                    bound.step()
        assert rng.bit_generator.state == before
        with pytest.raises(SimulationError):
            BoundWalks(rng.bit_generator, cells.astype(np.int32), stays, bound.csr)
        with pytest.raises(SimulationError):
            BoundWalks(rng.bit_generator, cells, stays[:2], bound.csr)


class TestRandomWaypoint:
    def test_steps_stay_adjacent_or_pause(self, topology, rng):
        model = RandomWaypoint(topology, pause_probability=0.3)
        cell = 0
        for _ in range(200):
            nxt = model.step(cell, rng)
            assert nxt == cell or nxt in topology.neighbors(cell)
            cell = nxt

    def test_reaches_far_cells(self, topology, rng):
        model = RandomWaypoint(topology, pause_probability=0.0)
        visited = set(generate_trace(model, 0, 400, rng))
        assert len(visited) > topology.num_cells // 2

    def test_rejects_bad_pause(self, topology):
        with pytest.raises(SimulationError):
            RandomWaypoint(topology, pause_probability=-0.1)


class TestRandomWaypointSharing:
    """One instance = one device; sharing silently corrupted paths."""

    def test_sharing_across_devices_raises(self, topology, rng):
        model = RandomWaypoint(topology, pause_probability=0.0)
        cells = [0, topology.num_cells - 1]
        with pytest.raises(SimulationError, match="shared across devices"):
            for _ in range(50):
                cells = [model.step(cell, rng) for cell in cells]

    def test_clones_prevent_the_divergence(self, topology, rng):
        """The same interleaving is fine with one clone per device."""
        clones = RandomWaypoint(
            topology, pause_probability=0.0
        ).clone_for_devices(2)
        cells = [0, topology.num_cells - 1]
        for _ in range(50):
            cells = [
                clone.step(cell, rng) for clone, cell in zip(clones, cells)
            ]
        for cell in cells:
            assert 0 <= cell < topology.num_cells

    def test_clone_parameters_and_independence(self, topology):
        original = RandomWaypoint(topology, pause_probability=0.35)
        clones = original.clone_for_devices(3)
        assert len(clones) == 3
        assert len({id(clone) for clone in clones}) == 3
        for clone in clones:
            assert clone.pause_probability == original.pause_probability
            assert clone is not original

    def test_clone_count_validated(self, topology):
        with pytest.raises(SimulationError, match="count"):
            RandomWaypoint(topology).clone_for_devices(0)

    def test_reset_allows_reusing_one_instance(self, topology, rng):
        model = RandomWaypoint(topology, pause_probability=0.0)
        generate_trace(model, 0, 30, rng)
        model.reset()
        # a fresh trace from a different start is legitimate after reset
        trace = generate_trace(model, topology.num_cells - 1, 30, rng)
        assert len(trace) == 31

    def test_sequential_traces_from_same_cell_still_work(self, topology, rng):
        """The guard must not false-positive on honest single-device use."""
        model = RandomWaypoint(topology, pause_probability=0.2)
        trace = generate_trace(model, 0, 100, rng)
        generate_trace(model, trace[-1], 100, rng)


class TestGravity:
    def test_biases_toward_attractive_cells(self, topology, rng):
        attraction = np.ones(topology.num_cells)
        attraction[7] = 60.0
        model = GravityMobility(topology, attraction)
        occupancy = stationary_distribution(
            model, topology, samples=4_000, rng=rng
        )
        assert occupancy[7] == max(occupancy)

    def test_rejects_wrong_length(self, topology):
        with pytest.raises(SimulationError, match="per cell"):
            GravityMobility(topology, [1.0, 2.0])

    def test_rejects_non_positive_weights(self, topology):
        with pytest.raises(SimulationError, match="positive"):
            GravityMobility(topology, [0.0] * topology.num_cells)


class TestTraces:
    def test_trace_length(self, topology, rng):
        model = RandomWalk(topology)
        trace = generate_trace(model, 3, 50, rng)
        assert len(trace) == 51
        assert trace[0] == 3

    def test_rejects_negative_steps(self, topology, rng):
        with pytest.raises(SimulationError):
            generate_trace(RandomWalk(topology), 0, -1, rng)

    def test_stationary_distribution_normalized(self, topology, rng):
        model = RandomWalk(topology)
        occupancy = stationary_distribution(model, topology, samples=2_000, rng=rng)
        assert occupancy.sum() == pytest.approx(1.0)
        assert len(occupancy) == topology.num_cells

    def test_stationary_distribution_rejects_zero_samples(self, topology, rng):
        """samples=0 used to return a silent NaN array via 0/0."""
        with pytest.raises(SimulationError, match="samples"):
            stationary_distribution(
                RandomWalk(topology), topology, samples=0, rng=rng
            )

    def test_stationary_distribution_rejects_negative_burn_in(self, topology, rng):
        with pytest.raises(SimulationError, match="burn_in"):
            stationary_distribution(
                RandomWalk(topology), topology, burn_in=-1, rng=rng
            )

    def test_stationary_distribution_never_returns_nan(self, topology, rng):
        occupancy = stationary_distribution(
            RandomWalk(topology), topology, burn_in=0, samples=1, rng=rng
        )
        assert not np.isnan(occupancy).any()
        assert occupancy.sum() == pytest.approx(1.0)
