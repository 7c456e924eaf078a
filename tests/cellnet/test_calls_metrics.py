"""Unit tests for call arrivals and link-usage metrics."""

from contextlib import contextmanager

import numpy as np
import pytest

from repro.cellnet import CallRecord, LinkUsageMetrics, PoissonConferenceCalls
from repro.cellnet import calls as calls_module
from repro.core import compiled_available
from repro.errors import SimulationError


class TestArrivals:
    def test_rate_zero_never_arrives(self, rng):
        process = PoissonConferenceCalls(0.0, 5)
        assert all(
            process.maybe_arrival(t, rng) is None for t in range(200)
        )

    def test_rate_one_always_arrives(self, rng):
        process = PoissonConferenceCalls(1.0, 5)
        request = process.maybe_arrival(3, rng)
        assert request is not None
        assert request.time == 3

    def test_participants_distinct_and_in_range(self, rng):
        process = PoissonConferenceCalls(1.0, 6)
        for t in range(100):
            request = process.maybe_arrival(t, rng)
            assert len(set(request.participants)) == request.size
            assert all(0 <= device < 6 for device in request.participants)
            assert request.size >= 2

    def test_size_weights_respected(self, rng):
        process = PoissonConferenceCalls(1.0, 8, size_weights=(1.0,))
        sizes = {process.maybe_arrival(t, rng).size for t in range(50)}
        assert sizes == {2}

    @pytest.mark.parametrize(
        "size_weights", [None, (0.2, 0.0, 0.5, 0.3), (0.0, 1.0, 2.0)]
    )
    @pytest.mark.parametrize("seed", [0, 7, 29])
    def test_size_draw_replays_generator_choice(self, size_weights, seed):
        """The CDF draw equals ``rng.choice(sizes, p=...)`` draw for draw."""
        process = PoissonConferenceCalls(1.0, 8, size_weights=size_weights)
        weights = np.asarray(
            (0.5, 0.3, 0.15, 0.05) if size_weights is None else size_weights
        )
        sizes = np.arange(2, len(weights) + 2)
        ours = np.random.default_rng(seed)
        numpy_choice = np.random.default_rng(seed)
        for time in range(300):
            request = process.maybe_arrival(time, ours)
            assert numpy_choice.random() < 1.0
            size = int(numpy_choice.choice(sizes, p=weights / weights.sum()))
            participants = numpy_choice.choice(8, size=size, replace=False)
            assert request.participants == tuple(sorted(int(d) for d in participants))
        assert ours.bit_generator.state == numpy_choice.bit_generator.state

    def test_size_capped_by_device_pool(self, rng):
        process = PoissonConferenceCalls(1.0, 3, size_weights=(1, 1, 1, 1))
        sizes = {process.maybe_arrival(t, rng).size for t in range(100)}
        assert max(sizes) <= 3

    def test_schedule_rate_statistics(self, rng):
        process = PoissonConferenceCalls(0.2, 4)
        schedule = process.sample_schedule(3_000, rng)
        assert 0.15 < len(schedule) / 3_000 < 0.25

    def test_validation(self):
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(1.5, 5)
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(0.1, 1)
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(0.1, 5, size_weights=(0.0,))

    @pytest.mark.parametrize(
        "num_devices, size_weights", [(2, (0.0, 1.0)), (3, (0.0, 0.0, 1.0, 2.0))]
    )
    def test_weight_only_above_the_device_pool_rejected(
        self, num_devices, size_weights
    ):
        """Weights cut to the pool's party sizes must still put weight somewhere."""
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(1.0, num_devices, size_weights=size_weights)

    @pytest.mark.parametrize("bad", [float("inf"), float("nan")])
    def test_non_finite_size_weight_rejected(self, bad):
        """A weight with no finite CDF is refused, not drawn from."""
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(1.0, 5, size_weights=(bad, 1.0))


#: The participant-draw paths this host runs: the compiled kernel when it
#: loads, and always ``Generator.choice``, which a host with no C compiler
#: runs.
DRAW_PATHS = ("compiled", "choice") if compiled_available() else ("choice",)


@contextmanager
def _on_path(path):
    """Run the block on one draw path, switched the way CI switches it."""
    with pytest.MonkeyPatch.context() as patch:
        if path == "choice":
            patch.setenv("REPRO_DISABLE_COMPILED", "1")
        yield


def _draws_replay_choice(process, num_devices, draws, seed):
    """Draw on every path beside ``choice`` on a twin generator.

    Asserts equal participants and generator state after every draw.
    """
    twins = {path: np.random.default_rng(seed) for path in DRAW_PATHS}
    for path, ours in twins.items():
        reference = np.random.default_rng(seed)
        for time in range(draws):
            with _on_path(path):
                request = process.maybe_arrival(time, ours)
            reference.random()  # the arrival draw
            reference.random()  # the party-size draw
            expected = reference.choice(num_devices, size=request.size, replace=False)
            assert request.participants == tuple(sorted(expected.tolist()))
            assert ours.bit_generator.state == reference.bit_generator.state


class TestParticipantDraw:
    """The compiled draw replays ``Generator.choice`` on the real generator.

    If numpy ever changes how ``choice(n, size, replace=False)`` consumes
    its generator, these tests fail here, by name, before any simulator
    digest.
    """

    @pytest.mark.parametrize("seed", range(50))
    def test_matches_choice_and_state(self, seed):
        num_devices = int(np.random.default_rng(1000 + seed).integers(2, 50))
        weights = np.random.default_rng(seed).random(num_devices - 1)
        process = PoissonConferenceCalls(1.0, num_devices, size_weights=weights)
        _draws_replay_choice(process, num_devices, 200, seed)

    def test_alternating_generators(self):
        """One process drawing on two generators in turn stays on each stream."""
        process = PoissonConferenceCalls(1.0, 9, size_weights=(1.0, 1.0, 1.0))
        for path in DRAW_PATHS:
            ours = [np.random.default_rng(seed) for seed in (3, 4)]
            references = [np.random.default_rng(seed) for seed in (3, 4)]
            for time in range(100):
                rng, reference = ours[time % 2], references[time % 2]
                with _on_path(path):
                    request = process.maybe_arrival(time, rng)
                reference.random()  # the arrival draw
                reference.random()  # the party-size draw
                expected = reference.choice(9, size=request.size, replace=False)
                assert request.participants == tuple(sorted(expected.tolist()))
                assert rng.bit_generator.state == reference.bit_generator.state

    @pytest.mark.parametrize(
        "num_devices, on_kernel",
        [(10_000, True), (20_000, False)],
        ids=["floyd-at-10000", "tail-shuffle-above-10000"],
    )
    def test_boundary_of_floyd(self, monkeypatch, num_devices, on_kernel):
        """500 of 10 000 runs Floyd in the kernel; 500 of 20 000 stays on choice."""
        calls = []

        def counting_kernel():
            kernel = auto_kernel()
            if kernel is None:
                return None

            class Counting:
                def repro_draw_participants(self, *arguments):
                    calls.append(arguments)
                    return kernel.repro_draw_participants(*arguments)

            return Counting()

        auto_kernel = calls_module.auto_kernel
        monkeypatch.setattr(calls_module, "auto_kernel", counting_kernel)
        process = PoissonConferenceCalls(
            1.0, num_devices, size_weights=(0.0,) * 498 + (1.0,)
        )
        _draws_replay_choice(process, num_devices, 3, 11)
        assert len(calls) == (3 if on_kernel and "compiled" in DRAW_PATHS else 0)


class TestPoissonMode:
    def test_unknown_mode_rejected(self):
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(0.5, 5, mode="geometric")

    def test_poisson_rate_may_exceed_one(self):
        process = PoissonConferenceCalls(2.5, 5, mode="poisson")
        assert process.mode == "poisson"
        with pytest.raises(SimulationError):
            PoissonConferenceCalls(-0.1, 5, mode="poisson")

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_non_finite_poisson_rate_rejected_at_construction(self, rate):
        with pytest.raises(SimulationError, match="finite"):
            PoissonConferenceCalls(rate, 10, mode="poisson")

    def test_maybe_arrival_refused_in_poisson_mode(self, rng):
        process = PoissonConferenceCalls(0.5, 5, mode="poisson")
        with pytest.raises(SimulationError):
            process.maybe_arrival(0, rng)

    def test_multiple_arrivals_per_step(self, rng):
        process = PoissonConferenceCalls(3.0, 8, mode="poisson")
        counts = [len(process.arrivals(t, rng)) for t in range(200)]
        assert max(counts) > 1  # the whole point of the mode
        assert 2.5 < sum(counts) / 200 < 3.5

    def test_poisson_arrivals_seeded(self):
        def draw(seed):
            process = PoissonConferenceCalls(1.5, 6, mode="poisson")
            rng = np.random.default_rng(seed)
            return [
                (r.time, r.participants)
                for t in range(50)
                for r in process.arrivals(t, rng)
            ]

        assert draw(3) == draw(3)
        assert draw(3) != draw(4)

    def test_bernoulli_arrivals_wraps_maybe_arrival_draw_identically(self):
        process = PoissonConferenceCalls(0.4, 6)
        rng_a = np.random.default_rng(17)
        rng_b = np.random.default_rng(17)
        for t in range(100):
            single = process.maybe_arrival(t, rng_a)
            many = process.arrivals(t, rng_b)
            assert many == ([] if single is None else [single])
        # streams advanced identically
        assert rng_a.bit_generator.state == rng_b.bit_generator.state


class TestMetrics:
    def test_counters_accumulate(self):
        metrics = LinkUsageMetrics()
        metrics.record_report()
        metrics.record_report()
        metrics.record_registration()
        metrics.record_call(CallRecord(1, 2, cells_paged=7, rounds_used=2, used_fallback=False))
        metrics.record_call(CallRecord(2, 3, cells_paged=5, rounds_used=1, used_fallback=True))
        assert metrics.report_messages == 2
        assert metrics.registration_messages == 1
        assert metrics.calls_handled == 2
        assert metrics.cells_paged == 12
        assert metrics.fallback_searches == 1
        assert metrics.rounds_histogram == {2: 1, 1: 1}

    def test_derived_quantities(self):
        metrics = LinkUsageMetrics()
        metrics.record_report()
        metrics.record_call(CallRecord(1, 2, cells_paged=6, rounds_used=3, used_fallback=False))
        assert metrics.mean_cells_per_call == 6.0
        assert metrics.mean_rounds_per_call == 3.0
        assert metrics.total_wireless_messages == 7

    def test_empty_metrics_safe(self):
        metrics = LinkUsageMetrics()
        assert metrics.mean_cells_per_call == 0.0
        assert metrics.mean_rounds_per_call == 0.0
        assert metrics.summary()["calls"] == 0.0

    def test_record_calls_opt_out_keeps_summary_identical(self):
        records = [
            CallRecord(1, 2, cells_paged=7, rounds_used=2, used_fallback=False),
            CallRecord(4, 3, cells_paged=5, rounds_used=1, used_fallback=True,
                       retries=1, setup_latency=3),
            CallRecord(9, 2, cells_paged=12, rounds_used=3, used_fallback=False,
                       failed_devices=1, setup_latency=6),
        ]
        kept = LinkUsageMetrics(record_calls=True)
        dropped = LinkUsageMetrics(record_calls=False)
        for metrics in (kept, dropped):
            metrics.record_report()
            for record in records:
                metrics.record_call(record)
        assert kept.summary() == dropped.summary()
        assert len(kept.call_records) == 3
        assert dropped.call_records == []

    def test_contention_keys_gated(self):
        legacy = LinkUsageMetrics()
        contended = LinkUsageMetrics(contention=True)
        assert "blocking_probability" not in legacy.summary()
        assert "blocking_probability" in contended.summary()
        # the legacy key set is exactly the pre-engine one
        assert set(legacy.summary()) < set(contended.summary())

    def test_blocking_probability(self):
        metrics = LinkUsageMetrics(contention=True)
        assert metrics.blocking_probability == 0.0  # no offered calls yet
        for _ in range(8):
            metrics.record_offered_call()
        metrics.record_blocked_call(waited_steps=9)
        metrics.record_blocked_call(waited_steps=12)
        assert metrics.blocked_calls == 2
        assert metrics.blocking_probability == pytest.approx(0.25)

    def test_latency_percentiles_nearest_rank(self):
        metrics = LinkUsageMetrics(contention=True)
        for latency in (0, 0, 1, 2, 2, 2, 5, 9, 40, 41):
            metrics.record_call(
                CallRecord(0, 2, cells_paged=1, rounds_used=1,
                           used_fallback=False, setup_latency=latency)
            )
        assert metrics.setup_latency_percentile(50) == pytest.approx(2.0)
        assert metrics.setup_latency_percentile(90) == pytest.approx(40.0)
        assert metrics.setup_latency_percentile(95) == pytest.approx(41.0)
        assert metrics.setup_latency_percentile(99) == pytest.approx(41.0)
        assert metrics.setup_latency_percentile(100) == pytest.approx(41.0)

    def test_channel_occupancy_histogram(self):
        metrics = LinkUsageMetrics(contention=True)
        metrics.record_occupancy([2, 0, 1])
        metrics.record_occupancy([2, 2, 0])
        assert metrics.channel_occupancy == {0: 2, 1: 1, 2: 3}
        assert metrics.mean_channel_occupancy == pytest.approx(7 / 6)

    def test_occupancy_equals_a_per_cell_loop_in_key_order(self):
        # One counting pass per round must build the dict a per-cell loop
        # builds, insertion order included.
        rng = np.random.default_rng(4401)
        for _ in range(100):
            metrics = LinkUsageMetrics(contention=True)
            expected = {}
            for _round in range(int(rng.integers(1, 6))):
                slots = rng.integers(0, 5, size=int(rng.integers(1, 40)))
                vector = slots.tolist() if rng.random() < 0.5 else slots
                metrics.record_occupancy(vector)
                for used in vector:
                    key = int(used)
                    expected[key] = expected.get(key, 0) + 1
            assert list(metrics.channel_occupancy.items()) == list(expected.items())
            assert all(type(key) is int for key in metrics.channel_occupancy)
