"""Workload-generator and serve-bench tests (``repro.service.workload``)."""

import numpy as np
import pytest

from repro.service import (
    PagingController,
    ServiceConfig,
    WorkloadConfig,
    build_requests,
    run_closed_loop,
    serve_bench,
)


SMALL = WorkloadConfig(
    requests=400,
    areas=6,
    devices=3,
    cells=10,
    rounds=3,
    profiles_per_area=3,
    hot_fraction=0.9,
    seed=11,
)


class TestBuildRequests:
    def test_deterministic_given_seed(self):
        first = build_requests(SMALL)
        second = build_requests(SMALL)
        assert len(first) == SMALL.requests
        for a, b in zip(first, second):
            assert a.area == b.area
            assert a.rounds == b.rounds
            assert a.matrix.tobytes() == b.matrix.tobytes()

    def test_rows_are_probability_distributions(self):
        for request in build_requests(SMALL)[:20]:
            sums = request.matrix.sum(axis=1)
            assert np.allclose(sums, 1.0)
            assert request.matrix.min() >= 0.0

    def test_hot_pool_profiles_recur(self):
        seen = {}
        for request in build_requests(SMALL):
            seen.setdefault(request.matrix.tobytes(), 0)
            seen[request.matrix.tobytes()] += 1
        recurring = sum(1 for count in seen.values() if count > 1)
        assert recurring > 0
        assert len(seen) < SMALL.requests  # far fewer profiles than requests

    @pytest.mark.parametrize(
        "overrides",
        [
            {"requests": 0},
            {"areas": 0},
            {"devices": 0},
            {"profiles_per_area": 0},
            {"hot_fraction": 1.5},
            {"hot_fraction": -0.1},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        import dataclasses

        with pytest.raises(ValueError):
            dataclasses.replace(SMALL, **overrides)


class TestRunClosedLoop:
    def test_metrics_are_per_pass_deltas(self):
        controller = PagingController(ServiceConfig())
        requests = build_requests(SMALL)
        cold = run_closed_loop(controller, requests)
        warm = run_closed_loop(controller, requests)
        assert cold["requests"] == SMALL.requests
        assert warm["requests"] == SMALL.requests
        assert cold["throughput_rps"] > 0.0
        # the warm pass reports its own (perfect) hit rate, not a mixture
        assert warm["hit_rate"] == pytest.approx(1.0)
        assert warm["batches"] == 0
        assert cold["hit_rate"] < 1.0

    def test_nothing_left_pending(self):
        controller = PagingController(ServiceConfig(batch_window=100))
        run_closed_loop(controller, build_requests(SMALL))
        assert controller.pending == 0


class TestServeBench:
    def test_report_shape(self):
        report = serve_bench(ServiceConfig(), SMALL)
        assert report["schema"] == "repro-serve-bench/1"
        assert report["workload"]["requests"] == SMALL.requests
        assert report["service"]["solver"] == "heuristic"
        for regime in ("cold", "warm"):
            assert report[regime]["throughput_rps"] > 0.0
        assert report["warm"]["hit_rate"] == pytest.approx(1.0)
        assert report["stats"]["requests"] == 2 * SMALL.requests
