"""Behavior and property tests for the paging controller.

Covers the ISSUE 8 obligations: cache-hit bit-identity at quantization
step 0 (property test over a seeded request stream), the
quantization-induced expected-paging bound for step > 0, batch-window
flush on size vs timeout, backpressure shedding, and the ``service.*``
observability events.
"""

import dataclasses

import numpy as np
import pytest

from repro.core import available_backends, expected_paging_float
from repro.obs import MemorySink, Tracer, use_tracer
from repro.service import (
    PagingController,
    PlanRequest,
    ServiceConfig,
    WorkloadConfig,
    build_requests,
    plan_cache_key,
    quantization_bound,
    request_instance,
)
from repro.service import controller as controller_module
from repro.solvers import get_solver, solve_instance
from tests.conftest import use_backend


def _profile(seed, devices=3, cells=10):
    rng = np.random.default_rng(seed)
    matrix = rng.random((devices, cells))
    matrix /= matrix.sum(axis=1, keepdims=True)
    return matrix


class TestSubmitLifecycle:
    def test_miss_then_flush_then_hit(self):
        controller = PagingController(ServiceConfig())
        request = PlanRequest("la-1", _profile(0), 3)
        first = controller.submit(request)
        assert first.status == "pending"
        assert not first.done
        assert controller.pending == 1
        controller.flush()
        assert first.status == "ok"
        assert first.plan is not None
        assert not first.cache_hit
        second = controller.submit(request)
        assert second.status == "ok"
        assert second.cache_hit
        assert second.plan is first.plan
        assert controller.pending == 0

    def test_pending_dedup_shares_one_solve(self):
        controller = PagingController(ServiceConfig(batch_window=100))
        request = PlanRequest("la-1", _profile(0), 3)
        tickets = [controller.submit(request) for _ in range(3)]
        assert [ticket.status for ticket in tickets] == ["pending"] * 3
        controller.flush()
        stats = controller.stats()
        assert stats["planned"] == 1  # one distinct key planned once
        assert all(ticket.status == "ok" for ticket in tickets)
        assert tickets[1].plan is tickets[0].plan
        assert tickets[2].plan is tickets[0].plan

    def test_run_preserves_request_order(self):
        controller = PagingController(ServiceConfig())
        requests = [PlanRequest(f"a{i}", _profile(i), 3) for i in range(5)]
        tickets = controller.run(requests)
        assert [t.request for t in tickets] == requests
        assert all(ticket.status == "ok" for ticket in tickets)

    def test_shard_routing_matches_shard_map(self):
        controller = PagingController(ServiceConfig(num_shards=4))
        ticket = controller.submit(PlanRequest("la-9", _profile(1), 3))
        assert ticket.shard == controller.shard_of("la-9")

    def test_invalidate_forces_fresh_misses(self):
        controller = PagingController(ServiceConfig())
        request = PlanRequest("la-1", _profile(0), 3)
        controller.run([request])
        assert controller.submit(request).cache_hit
        controller.invalidate()
        assert controller.submit(request).status == "pending"


class TestBatchWindow:
    def test_flush_on_window_size(self):
        controller = PagingController(ServiceConfig(batch_window=3, batch_timeout_s=60.0))
        tickets = [
            controller.submit(PlanRequest("la-1", _profile(seed), 3))
            for seed in range(2)
        ]
        assert all(ticket.status == "pending" for ticket in tickets)
        third = controller.submit(PlanRequest("la-1", _profile(2), 3))
        # the third distinct key fills the window: everything flushes
        assert third.status == "ok"
        assert all(ticket.status == "ok" for ticket in tickets)
        assert controller.stats()["batches"] == 1

    def test_flush_on_timeout_via_poll(self):
        now = [0.0]
        controller = PagingController(
            ServiceConfig(batch_window=100, batch_timeout_s=1.0),
            clock=lambda: now[0],
        )
        ticket = controller.submit(PlanRequest("la-1", _profile(0), 3))
        assert ticket.status == "pending"
        assert controller.poll() == 0  # window not elapsed yet
        now[0] = 2.0
        assert controller.poll() == 1
        assert ticket.status == "ok"

    def test_flush_on_timeout_via_submit(self):
        now = [0.0]
        controller = PagingController(
            ServiceConfig(batch_window=100, batch_timeout_s=1.0),
            clock=lambda: now[0],
        )
        first = controller.submit(PlanRequest("la-1", _profile(0), 3))
        now[0] = 5.0
        second = controller.submit(PlanRequest("la-1", _profile(1), 3))
        # the late submit rides the flush its own arrival triggered
        assert first.status == "ok"
        assert second.status == "ok"

    def test_incompatible_shapes_form_separate_batches(self):
        controller = PagingController(ServiceConfig(batch_window=100))
        controller.submit(PlanRequest("la-1", _profile(0, cells=10), 3))
        controller.submit(PlanRequest("la-1", _profile(1, cells=12), 3))
        controller.submit(PlanRequest("la-1", _profile(2, cells=10), 2))
        assert controller.flush() == 3
        assert controller.stats()["batches"] == 3


class TestBackpressure:
    def test_shed_beyond_max_pending(self):
        controller = PagingController(
            ServiceConfig(batch_window=100, batch_timeout_s=60.0, max_pending=2)
        )
        area = "la-1"  # same area -> same shard -> same bounded queue
        first = controller.submit(PlanRequest(area, _profile(0), 3))
        second = controller.submit(PlanRequest(area, _profile(1), 3))
        third = controller.submit(PlanRequest(area, _profile(2), 3))
        assert first.status == "pending"
        assert second.status == "pending"
        assert third.status == "shed"
        assert third.done
        assert "backpressure" in third.reason
        assert controller.stats()["sheds"] == 1
        controller.flush()
        # shed requests are not planned, the admitted ones are
        assert third.plan is None
        assert first.status == "ok"

    def test_cache_hits_bypass_the_queue(self):
        controller = PagingController(
            ServiceConfig(batch_window=100, batch_timeout_s=60.0, max_pending=1)
        )
        request = PlanRequest("la-1", _profile(0), 3)
        controller.run([request])
        blocker = controller.submit(PlanRequest("la-1", _profile(1), 3))
        assert blocker.status == "pending"
        # the queue is full, but a hit never enters it
        assert controller.submit(request).status == "ok"


#: Every flush path: the batched heuristic on each backend, and the
#: scalar per-profile loop of a solver without a batch entry point.
FLUSH_PATHS = [("heuristic", name) for name in available_backends()] + [
    ("exact", "auto")
]


class TestFailedFlushes:
    """A flush fails bad tickets with a reason and never raises."""

    @pytest.mark.parametrize("solver,backend", FLUSH_PATHS)
    @pytest.mark.parametrize("trigger", ["submit", "poll", "flush"])
    def test_infeasible_group_fails_every_ticket(
        self, solver, backend, trigger, monkeypatch
    ):
        use_backend(monkeypatch, backend)
        now = [0.0]
        controller = PagingController(
            ServiceConfig(solver=solver, batch_window=2, batch_timeout_s=1.0),
            clock=lambda: now[0],
        )
        # 6 cells, 3 rounds, at most 1 cell a round: the group has no plan
        first = controller.submit(PlanRequest("la-1", _profile(0, 2, 6), 3, 1))
        if trigger == "submit":
            second = controller.submit(PlanRequest("la-1", _profile(1, 2, 6), 3, 1))
            tickets = [first, second]
        elif trigger == "poll":
            now[0] = 2.0
            tickets = [first]
            assert controller.poll() == 1
        else:
            tickets = [first]
            assert controller.flush() == 1
        assert [ticket.status for ticket in tickets] == ["failed"] * len(tickets)
        assert all(ticket.reason for ticket in tickets)
        assert controller.pending == 0
        assert controller.stats()["pending"] == 0
        # a failure is not cached: the same request queues afresh
        assert controller.submit(first.request).status == "pending"

    @pytest.mark.parametrize("solver,backend", FLUSH_PATHS)
    @pytest.mark.parametrize("bad", [float("nan"), -0.5, float("inf")])
    def test_bad_entry_fails_its_row_and_the_rest_still_plan(
        self, solver, backend, bad, monkeypatch
    ):
        use_backend(monkeypatch, backend)
        controller = PagingController(
            ServiceConfig(solver=solver, batch_window=8, batch_timeout_s=60.0)
        )
        matrix = _profile(3, 2, 6)
        matrix[1, 4] = bad
        requests = [
            PlanRequest("la-1", matrix, 3),
            PlanRequest("la-1", _profile(4, 2, 6), 3),
        ]
        tickets = [controller.submit(request) for request in requests]
        assert controller.flush() == 1
        assert controller.pending == 0
        assert tickets[0].status == "failed"
        assert f"[1, 4] = {bad!r}" in tickets[0].reason
        assert tickets[1].status == "ok"
        fresh = solve_instance(solver, request_instance(requests[1]), max_rounds=3)
        plan = tickets[1].plan
        if solver == "heuristic":
            assert plan.backend == fresh.extras["backend"] == backend
        assert float(plan.expected_paging).hex() == float(fresh.expected_paging).hex()
        assert plan.strategy().groups == fresh.strategy.groups
        if plan.order is not None:
            assert plan.order == tuple(fresh.extras["order"])


class TestBitIdentity:
    def test_cache_hit_is_bit_identical_to_fresh_solve(self):
        """ISSUE 8 acceptance: at step 0, a cache hit equals a fresh
        ``solve_instance`` call bit for bit, over a seeded stream."""
        workload = WorkloadConfig(
            requests=300,
            areas=6,
            devices=3,
            cells=12,
            rounds=3,
            profiles_per_area=3,
            hot_fraction=0.9,
            seed=77,
        )
        requests = build_requests(workload)
        # window 1: every miss plans immediately, so recurrences are hits
        controller = PagingController(
            ServiceConfig(quantization_step=0.0, batch_window=1)
        )
        tickets = controller.run(requests)
        hits = [ticket for ticket in tickets if ticket.cache_hit]
        assert len(hits) > 100  # the stream recurs, so hits dominate
        for ticket in hits[::17] + hits[-3:]:
            fresh = solve_instance(
                "heuristic",
                request_instance(ticket.request),
                max_rounds=ticket.request.rounds,
            )
            cached_value = float(ticket.plan.expected_paging)
            fresh_value = float(fresh.expected_paging)
            assert cached_value.hex() == fresh_value.hex()
            assert ticket.plan.order == fresh.extras["order"]
            assert ticket.plan.group_sizes == fresh.extras["group_sizes"]

    def test_scalar_fallback_solver_matches_batch(self, monkeypatch):
        request = PlanRequest("la-1", _profile(5), 3)
        batched = PagingController(ServiceConfig(solver="heuristic"))
        # The same entry without its batch adapter takes the scalar path.
        scalar_only = dataclasses.replace(
            get_solver("heuristic"), batch_adapter=None
        )
        monkeypatch.setattr(controller_module, "get_solver", lambda name: scalar_only)
        scalar = PagingController(ServiceConfig(solver="heuristic"))
        plan_batched = batched.run([request])[0].plan
        plan_scalar = scalar.run([request])[0].plan
        assert float(plan_batched.expected_paging).hex() == float(
            plan_scalar.expected_paging
        ).hex()
        assert plan_batched.order == plan_scalar.order
        assert plan_batched.group_sizes == plan_scalar.group_sizes


class TestQuantizationBound:
    def _bucket_neighbors(self, rng, step, devices, cells):
        """Two profiles guaranteed to share a step-quantized cache key.

        The first is snapped onto bucket centers; the second jitters by
        less than half a bucket, so ``rint`` maps both to the same key.
        """
        base = rng.random((devices, cells))
        base /= base.sum(axis=1, keepdims=True)
        centers = np.rint(base / step) * step
        jitter = rng.uniform(-step / 4.0, step / 4.0, size=base.shape)
        other = np.clip(centers + jitter, 0.0, 1.0)
        return centers, other

    def test_exact_solver_hit_is_within_the_bound(self):
        """Proof obligation: for an optimal solver, a quantized hit's
        expected paging on the *new* instance is within
        ``quantization_bound`` of a fresh optimal plan."""
        step = 1e-3
        devices, cells, rounds = 2, 6, 2
        rng = np.random.default_rng(404)
        config = ServiceConfig(
            solver="exact", quantization_step=step, batch_window=1
        )
        bound = quantization_bound(devices, cells, step)
        checked = 0
        for trial in range(25):
            base, other = self._bucket_neighbors(rng, step, devices, cells)
            key_a = plan_cache_key(base, rounds, None, "exact", step)
            key_b = plan_cache_key(other, rounds, None, "exact", step)
            if key_a != key_b:
                continue  # jitter crossed a bucket edge; skip the pair
            controller = PagingController(config)
            controller.run([PlanRequest("a", base, rounds)])
            hit = controller.submit(PlanRequest("a", other, rounds))
            assert hit.cache_hit
            fresh = solve_instance(
                "exact",
                request_instance(hit.request),
                max_rounds=rounds,
            )
            cached_on_new = expected_paging_float(
                request_instance(hit.request), hit.plan.strategy()
            )
            assert cached_on_new <= float(fresh.expected_paging) + bound + 1e-9
            checked += 1
        assert checked >= 10  # the property must actually have been exercised

    def test_heuristic_hit_is_within_the_bound_empirically(self):
        """For the heuristic the bound is a validated property, not a
        theorem (the optimality-transfer step needs optimal plans)."""
        step = 1e-4
        devices, cells, rounds = 3, 10, 3
        rng = np.random.default_rng(505)
        bound = quantization_bound(devices, cells, step)
        config = ServiceConfig(quantization_step=step, batch_window=1)
        checked = 0
        for trial in range(25):
            base, other = self._bucket_neighbors(rng, step, devices, cells)
            key_a = plan_cache_key(base, rounds, None, "heuristic", step)
            key_b = plan_cache_key(other, rounds, None, "heuristic", step)
            if key_a != key_b:
                continue
            controller = PagingController(config)
            controller.run([PlanRequest("a", base, rounds)])
            hit = controller.submit(PlanRequest("a", other, rounds))
            assert hit.cache_hit
            fresh = solve_instance(
                "heuristic",
                request_instance(hit.request),
                max_rounds=rounds,
            )
            cached_on_new = expected_paging_float(
                request_instance(hit.request), hit.plan.strategy()
            )
            assert cached_on_new <= float(fresh.expected_paging) + bound + 1e-9
            checked += 1
        assert checked >= 10


class TestStatsAndObservability:
    def test_stats_snapshot(self):
        controller = PagingController(ServiceConfig(num_shards=2))
        request = PlanRequest("la-1", _profile(0), 3)
        controller.run([request])
        controller.submit(request)
        stats = controller.stats()
        assert stats["schema"] == "repro-service/1"
        assert stats["requests"] == 2
        assert stats["cache_hits"] == 1
        assert stats["hit_rate"] == pytest.approx(0.5)
        assert stats["batches"] == 1
        assert stats["planned"] == 1
        assert stats["pending"] == 0
        assert stats["cache"]["size"] == 1
        assert sum(stats["shard_requests"]) == 2

    def test_service_events_are_emitted_under_a_tracer(self):
        sink = MemorySink()
        with use_tracer(Tracer(sink)):
            controller = PagingController(ServiceConfig(max_pending=1, batch_window=100))
            request = PlanRequest("la-1", _profile(0), 3)
            controller.submit(request)
            controller.submit(PlanRequest("la-1", _profile(1), 3))  # shed
            controller.flush()
            controller.submit(request)  # hit
        by_kind = {}
        for event in sink.events:
            by_kind.setdefault(event["event"], []).append(event)
        counters = {event["name"]: event["value"] for event in by_kind["counter"]}
        assert counters["service.requests"] == 3
        assert counters["service.cache_hit"] == 1
        assert counters["service.shed"] == 1
        histograms = {event["name"] for event in by_kind["histogram"]}
        assert "service.batch_size" in histograms
        spans = {event["name"] for event in by_kind["span"]}
        assert "service.batch_flush" in spans

    def test_events_are_silent_without_a_tracer(self):
        # the hot path must stay cheap and side-effect-free when untraced
        controller = PagingController(ServiceConfig())
        tickets = controller.run([PlanRequest("la-1", _profile(0), 3)])
        assert tickets[0].status == "ok"


class TestConfigValidation:
    @pytest.mark.parametrize(
        "overrides",
        [
            {"num_shards": 0},
            {"cache_size": 0},
            {"quantization_step": -0.5},
            {"batch_window": 0},
            {"batch_timeout_s": -1.0},
            {"max_pending": 0},
        ],
    )
    def test_invalid_config_rejected(self, overrides):
        with pytest.raises(ValueError):
            ServiceConfig(**overrides)

    def test_unknown_solver_rejected_at_construction(self):
        from repro.solvers import UnknownSolverError

        with pytest.raises(UnknownSolverError):
            PagingController(ServiceConfig(solver="no-such-solver"))


class TestLruIntegration:
    def test_cache_eviction_round_trips_through_the_controller(self):
        controller = PagingController(
            ServiceConfig(num_shards=1, cache_size=2, batch_window=1)
        )
        requests = [PlanRequest("la-1", _profile(seed), 3) for seed in range(3)]
        for request in requests:
            controller.submit(request)
        # capacity 2: the first profile was evicted, the last two are hot
        refetch = controller.submit(requests[0])
        assert refetch.status == "ok"
        assert not refetch.cache_hit  # evicted -> re-planned, not served
        assert controller.submit(requests[2]).cache_hit
