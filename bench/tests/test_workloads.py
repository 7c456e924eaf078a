"""Workload inputs, correctness checks and the traced run, at small sizes."""

import dataclasses
import json
import time
from pathlib import Path

import numpy as np
import pytest

import harness
from workloads import (
    CONTENDED,
    HMY_WORKLOAD,
    MIN_REPEATS,
    ROAMING,
    Repeat,
    Service,
    Simulation,
    WORKLOADS,
    fastest,
    tail,
)

SMALL_CONTENDED = Simulation(
    "small_contended",
    radius=2,
    areas=3,
    devices=6,
    horizon=80,
    call_rate=1.5,
    arrival_mode="poisson",
    channel_capacity=1,
    carriers=1,
    max_paging_rounds=3,
    max_wait=4,
    record_calls=False,
    pins={},
    expected_hooks=(
        "repro.cellnet.engine:ChannelScheduler.serve_round",
        "repro.cellnet.engine:ChannelScheduler.on_retry",
    ),
)

SMALL_ROAMING = Simulation(
    "small_roaming", radius=2, areas=3, devices=20, horizon=40, call_rate=0.5,
    pins={}, expected_hooks=(),
)

SMALL_SERVICE = Service(requests=3_000, pins={})


@pytest.mark.parametrize("workload", [SMALL_CONTENDED, SMALL_ROAMING, SMALL_SERVICE, HMY_WORKLOAD])
def test_inputs_are_a_pure_function_of_the_seed(workload):
    prints = [workload.fingerprint(workload.setup(seed)) for seed in (3, 3, 4, workload.default_seed)]
    assert prints[0] == prints[1]
    assert len(set(prints)) == 3


def test_benchmark_workloads_are_the_five_named():
    assert sorted(WORKLOADS) == ["contended", "contended_lossy", "hmy", "roaming", "service"]


def test_benchmark_json_names_known_workloads_and_the_reported_metrics():
    spec = json.loads((Path(harness.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert {workload["name"] for workload in spec["workloads"]} <= set(WORKLOADS)
    state = SMALL_ROAMING.setup(5)
    reported = set(SMALL_ROAMING.end_to_end(state, SMALL_ROAMING.measure(state, 0.0)))
    assert {m["name"] for m in spec["end_to_end"]} == reported | {"setup_s", "peak_rss_mb"}


def test_tail_leaves_ten_samples_above_it():
    assert tail(range(1, 301)) == 290.0
    assert tail(range(1, 101)) == 90.0
    assert tail(range(1, 8)) == 7.0


def test_time_spent_between_repeats_does_not_count():
    state = SMALL_ROAMING.setup(5)
    calls = []
    start = time.perf_counter()
    repeats = SMALL_ROAMING.measure(state, 0.3, lambda elapsed: (calls.append(elapsed), time.sleep(0.01)))
    wall = time.perf_counter() - start
    assert len(calls) == len(repeats) > MIN_REPEATS
    assert calls == sorted(calls) and calls[-2] < 0.3
    assert wall >= 0.3 + 0.01 * len(calls)


def _repeat(segments, unit_starts=(1,)):
    return Repeat(
        wall_s=float(sum(segments)),
        units=1.0,
        exact={},
        segments_s=np.array(segments),
        unit_starts=np.array(unit_starts),
    )


def test_fastest_takes_each_segment_at_its_minimum():
    best = fastest([_repeat([1.0, 4.0, 2.0, 3.0], (1, 3)), _repeat([2.0, 3.0, 5.0, 1.0], (1, 3))])
    assert best.segments_s.tolist() == [1.0, 3.0, 2.0, 1.0]
    assert best.total_s == 7.0
    # a unit runs from its first segment to the next unit's (or the end)
    assert best.unit_latencies_us().tolist() == [5e6, 1e6]
    with pytest.raises(ValueError, match="cut into"):
        fastest([_repeat([1.0, 2.0]), _repeat([1.0, 2.0, 3.0])])


def test_determinism_check_catches_mismatched_repeats():
    ok = harness.determinism_check([{"a": 1, "b": 2.0}, {"a": 1, "b": 2.0}])
    bad = harness.determinism_check([{"a": 1, "b": 2.0}, {"a": 1, "b": 2.5}])
    assert ok[1] and not bad[1]
    assert "b: 2.0 != 2.5" in bad[2]


def test_small_simulation_passes_its_checks_and_traces():
    state = SMALL_CONTENDED.setup(5)
    repeat = SMALL_CONTENDED.repeat(state)
    assert all(ok for _, ok, _ in SMALL_CONTENDED.checks(state, repeat.exact))
    traced = harness.traced_run(SMALL_CONTENDED, state, repeat.wall_s, repeat.exact, None)
    assert traced["check"][1], traced["check"]
    # no faults, so the retry hook this workload claims to expect is named
    assert traced["unhooked"] == ["repro.cellnet.engine:ChannelScheduler.on_retry"]
    assert traced["metrics"]["trace.unhooked_count"] == 1.0
    shares = [v for k, v in traced["metrics"].items() if k.endswith(".self_share")]
    assert sum(shares) == pytest.approx(1.0)


def test_simulation_pins_fail_on_corrupted_output():
    state = SMALL_CONTENDED.setup(5)
    exact = SMALL_CONTENDED.repeat(state).exact
    corrupted = dict(exact, blocked_calls=exact["blocked_calls"] + 1)
    assert not all(ok for _, ok, _ in SMALL_CONTENDED.checks(state, corrupted))
    # the benchmark's own pins: this small run is not BENCH_5's
    assert not all(ok for _, ok, _ in WORKLOADS["contended"].pin_checks(exact))


def test_pins_are_checked_on_a_replay_of_the_specified_length():
    state = ROAMING.setup(3)
    timed = ROAMING.repeat(state).exact
    assert not all(ok for _, ok, _ in ROAMING.pin_checks(timed))
    pinned = ROAMING.pinned_exact(state, timed)
    assert all(ok for _, ok, _ in ROAMING.pin_checks(pinned))


def test_contended_is_timed_at_bench_5_length_and_reproduces_it():
    state = CONTENDED.setup(CONTENDED.default_seed)
    exact = CONTENDED.repeat(state).exact
    assert CONTENDED.pinned_exact(state, exact) is exact
    assert all(ok for _, ok, _ in CONTENDED.pin_checks(exact))


def test_service_detects_a_planner_that_disagrees_with_a_fresh_solve(monkeypatch):
    state = SMALL_SERVICE.setup(11)
    SMALL_SERVICE.measure(state, 0.2)
    exact = SMALL_SERVICE.repeat(state).exact
    checks = {name: ok for name, ok, _ in SMALL_SERVICE.checks(state, exact)}
    assert all(checks.values()), checks

    from repro.solvers.registry import RegisteredSolver

    original = RegisteredSolver.run_batch

    def skewed(self, instances, **options):
        result = original(self, instances, **options)
        return dataclasses.replace(result, values=result.values + 1e-9)

    monkeypatch.setattr(RegisteredSolver, "run_batch", skewed)
    SMALL_SERVICE.measure(state, 0.2)
    checks = {name: ok for name, ok, _ in SMALL_SERVICE.checks(state, exact)}
    assert not checks["sampled plans equal a fresh heuristic-batch solve"]


def test_run_length_changes_the_repeat_count_but_no_statistic():
    state = SMALL_SERVICE.setup(11)
    short = SMALL_SERVICE.measure(state, 0.0)
    short_open = state.open
    long = SMALL_SERVICE.measure(state, 1.0)
    assert len(short) == short_open.passes == MIN_REPEATS
    assert len(long) == state.open.passes > MIN_REPEATS
    assert short_open.first.plans_digest == state.open.first.plans_digest
    assert len(state.open.digests) == 1
    assert {str(r.exact) for r in short + long} == {str(short[0].exact)}
    assert SMALL_SERVICE.quality(state, long[0].exact) == {
        "completed_share": 1.0, "wireless_cost": short_open.first.mean_expected_paging,
    }


def test_hmy_checks_fail_on_a_wrong_fixed_point():
    state = HMY_WORKLOAD.setup(HMY_WORKLOAD.default_seed)
    good = {"threshold": 2, "combined_cost": HMY_WORKLOAD.COST, "converged": True,
            "trajectory_costs": []}
    assert all(ok for _, ok, _ in HMY_WORKLOAD.checks(state, good) + HMY_WORKLOAD.pin_checks(good))
    for corrupted in (dict(good, threshold=3), dict(good, combined_cost=0.437),
                      dict(good, converged=False)):
        assert not all(ok for _, ok, _ in HMY_WORKLOAD.checks(state, corrupted))
    # a last-bit change passes the relabelling tolerance but not the pin
    last_bit = dict(good, combined_cost=0.4368335534719870)
    assert all(ok for _, ok, _ in HMY_WORKLOAD.checks(state, last_bit))
    assert not all(ok for _, ok, _ in HMY_WORKLOAD.pin_checks(last_bit))
