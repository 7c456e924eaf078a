"""Bit-identity of the engine façade with the pre-engine step loop.

The golden digests below were recorded by running the *pre-refactor*
``CellularSimulator`` (the hand-written ``for time in range(...)`` loop,
commit ``82d69e1``) over representative configurations: every pager,
every reporting policy, both learned-prior ablations, call durations, and
three fault/recovery mixes, across three mobility models.  Fifteen remain;
a sixteenth ran the retired pager name ``heuristic-batch``, and both of
its digests equalled ``baseline_la_heuristic``'s byte for byte.
Each digest hashes the run's full summary dict *plus the next eight rng
draws after the run* (so the stream position is pinned, not just the
outputs), and a second digest hashes the per-call record tuples.

The refactored simulator routes the same configurations through
:class:`repro.cellnet.engine.EventEngine` (``channel_capacity=None``).
These tests are the contract that the engine schedule replays the legacy
loop event for event — any reordering of rng draws, any changed summary
key, any perturbed call record breaks a digest.  If you change simulator
semantics *on purpose*, re-record the digests and say so in the commit.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.cellnet import (
    CellOutage,
    CellTopology,
    CellularSimulator,
    FaultModel,
    GravityMobility,
    LocationAreaPlan,
    RandomWalk,
    RandomWaypoint,
    RecoveryPolicy,
    SimulationConfig,
)

# scenario -> (config overrides, mobility model kind)
SCENARIOS = {
    "baseline_la_heuristic": (dict(), "walk"),
    "blanket": (dict(pager="blanket"), "walk"),
    "adaptive": (dict(pager="adaptive"), "walk"),
    "always_reporting": (dict(reporting="always"), "walk"),
    "never_reporting": (dict(reporting="never"), "walk"),
    "timer_reporting": (dict(reporting="timer", timer_period=7), "walk"),
    "distance_reporting": (dict(reporting="distance", distance_threshold=2), "walk"),
    "uniform_prior": (dict(prior_mode="uniform"), "walk"),
    "conditional_prior": (
        dict(prior_mode="conditional", reporting="distance"),
        "walk",
    ),
    "call_durations": (dict(mean_call_duration=4), "walk"),
    "faults_page_loss": (
        dict(
            faults=FaultModel(page_loss=0.2),
            recovery=RecoveryPolicy(max_retries=2),
        ),
        "walk",
    ),
    "faults_everything": (
        dict(
            faults=FaultModel(
                page_loss=0.1,
                update_loss=0.15,
                stale_after=10,
                outages=(CellOutage(cell=2, start=20, end=60),),
                cell_page_loss={1: 0.5},
            ),
            recovery=RecoveryPolicy(max_retries=1, backoff_base=1),
        ),
        "walk",
    ),
    "faults_blanket": (
        dict(pager="blanket", faults=FaultModel(page_loss=0.3)),
        "walk",
    ),
    "gravity_conditional": (
        dict(prior_mode="conditional", reporting="distance", transition_samples=500),
        "gravity",
    ),
    "waypoint_timer": (dict(reporting="timer", timer_period=5), "waypoint"),
}

# scenario -> (sha256 of [summary, 8-draw rng tail], sha256 of call records)
GOLDEN_DIGESTS = {
    "adaptive": ("c13b3eb8612627d4bd56615b7db3de26f915b16fd46437c3c6325a6b89d88e8c", "6cfaa040bb68ce36b73afe3138f74a2f5b8ddc27646d7997b3c1a352b6d7d368"),
    "always_reporting": ("b6a35b81eb5301c00d4aa709b22bbbbd6565d1216640437516cf1c63c34ea527", "be2b09881c98d4897efee7d944efd551bcb024e0cb7d93f0af4a319c813325d0"),
    "baseline_la_heuristic": ("8cd78ef9aac980c9070815f7e1ac9aada38496ace6371d750fd00c399a2c3399", "1327599380753bd66d105c7b839420abbd38487eb0d1785008b807f3a310e8da"),
    "blanket": ("b7e52ed385ed08f1c8e55ec2edd27efddae6ad1a08b14776b2854c7499139807", "0ce48a5234f4985219c8bce8e3ccb06a9d3897e5d4d0b7e6bbab34b5d8c0436a"),
    "call_durations": ("2a20cd231f56cf9e52b0caad0ad8df7129c0d8c55dd40c794273752f451c00d3", "fa3a400a2910953c0587f38d149241122b4302d58eb1c55dda1d11bb8e70d03f"),
    "conditional_prior": ("fa71758905170ea307788395afa498f1d5913fc78249128dc76c1e7d208905e1", "259fb6104c1979523370bceb49899a7b638eb32542646b46200005a2ea7102f0"),
    "distance_reporting": ("171fa3626873bb4cc87b754e43bf470f0a2a3bde7d906bb571c6e8881697660a", "8a89727a6f212bcdc621d2e3523a3a7601e8fe03e5176d395e336077a0ae02ee"),
    "faults_blanket": ("e903770eb501d905a0a142d6bff252385a5722f701151e97694e3bfc0ed2a19e", "daab4f38fa41ea3aface83184c633d0265a56966350d5c3b2f48b7d344d57b80"),
    "faults_everything": ("c5e6c241bfddc928bc357c773dd35b039e00d7547292178c6c79c9e3e7f897d3", "b7362661f1b138f5fc9a81e1da8471d87312146f407b6d71ac4611e0913bd9e6"),
    "faults_page_loss": ("a7552ed916c605db1586b4f0bb0e4761551c669b6142547d41ca8c762e9bb1a6", "6e21032b35c9c728fe92d83feeff9ca59e5cd10b90ca50a02d9d419226e93c9a"),
    "gravity_conditional": ("7442f51c037145173466022ac64aaa70ae04259548f74038e7de7c9239356abf", "7d8c79f2f13e3882b3a7ed097fa78fa6ec1882a77c4e7f41717d0264df0a421e"),
    "never_reporting": ("a4b5ad24e9e7100432391d6f4228b89680ed63bffa438b3c132e10da52bd1c9e", "5163a6adb6d4043d17d49cf902b91e014268319927ce86b82f1f20897712386d"),
    "timer_reporting": ("1e8c61bd7bd0c5e834def623c2980d51d40d03f8491314a9fbd901ecd718b96f", "5163a6adb6d4043d17d49cf902b91e014268319927ce86b82f1f20897712386d"),
    "uniform_prior": ("239d7cadb384d7bbe4bc4adf0403dedd68379d2f66406eb7e5a9036b65a80a19", "cb5d92f20128222b172573eee598ddaac466bd58cd455457ac6d6224264fa712"),
    "waypoint_timer": ("2778ea1cbfd86057756d5933ca0d4edc45db269bce7dabce461c42e8311b0c07", "67e7b89af127486bee5aa6578d575a86802aa3e29eedd8d90ed88b2a5cbbe5da"),
}

SEED = 11


def _run_scenario(overrides, model_kind):
    overrides = dict(overrides)
    rng = np.random.default_rng(SEED)
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    if model_kind == "walk":
        models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
    elif model_kind == "gravity":
        attraction = np.random.default_rng(SEED + 1).uniform(
            0.5, 3.0, size=topology.num_cells
        )
        models = [GravityMobility(topology, attraction) for _ in range(4)]
    else:
        models = [RandomWaypoint(topology) for _ in range(4)]
    config = SimulationConfig(
        horizon=160,
        call_rate=0.12,
        max_paging_rounds=3,
        **overrides,
    )
    simulator = CellularSimulator(topology, plan, models, config, rng=rng)
    report = simulator.run()
    summary = report.summary()
    tail = [float(rng.random()) for _ in range(8)]
    digest = hashlib.sha256(
        json.dumps([summary, tail], sort_keys=True).encode()
    ).hexdigest()
    records = [
        (
            record.time,
            record.participants,
            record.cells_paged,
            record.rounds_used,
            record.used_fallback,
            record.failed_devices,
            record.retries,
        )
        for record in report.metrics.call_records
    ]
    records_digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    return digest, records_digest


class TestLegacyEquivalence:
    """channel_capacity=None replays the pre-engine loop byte for byte."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_golden(self, name):
        overrides, model_kind = SCENARIOS[name]
        digest, records_digest = _run_scenario(overrides, model_kind)
        expected_digest, expected_records = GOLDEN_DIGESTS[name]
        assert digest == expected_digest, (
            f"{name}: summary/rng-stream digest drifted from the "
            "pre-engine simulator — the engine schedule no longer replays "
            "the legacy step loop bit-identically"
        )
        assert records_digest == expected_records, (
            f"{name}: per-call records drifted from the pre-engine simulator"
        )

    def test_every_scenario_is_pinned(self):
        assert set(SCENARIOS) == set(GOLDEN_DIGESTS)

    def test_legacy_summary_has_no_contention_keys(self):
        overrides, model_kind = SCENARIOS["baseline_la_heuristic"]
        rng = np.random.default_rng(SEED)
        topology = CellTopology.hexagonal_disk(2)
        plan = LocationAreaPlan.by_bfs(topology, 3)
        models = [RandomWalk(topology, stay_probability=0.3) for _ in range(4)]
        config = SimulationConfig(horizon=40, call_rate=0.12)
        simulator = CellularSimulator(topology, plan, models, config, rng=rng)
        summary = simulator.run().summary()
        assert "blocking_probability" not in summary
        assert "offered_calls" not in summary
