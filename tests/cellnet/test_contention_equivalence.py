"""Golden digests of contended runs: the shared-channel engine, pinned.

The fifteen digests in ``test_legacy_equivalence.py`` all run with
``channel_capacity=None``; this file pins the other half of the engine.
Each scenario is a heavily loaded run over shared per-cell page slots
(Poisson arrivals, offered load well above what the channels carry), so
calls stretch groups over rounds, defer when starved, block at
``max_wait``, sweep for mislaid devices and, with faults, retry through
the queue.  Each digest hashes the run's full summary dict *plus the next
eight rng draws after the run* (the stream position), and a second digest
hashes the per-call record tuples, setup latency included.

The digests were recorded before the admission path and the scheduler's
bookkeeping were made array-native and set-based, which kept the same
arithmetic in the same order; every digest holds on both planner
backends.  If you change contention semantics *on purpose*,
re-record the digests and say so in the commit.
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
    LocationAreaPlan,
    RandomWalk,
    RecoveryPolicy,
    SimulationConfig,
)

# scenario -> config overrides on top of BASE.  Under contention the
# adaptive pager plans its oblivious heuristic strategy (a deferred page is
# no proof of absence), so "adaptive" pins the same digests as "heuristic".
SCENARIOS = {
    "heuristic": dict(),
    "blanket": dict(pager="blanket"),
    "adaptive": dict(pager="adaptive"),
    "conditional_distance": dict(
        prior_mode="conditional", reporting="distance", distance_threshold=2
    ),
    "page_loss_retries": dict(
        faults=FaultModel(page_loss=0.2),
        recovery=RecoveryPolicy(max_retries=2),
    ),
    "outage": dict(faults=FaultModel(outages=(CellOutage(cell=0, start=30, end=90),))),
    "call_durations": dict(mean_call_duration=4),
    "capacity2_carriers1": dict(channel_capacity=2, carriers=1),
}

BASE = dict(
    horizon=200,
    call_rate=1.0,
    arrival_mode="poisson",
    channel_capacity=1,
    carriers=1,
    max_paging_rounds=3,
    max_wait=4,
)

# scenario -> (sha256 of [summary, 8-draw rng tail], sha256 of call records)
GOLDEN_DIGESTS = {
    "adaptive": ("6d4703358d6d99c5960f19159e734e3c9340a20c444dc1e26647ebfc7d78a5e7", "036141c0a4a7fec0acadc5947d6af093d48a095631e2b87c26c0ab2700611afb"),
    "blanket": ("d2947a750c110836955b7cc255c3d1f8660d04ba5b0779ca3566c841835ba4dd", "9f766c60674c503641e79d8e802e1fc0e7aae52630a240daa046529be1170c94"),
    "call_durations": ("683152fc0546364cea13ef74e9ca494aa8ea11ff031c5bc5d29aef6305246901", "d65bec110c7c561b35234d92d7aac0973759e1362dc9ae22f207e7587ea7e7c4"),
    "capacity2_carriers1": ("a87f0bde2c30731eed49fdb744643059e83fe6279833a1df70f4ef3cd1a1aeac", "51fe224b96ed4cd7a4f2a75c7556f2aa25402ae1a66dcf965c40ae0297e3a8b5"),
    "conditional_distance": ("1f21c30e39e79d6a296962b3395f1be2ae003ed39479a7bc16373ac5f3b80b63", "49b29a6afa166d5fe31450b1d04007be381c72d8c6e141077424d2cb8f7af37e"),
    "heuristic": ("6d4703358d6d99c5960f19159e734e3c9340a20c444dc1e26647ebfc7d78a5e7", "036141c0a4a7fec0acadc5947d6af093d48a095631e2b87c26c0ab2700611afb"),
    "outage": ("23ce54443be2c43402e06989fe996be04ccacab408c6d1f3455daba042f2b9dc", "04adb072a887fcb87521c86e075a028dcf9475105e4f3f479f609fd2600882c5"),
    "page_loss_retries": ("d0616a96573ec5231087551e313f88b9615bc522e985b668c58897014a0c0777", "08bee679b3b3f94bd1d365723a2f5f759a0929c7fe493861081cfcabcb3b79e5"),
}

SEED = 5


def _run_scenario(overrides):
    rng = np.random.default_rng(SEED)
    topology = CellTopology.hexagonal_disk(2)
    plan = LocationAreaPlan.by_bfs(topology, 3)
    models = [RandomWalk(topology, stay_probability=0.3) for _ in range(8)]
    config = SimulationConfig(**{**BASE, **overrides})
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
            record.setup_latency,
        )
        for record in report.metrics.call_records
    ]
    records_digest = hashlib.sha256(json.dumps(records).encode()).hexdigest()
    return digest, records_digest, summary


class TestContentionEquivalence:
    """Contended runs replay their recorded results byte for byte."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_scenario_matches_golden(self, name):
        digest, records_digest, _summary = _run_scenario(SCENARIOS[name])
        expected_digest, expected_records = GOLDEN_DIGESTS[name]
        assert digest == expected_digest, (
            f"{name}: summary/rng-stream digest of the contended run drifted"
        )
        assert records_digest == expected_records, (
            f"{name}: per-call records of the contended run drifted"
        )

    def test_every_scenario_is_pinned(self):
        assert set(SCENARIOS) == set(GOLDEN_DIGESTS)

    def test_scenarios_exercise_contention(self):
        """The pinned runs really contend: calls defer, block and sweep."""
        _digest, _records, summary = _run_scenario(SCENARIOS["heuristic"])
        assert summary["blocking_probability"] > 0
        assert summary["deferred_steps"] > 0
        assert summary["fallbacks"] > 0
