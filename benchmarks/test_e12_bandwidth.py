"""E12 — bandwidth-limited paging: at most b cells per round (Section 5)."""

import numpy as np

from repro.distributions import instance_family
from repro.experiments import run_e12_bandwidth
from repro.solvers import get_solver


def test_e12_bandwidth(benchmark, record_table):
    instance = instance_family("zipf", 2, 20, 5, rng=np.random.default_rng(12))
    result = benchmark(get_solver("heuristic"), instance, max_group_size=6)
    assert max(result.extras["group_sizes"]) <= 6

    table = record_table(run_e12_bandwidth(rng=np.random.default_rng(120)))
    for row in table.as_dicts():
        assert row["heuristic_ep"] >= row["optimal_ep"] - 1e-9
        assert row["heuristic_ep"] >= row["uncapped_heuristic_ep"] - 1e-9
