"""Ablations of the Fig. 1 heuristic's two pieces: the order and the cuts.

A1 fixes the cut DP and swaps the cell ordering: the paper's weight order
is the load-bearing choice, and an uninformed (random) order always pays
more.  A3 fixes the weight order and swaps the DP cuts for the closed-form
Lemma 3.4 ``b``-profile: the DP is never worse, and the profile is
near-optimal on uniform inputs, where it is the gadget optimum.
"""

import numpy as np

from repro.core import (
    by_expected_devices,
    by_max_probability,
    by_miss_probability,
    conference_call_heuristic,
    identity,
    optimize_over_order,
    profile_heuristic,
    random_order,
)
from repro.distributions import instance_family

TRIALS = 12
ORDERS = {
    "weight": by_expected_devices,
    "max_prob": by_max_probability,
    "miss_prob": by_miss_probability,
    "index": identity,
}


def _mean_ep_per_order(family, rng):
    """Mean EP of the cut DP over each order, on ``TRIALS`` instances."""
    sums = dict.fromkeys([*ORDERS, "random"], 0.0)
    for _ in range(TRIALS):
        instance = instance_family(family, 3, 10, 3, rng=rng)
        for name, order_fn in ORDERS.items():
            result = optimize_over_order(instance, order_fn(instance))
            sums[name] += float(result.expected_paging)
        shuffled = optimize_over_order(instance, random_order(instance, rng))
        sums["random"] += float(shuffled.expected_paging)
    return {name: total / TRIALS for name, total in sums.items()}


def test_a1_weight_order_is_best_or_close():
    rng = np.random.default_rng(101)
    for family in ("zipf", "hotspot", "skewed-dirichlet"):
        means = _mean_ep_per_order(family, rng)
        competitors = [value for name, value in means.items() if name != "weight"]
        assert means["weight"] <= min(competitors) + 0.35, (family, means)
        assert means["weight"] <= means["random"], (family, means)


def test_a3_dp_cuts_never_lose_to_the_profile():
    rng = np.random.default_rng(103)
    for family in ("uniform", "zipf", "hotspot", "skewed-dirichlet"):
        dp_total = profile_total = 0.0
        for _ in range(TRIALS):
            instance = instance_family(family, 3, 12, 3, rng=rng)
            dp_total += float(conference_call_heuristic(instance).expected_paging)
            profile_total += float(profile_heuristic(instance).expected_paging)
        # The DP is optimal per order.
        assert profile_total / TRIALS >= dp_total / TRIALS - 1e-9, family
        if family == "uniform":
            # Near-optimal where the profile is designed to be.
            assert profile_total / dp_total - 1.0 < 0.05
