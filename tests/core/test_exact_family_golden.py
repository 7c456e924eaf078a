"""Golden pins for the exact, cut and adaptive solver families.

The Conference Call subset DP, its Yellow Pages / Signature / weighted
variants, the ordered cut DPs and the adaptive policies (heuristic replanning
and the exact optimum, for Conference Call and for quorums) are all pinned
here by digest over one seeded set of small instances, float and
``Fraction``.  The digests were recorded before these families were merged
into one subset DP and one adaptive engine, so they show that the merge
changed no strategy and no value.

Each digest hashes ``repr`` of ``(groups, value)`` per instance (groups as
sorted tuples), so a moved tie-break or a changed float rounding breaks it.
The one exception is the optimal adaptive quorum value on float instances,
which is pinned to 1e-15 relative: its root-level conditioning divides by
``P_i(all cells)``, which is 1 only up to float rounding.
"""

from __future__ import annotations

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core import (
    PagingInstance,
    adaptive_quorum_search,
    adaptive_search,
    optimal_adaptive_quorum_expected_paging,
)
from repro.solvers import get_solver

SEED = 20021
NUM_INSTANCES = 24


def _groups(strategy):
    return tuple(tuple(sorted(group)) for group in strategy.groups)


def _case(index, rng):
    """One instance plus the inputs its variant solvers need."""
    m = 1 + index % 3
    c = 2 + (index // 3) % 6
    d = int(rng.integers(2, min(c, 4) + 1))
    exact = index % 5 in (0, 2)
    weights = rng.integers(1, 30, size=(m, c))
    rows = []
    for row in weights:
        total = int(row.sum())
        if exact:
            rows.append([Fraction(int(w), total) for w in row])
        else:
            rows.append([float(w) / total for w in row])
    instance = PagingInstance(rows, max_rounds=d)
    raw_costs = [int(w) for w in rng.integers(1, 6, size=c)]
    costs = raw_costs if exact else [w + 0.5 for w in raw_costs]
    order = tuple(int(j) for j in rng.permutation(c))
    draws = [tuple(int(j) for j in rng.integers(0, c, size=m)) for _ in range(3)]
    return instance, costs, order, draws


def _cases():
    rng = np.random.default_rng(SEED)
    return [_case(index, rng) for index in range(NUM_INSTANCES)]


CASES = _cases()


def _solve(name, instance, **options):
    result = get_solver(name)(instance, **options)
    groups = None if result.strategy is None else _groups(result.strategy)
    return groups, result.expected_paging


def _family(case):
    """``family name -> list of (groups, value)`` records for one case."""
    instance, costs, order, draws = case
    c, m, d = instance.num_cells, instance.num_devices, instance.max_rounds
    quorums = range(1, m + 1)
    cap = -(-c // d)
    adaptive_optimal = get_solver("adaptive-optimal")(instance)
    return {
        "exact": [_solve("exact", instance)],
        "exact-capped": [_solve("exact", instance, max_group_size=cap)],
        "yellow-pages-exact": [_solve("yellow-pages-exact", instance)],
        "signature-exact": [
            _solve("signature-exact", instance, quorum=k) for k in quorums
        ],
        "weighted-exact": [
            _solve("weighted-exact", instance, costs=costs),
            _solve("weighted-exact", instance, costs=[w * 1.0 for w in costs]),
        ],
        "weighted-heuristic": [
            _solve("weighted-heuristic", instance, costs=costs),
            _solve("weighted-heuristic", instance, costs=[w * 1.0 for w in costs]),
        ],
        "yellow-pages-cuts": [
            _solve("yellow-pages-cuts", instance, order=order),
            _solve("yellow-pages-cuts", instance, order=order, max_group_size=cap),
        ],
        "signature-cuts": [
            _solve("signature-cuts", instance, order=order, quorum=k)
            for k in quorums
        ],
        "adaptive": [_solve("adaptive", instance)],
        "adaptive-optimal": [
            (
                adaptive_optimal.extras["first_group"],
                adaptive_optimal.expected_paging,
            )
        ],
        "adaptive-quorum": [
            _solve("adaptive-quorum", instance, quorum=k) for k in quorums
        ],
        "adaptive-search": [
            (trace.groups, trace.cells_paged, trace.rounds_used)
            for trace in (adaptive_search(instance, draw) for draw in draws)
        ],
        "adaptive-quorum-search": [
            (trace.groups, trace.cells_paged, trace.rounds_used, trace.devices_found)
            for trace in (
                adaptive_quorum_search(instance, k, draw)
                for k in quorums
                for draw in draws
            )
        ],
    }


def _digests():
    records = {}
    for case in CASES:
        for family, rows in _family(case).items():
            records.setdefault(family, []).append(rows)
    return {
        family: hashlib.sha256(repr(rows).encode()).hexdigest()
        for family, rows in records.items()
    }


GOLDEN = {
    "adaptive": "08ee79604a68b812994a2d8bbbf6b2e40e2fe79e346113598c27710d3328a631",
    "adaptive-optimal": "17b9a57488e3b29aecd45c33708ac9469cc3af3ca49a54adcbac2b1ad3c8d40f",
    "adaptive-quorum": "a83e0e6cbb2fe858b271ce70a2aa8ab1b9994a22bb19cd1d4f5ff247dacb58e6",
    "adaptive-quorum-search": "53c60407e7d74da0eba80d3c102b5479b6142f875c41e586a30d98a0c152c7cb",
    "adaptive-search": "dc6277c1b2b8a118aa870ac7e938205c0b2d991616c80dd5c469016d7dcb6086",
    "exact": "d9e72d1552d44ff4ec0aeea78f3641b8e5a381ca9a394393eca56d158b8b8062",
    "exact-capped": "8b9819eb268dff9fbb98143739c3b9a2f36e8dea85b632508871840493ebeefc",
    "signature-cuts": "d564bbfc181811a14acb5080aec4860f1ab8b49119a9cf5dad8f79da814fa00a",
    "signature-exact": "069be141b91e6e054cbe4f6ac8ce184a12db923643f2a4262667e0a9c60bc6c9",
    "weighted-exact": "556b9bffb00a2573e6478a59e9def3119e7ba176e4287cbc79f9bb418471ef2b",
    "weighted-heuristic": "71d02769b9d06c416d31d3f2ec92504b37c2d05ffd6f54d171ed76d729886212",
    "yellow-pages-cuts": "fbd3d8e7e33849ec299df19429f120dd6ee72062f7699bd0ea4885e099fe6aef",
    "yellow-pages-exact": "23c40d647710ee7e0d9e90dc168f18552e307ef5df3798ad7768a40ae4b41a3d",
}

#: Optimal adaptive quorum values: digest over the ``Fraction`` instances.
QUORUM_OPTIMAL_EXACT_DIGEST = (
    "7738ae85dddc00deb9ee93f0941a91348d337d7fce78e6bd07beea8febb63191"
)

#: Optimal adaptive quorum values on the float instances, per quorum.
QUORUM_OPTIMAL_FLOATS = {
    (1, 1): 1.0897435897435899,
    (1, 2): 1.8290598290598292,
    (3, 1): 2.161290322580645,
    (4, 1): 1.7653969384122465,
    (4, 2): 2.500177999288003,
    (6, 1): 2.25,
    (8, 1): 1.449755281089614,
    (8, 2): 2.433735513195783,
    (8, 3): 3.3226799298763314,
    (9, 1): 2.763440860215054,
    (11, 1): 2.446776252642377,
    (11, 2): 3.5248812462403283,
    (11, 3): 4.4110982672039745,
    (13, 1): 3.016949152542373,
    (13, 2): 4.780569007263923,
    (14, 1): 1.8228730630829109,
    (14, 2): 3.1635111441580377,
    (14, 3): 4.529576999339061,
    (16, 1): 2.579405162738496,
    (16, 2): 4.623035914702582,
    (18, 1): 1.4,
    (19, 1): 1.1176470588235294,
    (19, 2): 1.6176470588235294,
    (21, 1): 1.4642857142857144,
    (23, 1): 1.034013605442177,
    (23, 2): 1.3949092970521542,
    (23, 3): 2.2460997732426304,
}


@pytest.fixture(scope="module")
def digests():
    return _digests()


@pytest.mark.parametrize("family", sorted(GOLDEN))
def test_family_digest(digests, family):
    assert digests[family] == GOLDEN[family]


def test_every_family_is_pinned(digests):
    assert sorted(digests) == sorted(GOLDEN)


def test_optimal_adaptive_quorum_exact_digest():
    values = [
        [
            optimal_adaptive_quorum_expected_paging(instance, k)
            for k in range(1, instance.num_devices + 1)
        ]
        for instance, _costs, _order, _draws in CASES
        if instance.is_exact
    ]
    assert all(isinstance(v, Fraction) for row in values for v in row)
    digest = hashlib.sha256(repr(values).encode()).hexdigest()
    assert digest == QUORUM_OPTIMAL_EXACT_DIGEST


def test_optimal_adaptive_quorum_float_values():
    values = {}
    for index, (instance, _costs, _order, _draws) in enumerate(CASES):
        if instance.is_exact:
            continue
        for k in range(1, instance.num_devices + 1):
            values[(index, k)] = optimal_adaptive_quorum_expected_paging(instance, k)
    assert sorted(values) == sorted(QUORUM_OPTIMAL_FLOATS)
    for key, value in values.items():
        assert math.isclose(value, QUORUM_OPTIMAL_FLOATS[key], rel_tol=1e-15), key
