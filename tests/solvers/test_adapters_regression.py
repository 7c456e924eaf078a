"""Adapters must be bit-identical to the legacy solver calls.

The registry promised "no numeric change": for every registered solver,
calling it through :func:`repro.solvers.get_solver` on a pinned instance
must return the *same* objective value (``Fraction`` equality on exact
instances, bitwise float equality otherwise) and the same
:class:`~repro.core.strategy.Strategy` as the direct legacy call.  Tests
are the one place still allowed to import the concrete functions — that
is exactly what makes this comparison meaningful.
"""

from fractions import Fraction

import pytest

from repro.core import (
    PagingInstance,
    adaptive_expected_paging,
    adaptive_quorum_expected_paging,
    clustered_exhaustive,
    conference_call_heuristic,
    lower_bound_instance,
    optimal_adaptive_expected_paging,
    optimal_adaptive_quorum_expected_paging,
    optimal_signature,
    optimal_single_user,
    optimal_strategy,
    optimal_strategy_bruteforce,
    optimal_weighted_strategy,
    optimal_yellow_pages,
    optimize_over_order,
    optimize_signature_over_order,
    optimize_yellow_over_order,
    plan_batch,
    profile_heuristic,
    signature_heuristic,
    two_device_two_round_heuristic,
    weighted_heuristic,
    weighted_weight_order,
    yellow_pages_greedy,
    yellow_pages_m_approximation,
    yellow_pages_weight_order,
)
from repro.solvers import get_solver, list_solvers

#: The Section 4.3 gadget: m=2, c=8, d=2, exact Fractions.
GADGET = lower_bound_instance()

#: A second pinned exact instance with three rounds and uneven rows.
SKEWED = PagingInstance(
    [
        [Fraction(5, 12), Fraction(3, 12), Fraction(2, 12), Fraction(1, 12), Fraction(1, 12)],
        [Fraction(1, 12), Fraction(1, 12), Fraction(2, 12), Fraction(3, 12), Fraction(5, 12)],
        [Fraction(4, 12), Fraction(2, 12), Fraction(2, 12), Fraction(2, 12), Fraction(2, 12)],
    ],
    max_rounds=3,
)

#: Float copies: the heuristic entry plans them through the batched kernel.
GADGET_FLOAT = GADGET.to_float()
SKEWED_FLOAT = SKEWED.to_float()

SINGLE = PagingInstance(
    [[Fraction(6, 16), Fraction(4, 16), Fraction(3, 16), Fraction(2, 16), Fraction(1, 16)]],
    max_rounds=3,
)

ORDER5 = (4, 2, 0, 1, 3)
ORDER8 = (0, 1, 2, 3, 4, 5, 6, 7)
COSTS5 = (Fraction(1), Fraction(3), Fraction(2), Fraction(1), Fraction(2))

#: (solver name, instance, registry options, legacy thunk).  Each legacy
#: thunk returns ``(strategy_or_None, objective_value)``.
CASES = [
    ("heuristic", GADGET, {},
     lambda: _sv(conference_call_heuristic(GADGET))),
    ("heuristic", SKEWED, {"max_rounds": 2},
     lambda: _sv(conference_call_heuristic(SKEWED, max_rounds=2))),
    # Float instances are a batch of one through the batched kernel; the
    # former name "heuristic-batch" is an alias of the same entry.
    ("heuristic", GADGET_FLOAT, {},
     lambda: _sv(plan_batch([GADGET_FLOAT]).result(0))),
    ("heuristic-batch", GADGET_FLOAT, {},
     lambda: _sv(plan_batch([GADGET_FLOAT]).result(0))),
    ("heuristic-batch", SKEWED_FLOAT, {"max_rounds": 2},
     lambda: _sv(plan_batch([SKEWED_FLOAT], 2).result(0))),
    ("profile-heuristic", SKEWED, {},
     lambda: _sv(profile_heuristic(SKEWED))),
    ("two-round-split", GADGET, {},
     lambda: _sv(two_device_two_round_heuristic(GADGET))),
    # Section 5's bandwidth cap is an option of the same entries.
    ("heuristic", SKEWED_FLOAT, {"max_group_size": 2},
     lambda: _sv(plan_batch([SKEWED_FLOAT], max_group_size=2).result(0))),
    ("dp-cuts", SKEWED, {"order": ORDER5},
     lambda: _sv(optimize_over_order(SKEWED, ORDER5))),
    ("dp-cuts", GADGET, {"order": ORDER8},
     lambda: _sv(optimize_over_order(GADGET, ORDER8))),
    ("exact", GADGET, {},
     lambda: _sv(optimal_strategy(GADGET))),
    ("exact", SKEWED, {},
     lambda: _sv(optimal_strategy(SKEWED))),
    ("exact-bruteforce", SKEWED, {},
     lambda: _sv(optimal_strategy_bruteforce(SKEWED))),
    ("single-user", SINGLE, {},
     lambda: _sv(optimal_single_user(SINGLE))),
    ("exact", SKEWED, {"max_group_size": 2},
     lambda: _sv(optimal_strategy(SKEWED, max_group_size=2))),
    ("clustered", SKEWED, {},
     lambda: _sv(clustered_exhaustive(SKEWED))),
    ("weighted-heuristic", SKEWED, {"costs": COSTS5},
     lambda: _cv(weighted_heuristic(SKEWED, COSTS5))),
    ("weighted-weight-order", SKEWED, {"costs": COSTS5},
     lambda: _cv(weighted_weight_order(SKEWED, COSTS5))),
    ("weighted-exact", SKEWED, {"costs": COSTS5},
     lambda: _cv(optimal_weighted_strategy(SKEWED, COSTS5))),
    ("yellow-pages-greedy", SKEWED, {},
     lambda: _sv(yellow_pages_greedy(SKEWED))),
    ("yellow-pages-m-approx", SKEWED, {},
     lambda: _sv(yellow_pages_m_approximation(SKEWED))),
    ("yellow-pages-weight-order", SKEWED, {},
     lambda: _sv(yellow_pages_weight_order(SKEWED))),
    ("yellow-pages-cuts", SKEWED, {"order": ORDER5},
     lambda: _sv(optimize_yellow_over_order(SKEWED, ORDER5))),
    ("yellow-pages-exact", SKEWED, {},
     lambda: _sv(optimal_yellow_pages(SKEWED))),
    ("signature", SKEWED, {"quorum": 2},
     lambda: _sv(signature_heuristic(SKEWED, 2))),
    ("signature-cuts", SKEWED, {"order": ORDER5, "quorum": 2},
     lambda: _sv(optimize_signature_over_order(SKEWED, ORDER5, 2))),
    ("signature-exact", SKEWED, {"quorum": 2},
     lambda: _sv(optimal_signature(SKEWED, 2))),
    ("adaptive", SKEWED, {},
     lambda: (None, adaptive_expected_paging(SKEWED))),
    ("adaptive-optimal", SKEWED, {},
     lambda: (None, optimal_adaptive_expected_paging(SKEWED).expected_paging)),
    ("adaptive-quorum", SKEWED, {"quorum": 2},
     lambda: (None, adaptive_quorum_expected_paging(SKEWED, 2))),
    ("adaptive-quorum-optimal", SKEWED, {"quorum": 2},
     lambda: (None, optimal_adaptive_quorum_expected_paging(SKEWED, 2))),
]


def _sv(result):
    return result.strategy, result.expected_paging


def _cv(result):
    return result.strategy, result.expected_cost


@pytest.mark.parametrize(
    "name,instance,options,legacy",
    CASES,
    ids=[f"{case[0]}-{index}" for index, case in enumerate(CASES)],
)
def test_registry_result_is_bit_identical_to_legacy(name, instance, options, legacy):
    result = get_solver(name)(instance, **options)
    legacy_strategy, legacy_value = legacy()
    assert result.expected_paging == legacy_value
    assert type(result.expected_paging) is type(legacy_value)
    assert result.strategy == legacy_strategy
    assert result.solver == get_solver(name).name


def test_every_registered_solver_has_a_regression_case():
    covered = {get_solver(case[0]).name for case in CASES}
    registered = {spec.name for spec in list_solvers()}
    assert covered == registered, (
        f"missing regression cases: {sorted(registered - covered)}; "
        f"stale cases: {sorted(covered - registered)}"
    )


def test_exact_values_are_fractions_on_exact_instances():
    result = get_solver("exact")(GADGET)
    assert isinstance(result.expected_paging, Fraction)
    assert result.expected_paging == Fraction(317, 49)
    heuristic = get_solver("heuristic")(GADGET)
    assert heuristic.expected_paging == Fraction(320, 49)
