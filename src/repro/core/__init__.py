"""Core algorithms of the Conference Call paging problem.

Everything the paper contributes lives here: the problem model
(:class:`PagingInstance`, :class:`Strategy`), the Lemma 2.1 evaluators, the
Lemma 4.7 dynamic program, the e/(e-1) heuristic of Theorem 4.8, the 4/3
special case, exact solvers, and the Section 5 extensions (adaptive, Yellow
Pages, Signature, bandwidth caps, clustered scheme).
"""

from __future__ import annotations

from .adaptive import (
    AdaptiveOptimalResult,
    AdaptiveTrace,
    adaptive_expected_paging,
    adaptive_monte_carlo,
    adaptive_quorum_expected_paging,
    adaptive_quorum_monte_carlo,
    adaptive_quorum_search,
    adaptive_search,
    adaptive_yellow_pages_expected_paging,
    adaptivity_gap,
    optimal_adaptive_expected_paging,
    optimal_adaptive_quorum_expected_paging,
)
from .backends import (
    BackendUnavailableError,
    available_backends,
    compiled_available,
    resolve_backend,
)
from .batch import (
    expected_paging_batch,
    expected_paging_monte_carlo_fast,
    sample_locations_batch,
    simulate_paging_batch,
)
from .batch_plan import (
    BatchPlanResult,
    optimize_cuts_batch,
    plan_batch,
    prefix_stop_probabilities_batch,
    stack_instances,
)
from .bandwidth import is_feasible, minimum_rounds
from .bounds import (
    alpha_sequence,
    approximation_factor,
    b_sequence,
    lemma31_function,
    lemma31_maximum,
    lemma32_lower_bound,
    lemma34_lower_bound,
    lemma34_objective,
    optimal_group_fractions,
    optimal_mass_fractions,
    ratio_lower_bound,
    special_case_factor,
)
from .clustered import (
    ClusteredResult,
    cluster_cells,
    clustered_exhaustive,
    interval_scheme,
    interval_scheme_error_bound,
)
from .dp import OrderedDPResult, dp_value_table, optimize_cuts, optimize_over_order
from .exact import (
    ExactResult,
    VariantExactResult,
    enumerate_strategies,
    optimal_signature,
    optimal_strategy,
    optimal_strategy_bruteforce,
    optimal_yellow_pages,
)
from .serialization import (
    instance_from_dict,
    instance_to_dict,
    strategy_from_dict,
    strategy_to_dict,
)
from .expected_paging import (
    all_found_probability,
    expected_paging,
    expected_paging_by_definition,
    expected_paging_float,
    expected_paging_from_stop_probabilities,
    expected_paging_monte_carlo,
    expected_rounds,
    prefix_stops_float,
    simulate_paging,
    stop_probabilities,
    stopping_round_distribution,
)
from .heuristic import (
    APPROXIMATION_FACTOR,
    LOWER_BOUND_RATIO,
    conference_call_heuristic,
    guarantee_bound,
    profile_heuristic,
)
from .imperfect import (
    CollisionDetection,
    ConstantDetection,
    ImperfectSearchOutcome,
    expected_paging_imperfect_monte_carlo,
    expected_paging_imperfect_single,
    imperfect_ordering_invariance,
    simulate_imperfect_search,
)
from .instance import PagingInstance
from .lower_bound import (
    HEURISTIC_VALUE,
    OPTIMAL_VALUE,
    RATIO,
    lower_bound_instance,
    optimal_strategy_of_instance,
    perturbed_instance,
)
from .ordering import (
    by_device_probability,
    by_expected_devices,
    by_max_probability,
    by_miss_probability,
    identity,
    random_order,
    validate_order,
)
from .signature import (
    SignatureResult,
    expected_paging_signature,
    optimize_signature_over_order,
    poisson_binomial_tail,
    signature_heuristic,
)
from .single_user import (
    expected_paging_for_sizes,
    optimal_single_user,
    uniform_expected_paging,
)
from .special_case import FOUR_THIRDS, TwoRoundSplit, two_device_two_round_heuristic
from .strategy import Strategy
from .weighted import (
    WeightedResult,
    by_density,
    optimal_weighted_strategy,
    optimize_cuts_weighted,
    weighted_expected_paging,
    weighted_heuristic,
    weighted_weight_order,
)
from .yellow_pages import (
    YellowPagesResult,
    expected_paging_yellow,
    optimize_yellow_over_order,
    yellow_pages_greedy,
    yellow_pages_m_approximation,
    yellow_pages_weight_order,
)

import types as _types

#: Generated export list: every public, non-module name imported above,
#: sorted.  Replaces the old hand-maintained 119-entry literal; the
#: meta-test in tests/test_public_api.py asserts it matches the static
#: ``from .module import ...`` statements exactly (no drift, no dups).
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_")
    and name != "annotations"
    and not isinstance(value, _types.ModuleType)
)
