"""Registry adapters over every solver family in ``repro.core``.

Each adapter forwards to one legacy entry point (Fig. 1 heuristic, the
Lemma 4.7 DP, the §2 subset-DP exact solver, the §5 extensions) and
repackages its result into the :class:`~repro.solvers.result.SolverResult`
normal form.  Adapters never recompute or coerce values: the ``Fraction``
(or float) objective and the chosen :class:`~repro.core.strategy.Strategy`
are the very objects the wrapped function returned, which the regression
tests in ``tests/solvers`` pin bit-for-bit.

Wrapped functions carry a ``replint: solver`` docstring marker; lint rule
RPL007 checks that every marked entry point is imported (hence registered)
here and that its module cites a paper anchor.

The one exception to "one entry point" is ``heuristic``: the instance's
number type picks between the exact reference
(:func:`~repro.core.heuristic.conference_call_heuristic`) and the float
kernel (:func:`~repro.core.batch_plan.plan_batch`, a batch of one).
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

import numpy as np

from ..core.adaptive import (
    MAX_ADAPTIVE_CELLS,
    adaptive_expected_paging,
    adaptive_quorum_expected_paging,
    optimal_adaptive_expected_paging,
    optimal_adaptive_quorum_expected_paging,
)
from ..core.batch_plan import plan_batch
from ..core.clustered import clustered_exhaustive
from ..core.dp import optimize_over_order
from ..core.exact import (
    MAX_EXACT_CELLS,
    optimal_signature,
    optimal_strategy,
    optimal_strategy_bruteforce,
    optimal_yellow_pages,
)
from ..core.heuristic import (
    APPROXIMATION_FACTOR,
    conference_call_heuristic,
    profile_heuristic,
)
from ..core.instance import Number, PagingInstance
from ..core.signature import optimize_signature_over_order, signature_heuristic
from ..core.single_user import optimal_single_user
from ..core.special_case import FOUR_THIRDS, two_device_two_round_heuristic
from ..core.strategy import Strategy
from ..core.weighted import (
    optimal_weighted_strategy,
    weighted_heuristic,
    weighted_weight_order,
)
from ..core.yellow_pages import (
    optimize_yellow_over_order,
    yellow_pages_greedy,
    yellow_pages_m_approximation,
    yellow_pages_weight_order,
)
from .registry import register_solver

__all__ = ["MAX_ADAPTIVE_DEVICES", "MAX_BRUTEFORCE_CELLS"]

_Adapted = Tuple[Optional[Strategy], Number, Mapping[str, object]]

#: Practical ceiling for full set-partition enumeration (Bell numbers).
MAX_BRUTEFORCE_CELLS = 8

#: Branching of the adaptive recursion is 2^m per round; keep m small.
MAX_ADAPTIVE_DEVICES = 8


def _fits_exact(instance: PagingInstance) -> bool:
    return instance.num_cells <= MAX_EXACT_CELLS


# ---------------------------------------------------------------------------
# Conference Call objective — heuristics
# ---------------------------------------------------------------------------


def _plan_batch_many(instances, max_rounds=None, **options):
    """Batch adapter: one float kernel call over a whole instance stack.

    A raw array is float by construction; an instance sequence must not
    hold exact instances, whose scalar calls return ``Fraction`` values
    the float kernel cannot reproduce.
    """
    if not isinstance(instances, np.ndarray) and any(
        instance.is_exact for instance in instances
    ):
        raise TypeError(
            "run_batch plans in float arithmetic; exact (Fraction) instances "
            "plan one at a time through the scalar call"
        )
    return plan_batch(instances, max_rounds, **options)


@register_solver(
    "heuristic",
    kind="heuristic",
    capabilities=("bandwidth", "vectorized", "batch"),
    summary="weight ordering + Lemma 4.7 cut DP (the paper's main algorithm)",
    anchor="Fig. 1, Lemma 4.7, Theorem 4.8",
    options=("max_rounds", "max_group_size"),
    factor=APPROXIMATION_FACTOR,
    wraps=(conference_call_heuristic, plan_batch),
    batch=_plan_batch_many,
    aliases=("heuristic-batch",),
)
def _heuristic(instance: PagingInstance, **options: object) -> _Adapted:
    # The number type picks the path: exact instances keep Fraction
    # arithmetic in the reference, float ones are a batch of one.
    if instance.is_exact:
        result = conference_call_heuristic(instance, **options)
        return result.strategy, result.expected_paging, {
            "order": result.order, "group_sizes": result.group_sizes,
        }
    max_rounds = options.pop("max_rounds", None)
    batch = plan_batch([instance], max_rounds, **options)  # type: ignore[arg-type]
    result = batch.result(0)
    return result.strategy, result.expected_paging, {
        "order": result.order,
        "group_sizes": result.group_sizes,
        "backend": batch.backend,
    }


@register_solver(
    "profile-heuristic",
    kind="heuristic",
    summary="closed-form b-profile cuts over the weight ordering (ablation)",
    anchor="Section 4 (b-sequence of Lemma 3.1)",
    wraps=(profile_heuristic,),
)
def _profile_heuristic(instance: PagingInstance) -> _Adapted:
    result = profile_heuristic(instance)
    return result.strategy, result.expected_paging, {
        "order": result.order, "group_sizes": result.group_sizes,
    }


@register_solver(
    "two-round-split",
    kind="heuristic",
    summary="the 4/3-approximation for two devices in two rounds",
    anchor="Section 3 (4/3 special case)",
    factor=float(FOUR_THIRDS),
    wraps=(two_device_two_round_heuristic,),
    supports=lambda inst: inst.num_devices == 2 and inst.max_rounds == 2,
)
def _two_round_split(instance: PagingInstance) -> _Adapted:
    result = two_device_two_round_heuristic(instance)
    return result.strategy, result.expected_paging, {
        "order": result.order, "first_round_size": result.first_round_size,
    }


# ---------------------------------------------------------------------------
# Conference Call objective — order-restricted DP
# ---------------------------------------------------------------------------


@register_solver(
    "dp-cuts",
    kind="dp",
    capabilities=("bandwidth", "ordered"),
    summary="optimal cut points over a caller-supplied cell order",
    anchor="Lemma 4.7",
    options=("order", "max_rounds", "max_group_size"),
    required=("order",),
    wraps=(optimize_over_order,),
)
def _dp_cuts(instance: PagingInstance, order: object, **options: object) -> _Adapted:
    result = optimize_over_order(instance, order, **options)
    return result.strategy, result.expected_paging, {
        "order": result.order, "group_sizes": result.group_sizes,
    }


# ---------------------------------------------------------------------------
# Conference Call objective — exact solvers
# ---------------------------------------------------------------------------


@register_solver(
    "exact",
    kind="exact",
    capabilities=("bandwidth",),
    summary="optimal oblivious strategy by the subset DP (c <= 18)",
    anchor="Section 2 (Lemma 2.1 evaluation)",
    options=("max_rounds", "max_group_size"),
    wraps=(optimal_strategy,),
    supports=_fits_exact,
)
def _exact(instance: PagingInstance, **options: object) -> _Adapted:
    result = optimal_strategy(instance, **options)
    return result.strategy, result.expected_paging, {}


@register_solver(
    "exact-bruteforce",
    kind="exact",
    summary="optimal strategy by full ordered-partition enumeration (tiny c)",
    anchor="Section 2 (definition of EP)",
    options=("max_rounds", "enumeration_limit"),
    wraps=(optimal_strategy_bruteforce,),
    supports=lambda inst: inst.num_cells <= MAX_BRUTEFORCE_CELLS,
)
def _exact_bruteforce(instance: PagingInstance, **options: object) -> _Adapted:
    result = optimal_strategy_bruteforce(instance, **options)
    return result.strategy, result.expected_paging, {}


@register_solver(
    "single-user",
    kind="exact",
    capabilities=("bandwidth",),
    summary="optimal single-device strategy (classic paging, m = 1)",
    anchor="Section 3 (single user)",
    options=("max_rounds", "max_group_size"),
    wraps=(optimal_single_user,),
    supports=lambda inst: inst.num_devices == 1,
)
def _single_user(instance: PagingInstance, **options: object) -> _Adapted:
    result = optimal_single_user(instance, **options)
    return result.strategy, result.expected_paging, {
        "order": result.order, "group_sizes": result.group_sizes,
    }


@register_solver(
    "clustered",
    kind="exact",
    summary="exhaustive search over cluster-symmetric count matrices",
    anchor="Section 5 (clustered cells)",
    options=("max_rounds", "resolution", "limit"),
    wraps=(clustered_exhaustive,),
    supports=lambda inst: inst.num_cells <= 10,
)
def _clustered(instance: PagingInstance, **options: object) -> _Adapted:
    result = clustered_exhaustive(instance, **options)
    return result.strategy, result.expected_paging, {
        "clusters": result.clusters, "count_matrix": result.count_matrix,
    }


# ---------------------------------------------------------------------------
# Weighted costs (§5.1 Search Theory model) — objective is expected cost
# ---------------------------------------------------------------------------


@register_solver(
    "weighted-heuristic",
    kind="variant",
    capabilities=("weighted",),
    summary="density ordering + weighted cut DP (cost per unit mass)",
    anchor="Section 5 (Search Theory costs)",
    options=("costs", "max_rounds"),
    required=("costs",),
    wraps=(weighted_heuristic,),
)
def _weighted_heuristic(
    instance: PagingInstance, costs: object, **options: object
) -> _Adapted:
    result = weighted_heuristic(instance, costs, **options)
    return result.strategy, result.expected_cost, {
        "order": result.order, "objective": "expected-cost",
    }


@register_solver(
    "weighted-weight-order",
    kind="variant",
    capabilities=("weighted",),
    summary="the paper's weight ordering with weighted cuts (E25 ablation)",
    anchor="Section 5 (Search Theory costs)",
    options=("costs", "max_rounds"),
    required=("costs",),
    wraps=(weighted_weight_order,),
)
def _weighted_weight_order(
    instance: PagingInstance, costs: object, **options: object
) -> _Adapted:
    result = weighted_weight_order(instance, costs, **options)
    return result.strategy, result.expected_cost, {
        "order": result.order, "objective": "expected-cost",
    }


@register_solver(
    "weighted-exact",
    kind="variant",
    capabilities=("weighted", "exact-variant"),
    summary="exact minimum expected cost by the weighted subset DP (c <= 18)",
    anchor="Section 5 (Search Theory costs)",
    options=("costs", "max_rounds"),
    required=("costs",),
    wraps=(optimal_weighted_strategy,),
    supports=_fits_exact,
)
def _weighted_exact(
    instance: PagingInstance, costs: object, **options: object
) -> _Adapted:
    result = optimal_weighted_strategy(instance, costs, **options)
    return result.strategy, result.expected_cost, {
        "order": None, "objective": "expected-cost",
    }


# ---------------------------------------------------------------------------
# Yellow Pages (find any one device) — §5 variant objective
# ---------------------------------------------------------------------------


@register_solver(
    "yellow-pages-greedy",
    kind="variant",
    capabilities=("yellow-pages",),
    summary="hit-probability ordering cut for the find-one stopping rule",
    anchor="Section 5 (Yellow Pages)",
    options=("max_rounds",),
    wraps=(yellow_pages_greedy,),
)
def _yellow_pages_greedy(instance: PagingInstance, **options: object) -> _Adapted:
    result = yellow_pages_greedy(instance, **options)
    return result.strategy, result.expected_paging, {"order": result.order}


@register_solver(
    "yellow-pages-m-approx",
    kind="variant",
    capabilities=("yellow-pages",),
    summary="best per-device single-user order (the m-approximation)",
    anchor="Section 5 (Yellow Pages)",
    options=("max_rounds",),
    wraps=(yellow_pages_m_approximation,),
)
def _yellow_pages_m_approx(instance: PagingInstance, **options: object) -> _Adapted:
    result = yellow_pages_m_approximation(instance, **options)
    return result.strategy, result.expected_paging, {"order": result.order}


@register_solver(
    "yellow-pages-weight-order",
    kind="variant",
    capabilities=("yellow-pages",),
    summary="Conference Call weight ordering applied to find-one (degrades)",
    anchor="Section 5 (Yellow Pages)",
    options=("max_rounds",),
    wraps=(yellow_pages_weight_order,),
)
def _yellow_pages_weight_order(
    instance: PagingInstance, **options: object
) -> _Adapted:
    result = yellow_pages_weight_order(instance, **options)
    return result.strategy, result.expected_paging, {"order": result.order}


@register_solver(
    "yellow-pages-cuts",
    kind="variant",
    capabilities=("yellow-pages", "ordered", "bandwidth"),
    summary="optimal find-one cuts over a caller-supplied order",
    anchor="Section 5 (Yellow Pages)",
    options=("order", "max_rounds", "max_group_size"),
    required=("order",),
    wraps=(optimize_yellow_over_order,),
)
def _yellow_pages_cuts(
    instance: PagingInstance, order: object, **options: object
) -> _Adapted:
    result = optimize_yellow_over_order(instance, order, **options)
    return result.strategy, result.expected_paging, {"order": result.order}


@register_solver(
    "yellow-pages-exact",
    kind="variant",
    capabilities=("yellow-pages", "exact-variant"),
    summary="exact find-one optimum by the mask-stop subset DP (c <= 18)",
    anchor="Section 5 (Yellow Pages)",
    options=("max_rounds",),
    wraps=(optimal_yellow_pages,),
    supports=_fits_exact,
)
def _yellow_pages_exact(instance: PagingInstance, **options: object) -> _Adapted:
    result = optimal_yellow_pages(instance, **options)
    return result.strategy, result.expected_paging, {"rule": result.rule}


# ---------------------------------------------------------------------------
# Signature (find k of m, quorum) — §5 variant objective
# ---------------------------------------------------------------------------


@register_solver(
    "signature",
    kind="variant",
    capabilities=("signature",),
    summary="weight-ordered heuristic for the quorum-k stopping rule",
    anchor="Section 5 (Signature)",
    options=("quorum", "max_rounds"),
    required=("quorum",),
    wraps=(signature_heuristic,),
)
def _signature(instance: PagingInstance, quorum: int, **options: object) -> _Adapted:
    result = signature_heuristic(instance, quorum, **options)
    return result.strategy, result.expected_paging, {
        "order": result.order, "quorum": result.quorum,
    }


@register_solver(
    "signature-cuts",
    kind="variant",
    capabilities=("signature", "ordered", "bandwidth"),
    summary="optimal quorum-k cuts over a caller-supplied order",
    anchor="Section 5 (Signature)",
    options=("order", "quorum", "max_rounds", "max_group_size"),
    required=("order", "quorum"),
    wraps=(optimize_signature_over_order,),
)
def _signature_cuts(
    instance: PagingInstance, order: object, quorum: int, **options: object
) -> _Adapted:
    result = optimize_signature_over_order(instance, order, quorum, **options)
    return result.strategy, result.expected_paging, {
        "order": result.order, "quorum": result.quorum,
    }


@register_solver(
    "signature-exact",
    kind="variant",
    capabilities=("signature", "exact-variant"),
    summary="exact quorum-k optimum by the mask-stop subset DP (c <= 18)",
    anchor="Section 5 (Signature)",
    options=("quorum", "max_rounds"),
    required=("quorum",),
    wraps=(optimal_signature,),
    supports=_fits_exact,
)
def _signature_exact(
    instance: PagingInstance, quorum: int, **options: object
) -> _Adapted:
    result = optimal_signature(instance, quorum, **options)
    return result.strategy, result.expected_paging, {"rule": result.rule}


# ---------------------------------------------------------------------------
# Adaptive policies (§5) — value-only results, no oblivious strategy
# ---------------------------------------------------------------------------


@register_solver(
    "adaptive",
    kind="variant",
    capabilities=("adaptive",),
    summary="expected paging of the replan-each-round adaptive policy",
    anchor="Section 5 (adaptive searches)",
    wraps=(adaptive_expected_paging,),
    supports=lambda inst: inst.num_devices <= MAX_ADAPTIVE_DEVICES,
)
def _adaptive(instance: PagingInstance) -> _Adapted:
    value = adaptive_expected_paging(instance)
    return None, value, {"policy": "replan-heuristic"}


@register_solver(
    "adaptive-optimal",
    kind="variant",
    capabilities=("adaptive", "exact-variant"),
    summary="exact minimum expected paging over all adaptive policies",
    anchor="Section 5 (adaptive searches)",
    options=("max_rounds",),
    wraps=(optimal_adaptive_expected_paging,),
    supports=lambda inst: inst.num_cells <= MAX_ADAPTIVE_CELLS,
)
def _adaptive_optimal(instance: PagingInstance, **options: object) -> _Adapted:
    result = optimal_adaptive_expected_paging(instance, **options)
    return None, result.expected_paging, {"first_group": result.first_group}


@register_solver(
    "adaptive-quorum",
    kind="variant",
    capabilities=("adaptive", "signature"),
    summary="adaptive replanning under the quorum-k stopping rule",
    anchor="Section 5 (adaptive + Signature)",
    options=("quorum",),
    required=("quorum",),
    wraps=(adaptive_quorum_expected_paging,),
    supports=lambda inst: inst.num_devices <= MAX_ADAPTIVE_DEVICES,
)
def _adaptive_quorum(instance: PagingInstance, quorum: int) -> _Adapted:
    value = adaptive_quorum_expected_paging(instance, quorum)
    return None, value, {"quorum": quorum, "policy": "replan-signature"}


@register_solver(
    "adaptive-quorum-optimal",
    kind="variant",
    capabilities=("adaptive", "signature", "exact-variant"),
    summary="exact optimal adaptive policy for the find-k-of-m objective",
    anchor="Section 5 (adaptive + Signature)",
    options=("quorum",),
    required=("quorum",),
    wraps=(optimal_adaptive_quorum_expected_paging,),
    supports=lambda inst: inst.num_cells <= MAX_ADAPTIVE_CELLS
    and inst.num_devices <= MAX_ADAPTIVE_DEVICES,
)
def _adaptive_quorum_optimal(instance: PagingInstance, quorum: int) -> _Adapted:
    value = optimal_adaptive_quorum_expected_paging(instance, quorum)
    return None, value, {"quorum": quorum}

