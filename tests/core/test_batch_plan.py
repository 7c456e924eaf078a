"""Property suite: the batched planner, its backends, and the contract.

``repro.core.batch_plan.plan_batch`` is the one float implementation of
the Fig. 1 heuristic; the ``heuristic`` registry entry sends every float
instance through it as a batch of one.  Over SeedSequence-seeded random
batches (varying devices, cells, rounds, group-size caps) this suite pins:

* row independence — each row of a batch equals the batch-of-one plan of
  that instance exactly (``==`` on floats, not ``approx``);
* backend identity — the numpy backend is the bit-exact reference for the
  compiled kernel, at every device count tried (up to 64) and cell count
  (up to 800);
* the equivalence contract with the pure-Python reference
  :func:`repro.core.heuristic.conference_call_heuristic` on float
  instances, as stated under "Bit-identity scope" in docs/performance.md:
  identical order, value within ``1e-12`` relative, and identical group
  sizes except where two cut sequences tie.

Infeasible budgets must raise exactly when the reference raises.
"""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import (
    PagingInstance,
    available_backends,
    conference_call_heuristic,
    expected_paging,
    expected_paging_float,
    optimize_cuts,
    optimize_cuts_batch,
    plan_batch,
    stack_instances,
)
from repro.core import batch_plan
from repro.core.batch_plan import prefix_stop_probabilities_batch
from repro.errors import InfeasibleError
from repro.solvers import get_solver
from tests.conftest import use_backend

ROOT_SEED = 20020722

#: (batch, devices, cells, rounds, max_group_size) — includes tight caps
#: (d * b barely >= c), d = 1, c = 1, cap-free rows, and a cap above the
#: cell count (b > c must plan exactly like b == c, and must stay inside
#: the compiled kernel's scratch padding).
SHAPES = [
    (16, 2, 12, 3, None),
    (16, 4, 30, 5, None),
    (8, 3, 25, 4, 7),
    (8, 1, 10, 2, 5),
    (4, 2, 1, 1, None),
    (32, 4, 40, 8, 5),
    (8, 2, 10, 2, 40),
]

BACKENDS = available_backends()

#: Relative tolerance of the contract: float value vs the reference, and
#: the largest exact gap between two cut sequences that still counts as a
#: tie (a gap float arithmetic cannot resolve).
CONTRACT_RTOL = 1e-12


def _random_batch(shape_index):
    """Instances plus the exact float matrix both pipelines will see.

    ``PagingInstance.from_array`` renormalizes rows (and renormalization
    is not a bit-level fixed point), so bit-identity claims only make
    sense when the batch-of-one calls and the batch kernel consume the
    same ``as_array()`` bits — build the instances once and stack them.
    """
    batch, devices, cells, rounds, _cap = SHAPES[shape_index]
    seed = np.random.SeedSequence(ROOT_SEED, spawn_key=(shape_index,))
    rng = np.random.default_rng(seed)
    raw = rng.dirichlet(np.ones(cells), size=(batch, devices))
    instances = [PagingInstance.from_array(row, rounds) for row in raw]
    matrices = np.stack([instance.as_array() for instance in instances])
    return instances, matrices


@pytest.mark.parametrize("backend", BACKENDS, indirect=True)
@pytest.mark.parametrize("shape_index", range(len(SHAPES)))
def test_plan_batch_rows_equal_scalar_planner(shape_index, backend):
    batch, devices, cells, rounds, cap = SHAPES[shape_index]
    instances, matrices = _random_batch(shape_index)
    result = plan_batch(matrices, rounds, max_group_size=cap)
    assert result.backend == backend
    assert len(result) == batch
    assert bool(result.feasible.all())
    heuristic = get_solver("heuristic")
    for i, instance in enumerate(instances):
        scalar = heuristic(instance, max_group_size=cap)
        assert scalar.extras["backend"] == backend
        row = result.result(i)
        assert row.order == scalar.extras["order"]
        assert row.group_sizes == scalar.extras["group_sizes"]
        # Bit-identity, not approx: a scalar call is a batch of one.
        assert row.expected_paging == scalar.expected_paging
        assert row.strategy == scalar.strategy


def test_optimize_cuts_batch_equals_scalar_including_exact_ties(
    backend, monkeypatch
):
    # linspace find tables create exact float ties between cut candidates,
    # exercising the first-occurrence argmax/backtrack rule.
    c, d = 20, 4
    tied = np.linspace(0.0, 1.0, c + 1)
    rng = np.random.default_rng(np.random.SeedSequence(ROOT_SEED, spawn_key=(99,)))
    random_rows = np.sort(rng.random((6, c + 1)), axis=1)
    random_rows[:, 0] = 0.0
    finds = np.vstack([tied, np.zeros(c + 1), np.ones(c + 1), random_rows])
    stacks = {
        cap: optimize_cuts_batch(finds, d, max_group_size=cap)
        for cap in (None, 6, c, 3 * c)
    }
    # One row at a time through the numpy reference backend: same tie rule,
    # same bits, whichever backend planned the whole stack.
    use_backend(monkeypatch, "numpy")
    for cap, (sizes, values) in stacks.items():
        for i in range(finds.shape[0]):
            ref_sizes, ref_values = optimize_cuts_batch(
                finds[i : i + 1], d, max_group_size=cap
            )
            assert np.array_equal(sizes[i], ref_sizes[0])
            assert values[i].item() == ref_values[0].item()


def test_numpy_chunking_is_invisible(backend, monkeypatch):
    _instances, matrices = _random_batch(1)
    rounds = SHAPES[1][3]
    one_shot = plan_batch(matrices, rounds)
    monkeypatch.setattr(batch_plan, "_auto_chunk", lambda c: 3)
    chunked = plan_batch(matrices, rounds)
    assert np.array_equal(one_shot.orders, chunked.orders)
    assert np.array_equal(one_shot.group_sizes, chunked.group_sizes)
    assert np.array_equal(one_shot.values, chunked.values)


#: (batch, devices, cells, rounds, max_group_size) for the backend
#: identity check: device counts well past 8 and cell counts up to 800,
#: where the numpy reductions and the C loops could only agree if both
#: accumulate in the same order.
WIDE_SHAPES = [
    (batch, devices, cells, rounds, cap)
    for devices in (1, 3, 8, 9, 16, 33, 64)
    for batch, cells, rounds, cap in ((6, 40, 4, None), (3, 250, 5, 60))
] + [
    (4, 2, 17, 17, None),
    (5, 12, 3, 2, 2),
    (2, 4, 800, 5, None),
    (7, 5, 120, 6, 25),
    (1, 64, 250, 3, None),
    (9, 2, 2, 1, None),
    (3, 20, 64, 64, None),
]


def _plan_on(monkeypatch, name, matrices, rounds, cap):
    with monkeypatch.context() as patch:
        use_backend(patch, name)
        result = plan_batch(matrices, rounds, max_group_size=cap)
    assert result.backend == name
    return result


@pytest.mark.skipif(len(BACKENDS) < 2, reason="compiled backend unavailable")
def test_backends_agree_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(np.random.SeedSequence(ROOT_SEED, spawn_key=(7,)))
    assert len(WIDE_SHAPES) == 21
    for batch, devices, cells, rounds, cap in WIDE_SHAPES:
        matrices = rng.dirichlet(np.ones(cells), size=(batch, devices))
        results = [
            _plan_on(monkeypatch, name, matrices, rounds, cap) for name in BACKENDS
        ]
        for other in results[1:]:
            assert np.array_equal(results[0].orders, other.orders)
            assert np.array_equal(results[0].group_sizes, other.group_sizes)
            assert np.array_equal(results[0].values, other.values)


#: Instance families of the contract test.  Dirichlet rows never tie;
#: dyadic rows (multiples of 1/16, exact in binary) produce exact ties
#: between cut sequences; small-integer rows renormalized to non-dyadic
#: rationals (thirds, fifths, ...) round, which turns ties into near-ties
#: float arithmetic cannot resolve.
CONTRACT_FAMILIES = ("dirichlet", "dyadic", "rational")

#: Instances per family (3 x 1000 = 3000 in all).
CONTRACT_INSTANCES = 1000


def _contract_instance(rng, family):
    devices = int(rng.integers(1, 5))
    cells = int(rng.integers(1, 13))
    rounds = int(rng.integers(1, cells + 1))
    cap = None
    if rng.random() < 0.3:
        cap = int(rng.integers(-(-cells // rounds), cells + 1))
    if family == "dirichlet":
        instance = PagingInstance.from_array(
            rng.dirichlet(np.ones(cells), size=devices), rounds
        )
    elif family == "dyadic":
        counts = rng.multinomial(16, np.ones(cells) / cells, size=devices)
        instance = PagingInstance(
            (counts / 16.0).tolist(), rounds, allow_zero=True
        )
    else:
        weights = rng.integers(1, 4, size=(devices, cells)).astype(float)
        instance = PagingInstance.from_array(weights, rounds)
    return instance, cap


def _exact_value(instance, strategy):
    """Expected paging in Fraction arithmetic over the float entries' values."""
    rows = [
        [Fraction(*float(p).as_integer_ratio()) for p in row]
        for row in instance.as_array()
    ]
    exact = PagingInstance(
        rows, instance.max_rounds, allow_zero=True, validate=False
    )
    return expected_paging(exact, strategy)


def test_float_plans_match_reference_contract(backend):
    """The one equivalence contract (docs/performance.md, "Bit-identity scope").

    Against the pure-Python reference on float instances: the order is
    identical, the value is within ``CONTRACT_RTOL`` relative, and the
    group sizes are identical except where the two cut sequences tie —
    equal expected paging in exact arithmetic, or within ``CONTRACT_RTOL``
    of it (a near-tie from rounded entries).  Dirichlet rows never differ.
    """
    heuristic = get_solver("heuristic")
    differing = {family: [] for family in CONTRACT_FAMILIES}
    for index, family in enumerate(CONTRACT_FAMILIES):
        rng = np.random.default_rng(
            np.random.SeedSequence(ROOT_SEED, spawn_key=(11, index))
        )
        for _ in range(CONTRACT_INSTANCES):
            instance, cap = _contract_instance(rng, family)
            reference = conference_call_heuristic(instance, max_group_size=cap)
            plan = heuristic(instance, max_group_size=cap)
            assert plan.extras["backend"] == backend
            assert plan.extras["order"] == reference.order
            value = plan.expected_paging
            assert abs(value - reference.expected_paging) <= CONTRACT_RTOL * value
            assert value == pytest.approx(
                expected_paging_float(instance, plan.strategy), rel=CONTRACT_RTOL
            )
            if cap is not None:
                assert max(plan.extras["group_sizes"]) <= cap
            matrix = instance.as_array()
            finds = prefix_stop_probabilities_batch(
                matrix[None], np.array([reference.order])
            )[0]
            assert np.allclose(
                finds,
                instance.prefix_find_probabilities(reference.order),
                rtol=CONTRACT_RTOL,
                atol=0.0,
            )
            if plan.extras["group_sizes"] != reference.group_sizes:
                exact_reference = _exact_value(instance, reference.strategy)
                gap = _exact_value(instance, plan.strategy) - exact_reference
                differing[family].append(gap / exact_reference)
    assert differing["dirichlet"] == []
    # Dyadic rows tie exactly, and the exception clause is exercised.
    assert differing["dyadic"] and all(gap == 0 for gap in differing["dyadic"])
    assert all(abs(gap) <= CONTRACT_RTOL for gap in differing["rational"])


def test_run_batch_rejects_exact_instances(exact_instance, rng):
    heuristic = get_solver("heuristic")
    scalar = heuristic(exact_instance)
    assert isinstance(scalar.expected_paging, Fraction)
    floats = [
        PagingInstance.from_array(rng.dirichlet(np.ones(4), size=2), 2)
        for _ in range(3)
    ]
    with pytest.raises(TypeError, match="exact"):
        heuristic.run_batch([exact_instance])
    with pytest.raises(TypeError, match="exact"):
        heuristic.run_batch(floats + [exact_instance])
    with pytest.raises(TypeError, match="backend"):
        heuristic(exact_instance, backend="numpy")
    with pytest.raises(TypeError, match="backend"):
        heuristic(floats[0], backend="numpy")
    # Float instances: scalar and batch calls return the same plans.
    plans = heuristic.run_batch(floats)
    for row, instance in enumerate(floats):
        single = heuristic(instance)
        assert type(single.expected_paging) is float
        assert plans.result(row).strategy == single.strategy
        assert plans.values[row].item() == single.expected_paging
        assert plans.result(row).order == single.extras["order"]


def test_infeasible_budgets_raise_exactly_like_the_scalar_planner(backend):
    _instances, matrices = _random_batch(0)
    matrices = matrices[:4]
    cells = matrices.shape[2]
    # d * b < c: the reference raises, so the batch must too.
    with pytest.raises(InfeasibleError):
        optimize_cuts([0.0] * (cells + 1), 3, max_group_size=2)
    with pytest.raises(InfeasibleError):
        plan_batch(matrices, 3, max_group_size=2)
    # d outside 1 <= d <= c.
    with pytest.raises(InfeasibleError):
        plan_batch(matrices, cells + 1)
    with pytest.raises(InfeasibleError):
        plan_batch(matrices, 0)


def test_plan_batch_accepts_instance_sequences(rng):
    matrices = rng.dirichlet(np.ones(9), size=(5, 2))
    instances = [PagingInstance.from_array(row, 3) for row in matrices]
    result = plan_batch(instances)  # num_rounds from the shared max_rounds
    for i, instance in enumerate(instances):
        assert result.result(i).order == conference_call_heuristic(instance).order


def test_plan_batch_rejects_ambiguous_rounds(rng):
    matrices = rng.dirichlet(np.ones(9), size=(2, 2))
    instances = [
        PagingInstance.from_array(matrices[0], 2),
        PagingInstance.from_array(matrices[1], 3),
    ]
    with pytest.raises(ValueError, match="disagree on max_rounds"):
        plan_batch(instances)
    # Explicit num_rounds resolves the disagreement.
    assert len(plan_batch(instances, 2)) == 2


def test_plan_batch_raw_array_requires_rounds(rng):
    matrices = rng.dirichlet(np.ones(6), size=(3, 2))
    with pytest.raises(ValueError, match="num_rounds"):
        plan_batch(matrices)
    with pytest.raises(ValueError, match="batch, devices, cells"):
        plan_batch(matrices[0], 2)


def test_cap_above_cell_count_plans_like_uncapped(backend):
    # Any cap above c is equivalent to cap == c; the oversized cap must not
    # read outside the compiled kernel's padded scratch rows.
    _instances, matrices = _random_batch(3)
    rounds = SHAPES[3][3]
    cells = matrices.shape[2]
    huge = plan_batch(matrices, rounds, max_group_size=4 * cells)
    capped = plan_batch(matrices, rounds, max_group_size=cells)
    assert bool(huge.feasible.all())
    assert np.array_equal(huge.orders, capped.orders)
    assert np.array_equal(huge.group_sizes, capped.group_sizes)
    assert np.array_equal(huge.values, capped.values)
    assert (huge.group_sizes <= cells).all()


def test_empty_batch_returns_empty_result(backend):
    c, d = 8, 2
    result = plan_batch(np.empty((0, 2, c)), d)
    assert result.backend == backend
    assert len(result) == 0
    assert result.orders.shape == (0, c)
    assert result.group_sizes.shape == (0, d)
    assert result.values.shape == (0,)
    assert result.feasible.shape == (0,)
    sizes, values = optimize_cuts_batch(np.empty((0, c + 1)), d)
    assert sizes.shape == (0, d)
    assert values.shape == (0,)


def test_negative_zero_weights_tie_break_by_index(backend):
    # np.argsort treats -0.0 == 0.0 as ties broken by original index; a raw
    # bit-pattern sort would put -0.0 (sign bit set) before every positive
    # weight.  Both backends must order ties identically.
    c = 6
    matrices = np.zeros((2, 2, c))
    matrices[:, :, 1] = -0.0
    matrices[:, :, 4] = -0.0
    matrices[:, :, 3] = 0.25
    result = plan_batch(matrices, 2)
    expected = np.argsort(
        -matrices.sum(axis=1), axis=1, kind="stable"
    ).astype(np.intp)
    assert np.array_equal(result.orders, expected)


def test_stack_instances_rejects_mixed_shapes(rng):
    a = PagingInstance.from_array(rng.dirichlet(np.ones(6), size=2), 2)
    b = PagingInstance.from_array(rng.dirichlet(np.ones(7), size=2), 2)
    with pytest.raises(ValueError, match="shape"):
        stack_instances([a, b])
    with pytest.raises(ValueError, match="empty"):
        stack_instances([])
