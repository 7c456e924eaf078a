"""Unit tests for repro.core.instance."""

from fractions import Fraction

import numpy as np
import pytest

from repro.core import PagingInstance
from repro.errors import InvalidInstanceError


class TestValidation:
    def test_rejects_empty_matrix(self):
        with pytest.raises(InvalidInstanceError):
            PagingInstance([], max_rounds=1)

    def test_rejects_empty_rows(self):
        with pytest.raises(InvalidInstanceError):
            PagingInstance([[]], max_rounds=1)

    def test_rejects_row_not_summing_to_one_exact(self):
        with pytest.raises(InvalidInstanceError, match="sums to"):
            PagingInstance([[Fraction(1, 2), Fraction(1, 4)]], max_rounds=1)

    def test_rejects_row_not_summing_to_one_float(self):
        with pytest.raises(InvalidInstanceError, match="sums to"):
            PagingInstance([[0.5, 0.4]], max_rounds=1)

    def test_accepts_float_rows_within_tolerance(self):
        third = 1.0 / 3.0
        instance = PagingInstance([[third, third, third]], max_rounds=1)
        assert instance.num_cells == 3

    def test_rejects_zero_probability_by_default(self):
        with pytest.raises(InvalidInstanceError, match="strictly positive"):
            PagingInstance([[Fraction(0), Fraction(1)]], max_rounds=1)

    def test_allows_zero_probability_when_requested(self):
        instance = PagingInstance(
            [[Fraction(0), Fraction(1)]], max_rounds=1, allow_zero=True
        )
        assert instance.probability(0, 0) == 0

    def test_rejects_negative_probability(self):
        with pytest.raises(InvalidInstanceError):
            PagingInstance(
                [[Fraction(-1, 4), Fraction(5, 4)]], max_rounds=1, allow_zero=True
            )

    def test_rejects_bad_max_rounds(self):
        row = [Fraction(1, 3)] * 3
        with pytest.raises(InvalidInstanceError, match="max_rounds"):
            PagingInstance([row], max_rounds=0)
        with pytest.raises(InvalidInstanceError, match="max_rounds"):
            PagingInstance([row], max_rounds=4)

    def test_rejects_ragged_rows(self):
        with pytest.raises(InvalidInstanceError, match="length"):
            PagingInstance(
                [[Fraction(1, 2), Fraction(1, 2)], [Fraction(1)]], max_rounds=1
            )


class TestFiniteEntries:
    """NaN and infinite entries are rejected on both construction paths."""

    def test_tuple_path_rejects_nan(self):
        with pytest.raises(InvalidInstanceError, match="finite"):
            PagingInstance([[float("nan"), 0.5]], 1, allow_zero=True)

    def test_array_path_rejects_nan(self):
        with pytest.raises(InvalidInstanceError, match="finite"):
            PagingInstance(np.array([[np.nan, 0.5]]), 1, allow_zero=True)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_both_paths_reject_infinities(self, bad):
        with pytest.raises(InvalidInstanceError):
            PagingInstance([[bad, 0.5]], 1, allow_zero=True)
        with pytest.raises(InvalidInstanceError):
            PagingInstance(np.array([[bad, 0.5]]), 1, allow_zero=True)


class TestArrayPath:
    """A 2-D float64 array validates like its rows and keeps the matrix."""

    #: (rows, max_rounds, allow_zero) triples each path must reject
    INVALID = [
        ([[0.5, 0.4]], 1, False),  # row sum
        ([[0.5, 0.5], [0.25, 0.5]], 1, False),  # second row's sum
        ([[0.0, 1.0]], 1, False),  # zero without allow_zero
        ([[-0.25, 1.25]], 1, True),  # negative
        ([[0.5, 0.5]], 0, False),  # d < 1
        ([[0.5, 0.5]], 3, False),  # d > c
        ([[0.5, np.nan, 0.5]], 1, True),  # NaN
    ]

    @pytest.mark.parametrize("rows, rounds, allow_zero", INVALID)
    def test_rejects_what_the_tuple_path_rejects(self, rows, rounds, allow_zero):
        with pytest.raises(InvalidInstanceError) as tuple_error:
            PagingInstance(rows, rounds, allow_zero=allow_zero)
        with pytest.raises(InvalidInstanceError) as array_error:
            PagingInstance(np.array(rows), rounds, allow_zero=allow_zero)
        assert str(array_error.value) == str(tuple_error.value)

    def test_rejects_empty_shapes(self):
        for shape in [(0, 3), (2, 0)]:
            with pytest.raises(InvalidInstanceError):
                PagingInstance(np.empty(shape), 1)

    def test_matches_tuple_instance(self):
        rng = np.random.default_rng(3)
        matrix = rng.dirichlet(np.ones(6), size=3)
        from_array = PagingInstance(matrix, 2)
        from_rows = PagingInstance(matrix.tolist(), 2)
        assert from_array == from_rows
        assert hash(from_array) == hash(from_rows)
        assert not from_array.is_exact
        assert from_array.rows == from_rows.rows
        assert np.array_equal(from_array.float_rows(), from_rows.float_rows())

    def test_shares_read_only_matrix_and_copies_writable_one(self):
        matrix = np.full((2, 4), 0.25)
        writable = PagingInstance(matrix, 2)
        assert writable.float_rows() is not matrix
        matrix[0, 0] = 0.0  # the instance kept its own copy
        assert writable.probability(0, 0) == 0.25
        frozen = np.full((2, 4), 0.25)
        frozen.setflags(write=False)
        assert PagingInstance(frozen, 2).float_rows() is frozen

    def test_rows_hold_float64_scalars(self):
        instance = PagingInstance(np.full((1, 4), 0.25), 2)
        assert all(type(p) is np.float64 for p in instance.row(0))


class TestAccessors:
    def test_dimensions(self, exact_instance):
        assert exact_instance.num_devices == 2
        assert exact_instance.num_cells == 4
        assert exact_instance.max_rounds == 2

    def test_exactness_flags(self, exact_instance, small_instance):
        assert exact_instance.is_exact
        assert not small_instance.is_exact

    def test_row_and_probability(self, exact_instance):
        assert exact_instance.row(0)[0] == Fraction(1, 2)
        assert exact_instance.probability(1, 3) == Fraction(1, 2)

    def test_as_array_round_trips(self, exact_instance):
        array = exact_instance.as_array()
        assert array.shape == (2, 4)
        assert array[0, 0] == pytest.approx(0.5)

    def test_cell_weights(self, exact_instance):
        weights = exact_instance.cell_weights()
        assert weights[0] == Fraction(5, 8)
        assert sum(weights) == 2  # total expected devices

    def test_equality_and_hash(self, exact_instance):
        clone = PagingInstance(exact_instance.rows, 2)
        assert clone == exact_instance
        assert hash(clone) == hash(exact_instance)
        assert clone != exact_instance.with_max_rounds(1)


class TestPrefixProducts:
    def test_prefix_find_probabilities_manual(self, exact_instance):
        finds = exact_instance.prefix_find_probabilities((0, 1, 2, 3))
        assert finds[0] == 0
        assert finds[1] == Fraction(1, 2) * Fraction(1, 8)
        assert finds[2] == Fraction(3, 4) * Fraction(1, 4)
        assert finds[4] == 1

    def test_prefix_respects_order(self, exact_instance):
        finds = exact_instance.prefix_find_probabilities((3, 2, 1, 0))
        assert finds[1] == Fraction(1, 8) * Fraction(1, 2)
        assert finds[4] == 1

    def test_float_instance_prefixes_sum_to_one(self, small_instance):
        order = tuple(range(small_instance.num_cells))
        finds = small_instance.prefix_find_probabilities(order)
        assert finds[-1] == pytest.approx(1.0)
        assert all(
            finds[i] <= finds[i + 1] + 1e-12 for i in range(len(finds) - 1)
        ), "find probabilities must be monotone along the prefix"


class TestTransformations:
    def test_with_max_rounds(self, exact_instance):
        changed = exact_instance.with_max_rounds(4)
        assert changed.max_rounds == 4
        assert changed.rows == exact_instance.rows

    def test_restrict_renormalizes(self, exact_instance):
        sub, mapping = exact_instance.restrict([0], [2, 3], max_rounds=2)
        assert mapping == (2, 3)
        assert sub.row(0) == (Fraction(1, 2), Fraction(1, 2))

    def test_restrict_multiple_devices(self, exact_instance):
        sub, _mapping = exact_instance.restrict([0, 1], [0, 1], max_rounds=1)
        assert sub.num_devices == 2
        assert sum(sub.row(0)) == 1
        assert sum(sub.row(1)) == 1

    def test_restrict_rejects_zero_mass(self):
        instance = PagingInstance(
            [[Fraction(1), Fraction(0)]], max_rounds=1, allow_zero=True
        )
        with pytest.raises(InvalidInstanceError, match="zero probability"):
            instance.restrict([0], [1], max_rounds=1)

    def test_restrict_rejects_empty(self, exact_instance):
        with pytest.raises(InvalidInstanceError):
            exact_instance.restrict([], [0], max_rounds=1)

    def test_to_float(self, exact_instance):
        converted = exact_instance.to_float()
        assert not converted.is_exact
        assert converted.probability(0, 0) == pytest.approx(0.5)


class TestConstructors:
    def test_uniform(self):
        instance = PagingInstance.uniform(3, 5, 2, exact=True)
        assert instance.probability(2, 4) == Fraction(1, 5)
        assert instance.is_exact

    def test_uniform_float(self):
        instance = PagingInstance.uniform(1, 4, 2)
        assert instance.probability(0, 0) == pytest.approx(0.25)

    def test_single_device(self):
        instance = PagingInstance.single_device(
            [Fraction(1, 2), Fraction(1, 2)], max_rounds=2
        )
        assert instance.num_devices == 1

    def test_from_array_renormalizes(self):
        instance = PagingInstance.from_array(np.array([[2.0, 2.0, 4.0]]), 2)
        assert instance.probability(0, 2) == pytest.approx(0.5)

    def test_from_array_rejects_bad_shapes(self):
        with pytest.raises(InvalidInstanceError):
            PagingInstance.from_array(np.ones(3), 1)
        with pytest.raises(InvalidInstanceError):
            PagingInstance.from_array(np.zeros((1, 3)), 1)


class TestSampling:
    def test_sample_locations_shape(self, small_instance, rng):
        locations = small_instance.sample_locations(rng)
        assert len(locations) == small_instance.num_devices
        assert all(0 <= cell < small_instance.num_cells for cell in locations)

    def test_sampling_matches_distribution(self, rng):
        instance = PagingInstance([[0.9, 0.1]], max_rounds=1)
        draws = [instance.sample_locations(rng)[0] for _ in range(2_000)]
        frequency = draws.count(0) / len(draws)
        assert 0.85 < frequency < 0.95
