"""Problem instances for the Conference Call paging problem.

A :class:`PagingInstance` bundles the data of the optimization problem from
Section 1.2 of the paper: ``c`` cells, ``m`` mobile devices, an ``m x c``
matrix of location probabilities (each row a distribution over cells), and the
delay constraint ``d`` (maximum number of paging rounds).

Entries may be floats (fast paths) or :class:`fractions.Fraction` values
(exact paths).  The paper assumes strictly positive probabilities; zeros are
permitted with ``allow_zero=True`` because the Section 4.3 lower-bound
instance uses them and every algorithm in this library remains correct when
some entries vanish.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InvalidInstanceError

Number = Union[int, float, Fraction]

#: Tolerance used when validating float probability rows.
FLOAT_ROW_TOLERANCE = 1e-9


def _is_exact(value: Number) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def _reject_entry(i: int, j: int, p: object, allow_zero: bool) -> None:
    """Raise for an entry that is not a valid probability."""
    if not math.isfinite(float(p)):  # type: ignore[arg-type]
        raise InvalidInstanceError(f"probability p[{i}][{j}]={p!r} must be finite")
    raise InvalidInstanceError(
        f"probability p[{i}][{j}]={p!r} must be "
        + ("non-negative" if allow_zero else "strictly positive")
    )


class PagingInstance:
    """An instance of the Conference Call problem.

    Parameters
    ----------
    probabilities:
        ``m`` rows of length ``c``; row ``i`` is the distribution of device
        ``i`` over cells.  Rows must sum to 1 (exactly for Fraction rows,
        within :data:`FLOAT_ROW_TOLERANCE` for float rows), and every entry
        must be finite.  A 2-D ``float64`` array is kept as the instance's
        :meth:`float_rows` (the row tuples are built only when read).
    max_rounds:
        The delay constraint ``d`` with ``1 <= d <= c``.
    allow_zero:
        Permit zero entries (the paper's model requires positive entries, but
        zeros arise in its own Section 4.3 example and are harmless).
    """

    __slots__ = (
        "_rows",
        "_num_cells",
        "_num_devices",
        "_max_rounds",
        "_exact",
        "_float_rows",
        "_cumulative_rows",
    )

    def __init__(
        self,
        probabilities: Union[Sequence[Sequence[Number]], np.ndarray],
        max_rounds: int,
        *,
        allow_zero: bool = False,
        validate: bool = True,
    ) -> None:
        self._max_rounds = int(max_rounds)
        self._cumulative_rows: Optional[np.ndarray] = None
        if (
            isinstance(probabilities, np.ndarray)
            and probabilities.ndim == 2
            and probabilities.dtype == np.float64
        ):
            self._init_array(probabilities, allow_zero, validate)
            return
        rows = tuple(tuple(row) for row in probabilities)
        if not rows or not rows[0]:
            raise InvalidInstanceError("instance needs at least one device and one cell")
        self._rows: Optional[Tuple[Tuple[Number, ...], ...]] = rows
        self._num_devices = len(rows)
        self._num_cells = len(rows[0])
        self._exact = all(_is_exact(p) for row in rows for p in row)
        self._float_rows: Optional[np.ndarray] = None
        if validate:
            self._validate(allow_zero)

    def _init_array(self, matrix: np.ndarray, allow_zero: bool, validate: bool) -> None:
        """The float fast path: keep the matrix, build row tuples on demand.

        A read-only C-contiguous matrix is shared as is; any other one is
        copied, so the instance's :meth:`float_rows` can never change under
        it.  Validation checks the same conditions as the tuple path,
        vectorised, and reports the first offending row the same way.
        """
        num_devices, num_cells = matrix.shape
        if not num_devices or not num_cells:
            raise InvalidInstanceError("instance needs at least one device and one cell")
        flags = matrix.flags
        if flags.writeable or not flags.c_contiguous:
            matrix = matrix.copy()
            matrix.setflags(write=False)
        self._rows = None
        self._num_devices = num_devices
        self._num_cells = num_cells
        self._exact = False
        self._float_rows = matrix
        if not validate:
            return
        self._validate_rounds()
        sums = matrix.sum(axis=1)
        # Accept a valid matrix in two reductions: a NaN fails both tests
        # and an infinite entry misses its row sum.  Anything else takes the
        # full check below, which finds and reports the first bad row.
        lowest = matrix.min()
        if (lowest > 0 or (allow_zero and lowest == 0)) and all(
            abs(total - 1.0) <= FLOAT_ROW_TOLERANCE for total in sums.tolist()
        ):
            return
        bad_sum = np.abs(sums - 1.0) > FLOAT_ROW_TOLERANCE
        bad_entry = ~np.isfinite(matrix) | (matrix < 0)
        if not allow_zero:
            bad_entry |= matrix == 0
        bad_row = bad_sum | bad_entry.any(axis=1)
        if bad_row.any():
            i = int(np.argmax(bad_row))
            if bad_sum[i]:
                raise InvalidInstanceError(
                    f"row {i} sums to {float(sums[i])!r}, expected 1 within tolerance"
                )
            j = int(np.argmax(bad_entry[i]))
            _reject_entry(i, j, float(matrix[i, j]), allow_zero)

    def _validate_rounds(self) -> None:
        c = self._num_cells
        if not 1 <= self._max_rounds <= c:
            raise InvalidInstanceError(
                f"max_rounds must satisfy 1 <= d <= c={c}, got {self._max_rounds}"
            )

    def _validate(self, allow_zero: bool) -> None:
        self._validate_rounds()
        c = self._num_cells
        for i, row in enumerate(self.rows):
            if len(row) != c:
                raise InvalidInstanceError(
                    f"row {i} has length {len(row)}, expected {c}"
                )
            total = sum(row)
            if self._exact:
                if total != 1:
                    raise InvalidInstanceError(f"row {i} sums to {total}, expected 1")
            elif abs(float(total) - 1.0) > FLOAT_ROW_TOLERANCE:
                raise InvalidInstanceError(
                    f"row {i} sums to {float(total)!r}, expected 1 within tolerance"
                )
            for j, p in enumerate(row):
                value = float(p)
                if (
                    not math.isfinite(value)
                    or value < 0
                    or (value == 0 and not allow_zero)
                ):
                    _reject_entry(i, j, p, allow_zero)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_cells(self) -> int:
        """The number of cells ``c``."""
        return self._num_cells

    @property
    def num_devices(self) -> int:
        """The number of mobile devices ``m``."""
        return self._num_devices

    @property
    def max_rounds(self) -> int:
        """The delay constraint ``d``."""
        return self._max_rounds

    @property
    def is_exact(self) -> bool:
        """True when every probability is an ``int`` or ``Fraction``."""
        return self._exact

    @property
    def rows(self) -> Tuple[Tuple[Number, ...], ...]:
        """The probability matrix as a tuple of row tuples.

        An instance built from a float array builds its tuples on first
        read, holding the array's ``float64`` scalars.
        """
        if self._rows is None:
            assert self._float_rows is not None
            self._rows = tuple(tuple(row) for row in self._float_rows)
        return self._rows

    def row(self, device: int) -> Tuple[Number, ...]:
        """The distribution of one device across cells."""
        return self.rows[device]

    def probability(self, device: int, cell: int) -> Number:
        """The probability that ``device`` is located in ``cell``."""
        return self.rows[device][cell]

    def float_rows(self) -> np.ndarray:
        """The probability matrix as a cached, read-only ``float64`` array.

        Built once per instance and shared by every float-arithmetic hot path
        (:func:`repro.core.expected_paging.all_found_probability`, the batch
        kernels in :mod:`repro.core.batch`, and location sampling), so
        repeated evaluations never re-convert the row tuples.  The array is
        marked read-only; use :meth:`as_array` for a private mutable copy.
        """
        if self._float_rows is None:
            rows = np.array(
                [[float(p) for p in row] for row in self.rows], dtype=np.float64
            )
            rows.setflags(write=False)
            self._float_rows = rows
        return self._float_rows

    def _cumulative_float_rows(self) -> np.ndarray:
        """Cached per-device cumulative distributions (rows normalized to 1)."""
        if self._cumulative_rows is None:
            cumulative = np.cumsum(self.float_rows(), axis=1)
            cumulative /= cumulative[:, -1:]
            cumulative.setflags(write=False)
            self._cumulative_rows = cumulative
        return self._cumulative_rows

    def as_array(self) -> np.ndarray:
        """The probability matrix as a fresh mutable ``float64`` numpy array."""
        return np.array(self.float_rows())

    # ------------------------------------------------------------------
    # Derived quantities
    # ------------------------------------------------------------------
    def cell_weight(self, cell: int) -> Number:
        """Expected number of devices located in ``cell``: ``sum_i p[i][cell]``.

        This is the key used by the paper's heuristic ordering (Section 4).
        """
        return sum(row[cell] for row in self.rows)

    def cell_weights(self) -> Tuple[Number, ...]:
        """Expected device counts for every cell."""
        return tuple(self.cell_weight(j) for j in range(self._num_cells))

    def prefix_find_probabilities(self, order: Sequence[int]) -> Tuple[Number, ...]:
        """``F[k] = prod_i P_i(first k cells of order)`` for ``k = 0..c``.

        ``F[k]`` is the probability that *all* devices lie within the first
        ``k`` cells of ``order`` — the quantity driving the Lemma 4.7 dynamic
        program.  ``F[0] = 0`` for ``m >= 1`` (an empty prefix holds nobody)
        except in the degenerate sense; we return the true product, which is
        0 for ``k = 0``.
        """
        zero: Number = Fraction(0) if self._exact else 0.0
        one: Number = Fraction(1) if self._exact else 1.0
        sums = [zero] * self._num_devices
        out = []
        product = one if self._num_devices == 0 else zero
        out.append(zero if self._num_devices else one)
        for cell in order:
            product = one
            for i, row in enumerate(self.rows):
                sums[i] = sums[i] + row[cell]
                product = product * sums[i]
            out.append(product)
        return tuple(out)

    # ------------------------------------------------------------------
    # Transformations
    # ------------------------------------------------------------------
    def with_max_rounds(self, max_rounds: int) -> "PagingInstance":
        """A copy of this instance with a different delay constraint."""
        return PagingInstance(
            self.rows, max_rounds, allow_zero=True, validate=True
        )

    def restrict(
        self,
        devices: Iterable[int],
        cells: Sequence[int],
        max_rounds: int,
    ) -> Tuple["PagingInstance", Tuple[int, ...]]:
        """Condition on the given devices lying within ``cells``.

        Used by the adaptive planner of Section 5: after a round, the devices
        not yet found are known to reside in the unpaged cells, and their
        distributions renormalize over those cells.  Returns the conditioned
        sub-instance together with the tuple mapping new cell indices back to
        the original ones.

        Raises :class:`InvalidInstanceError` when some device has zero mass on
        ``cells`` (conditioning on a null event).
        """
        cells = tuple(cells)
        device_list = tuple(devices)
        if not device_list or not cells:
            raise InvalidInstanceError("restriction needs at least one device and cell")
        new_rows = []
        for i in device_list:
            row = self.rows[i]
            mass = sum(row[j] for j in cells)
            if float(mass) <= 0.0:
                raise InvalidInstanceError(
                    f"device {i} has zero probability of being in the remaining cells"
                )
            new_rows.append(tuple(row[j] / mass for j in cells))
        sub = PagingInstance(new_rows, max_rounds, allow_zero=True)
        return sub, cells

    def to_float(self) -> "PagingInstance":
        """A float-valued copy (useful to exit exact arithmetic fast paths)."""
        rows = [[float(p) for p in row] for row in self.rows]
        return PagingInstance(rows, self._max_rounds, allow_zero=True)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_locations(self, rng: np.random.Generator) -> Tuple[int, ...]:
        """Draw one joint location outcome: a cell index per device.

        Deliberately kept as the transparent per-device reference sampler
        (it preserves the historical random stream for a given seed); bulk
        draws should use :func:`repro.core.batch.sample_locations_batch`,
        which draws the same distribution vectorized over trials.
        """
        cells = np.arange(self._num_cells)
        out = []
        for row in self.rows:
            weights = np.array([float(p) for p in row])
            weights = weights / weights.sum()
            out.append(int(rng.choice(cells, p=weights)))
        return tuple(out)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def uniform(
        cls, num_devices: int, num_cells: int, max_rounds: int, *, exact: bool = False
    ) -> "PagingInstance":
        """Every device uniformly distributed over every cell."""
        if num_cells < 1:
            raise InvalidInstanceError("need at least one cell")
        p: Number = Fraction(1, num_cells) if exact else 1.0 / num_cells
        rows = [[p] * num_cells for _ in range(num_devices)]
        return cls(rows, max_rounds)

    @classmethod
    def single_device(
        cls, probabilities: Sequence[Number], max_rounds: int, *, allow_zero: bool = False
    ) -> "PagingInstance":
        """The classical one-device paging problem (``m = 1``)."""
        return cls([tuple(probabilities)], max_rounds, allow_zero=allow_zero)

    @classmethod
    def from_array(
        cls, matrix: np.ndarray, max_rounds: int, *, allow_zero: bool = False
    ) -> "PagingInstance":
        """Build from a numpy ``m x c`` matrix, renormalizing rows exactly."""
        arr = np.asarray(matrix, dtype=float)
        if arr.ndim != 2:
            raise InvalidInstanceError("matrix must be two-dimensional")
        rows = []
        for row in arr:
            total = float(row.sum())
            if total <= 0:
                raise InvalidInstanceError("each row must have positive total mass")
            rows.append([float(p) / total for p in row])
        return cls(rows, max_rounds, allow_zero=allow_zero)

    # ------------------------------------------------------------------
    # Dunder methods
    # ------------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PagingInstance(m={self._num_devices}, c={self._num_cells}, "
            f"d={self._max_rounds}, exact={self._exact})"
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PagingInstance):
            return NotImplemented
        return (
            self.rows == other.rows and self._max_rounds == other._max_rounds
        )

    def __hash__(self) -> int:
        return hash((self.rows, self._max_rounds))
