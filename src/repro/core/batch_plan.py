"""Batched Fig. 1 planning: the one float planner, from 1 to thousands of rows.

Every float plan of the Fig. 1 heuristic runs through :func:`plan_batch`.
A single instance is a batch of one (the ``heuristic`` registry entry does
exactly that); the workloads the related literature actually runs —
Hajek-style joint paging/registration iterations and residence-time
sweeps — re-plan *families* of same-shape conditional distributions and
pass them as one stack.  The whole pipeline (weight ordering, prefix stop
probabilities, Lemma 4.7 cut DP, backtrack) works over a batch axis:

* :func:`plan_batch` — ``(batch, devices, cells)`` probability stack in,
  per-instance orders, group sizes, and expected-paging values out;
* :func:`prefix_stop_probabilities_batch` / :func:`optimize_cuts_batch` —
  the two pipeline stages, batched, for callers that bring their own
  orders or find probabilities;
* :class:`BatchPlanResult` — the result container, with a lazy
  :meth:`~BatchPlanResult.result` view that reconstructs the scalar
  :class:`~repro.core.dp.OrderedDPResult` for any row.

Two interchangeable backends execute the cut DP (see
:mod:`repro.core.backends`): the pure-numpy ``(batch, prev, j)`` broadcast
recurrence, which is the bit-exact reference, and an optional C kernel
compiled on demand that runs the same IEEE operations in the same order.
The machine picks one per call (the kernel when it loads, else numpy); no
caller chooses.
Exact (``Fraction``) arithmetic stays with the reference planner
:func:`repro.core.heuristic.conference_call_heuristic`; how the float plans
relate to it (same order, value to round-off, group sizes up to ties)
is stated under "Bit-identity scope" in docs/performance.md and pinned
by ``tests/core/test_batch_plan.py``.

All instances in a batch share one shape ``(devices, cells)`` and one
``(num_rounds, max_group_size)`` budget; feasibility is therefore a
property of the shape (``d * b >= c``), and :func:`plan_batch` raises
:class:`~repro.errors.InfeasibleError` exactly when the reference planner
would.
"""

from __future__ import annotations

import ctypes
from dataclasses import dataclass
from functools import lru_cache
from typing import Any, Optional, Sequence, Tuple, Union

import numpy as np

from ..errors import InfeasibleError
from ..obs.instrument import observe, span
from .backends import auto_kernel
from .dp import OrderedDPResult
from .instance import PagingInstance
from .strategy import Strategy

#: Target size of the numpy DP's transient ``(chunk, c+1, c+1)`` candidate
#: tensor.  The broadcast recurrence is memory-bound, so the sweet spot is
#: a tensor that stays cache-resident: measured on the bench machine, a
#: fixed chunk of 64 is ~3x slower than this bound at c = 250 and the
#: bound is within noise of the best fixed chunk at c = 40 and c = 120.
_CHUNK_TARGET_BYTES = 3 << 19  # 1.5 MB

#: Bytes per ``intp`` slot of the compiled kernel's outputs.
_INTP_SIZE = np.dtype(np.intp).itemsize

#: Chunk ceiling; beyond this the per-chunk numpy call overhead is already
#: negligible and bigger tensors only evict cache.
MAX_CHUNK = 256


def _auto_chunk(c: int) -> int:
    rows = _CHUNK_TARGET_BYTES // (8 * (c + 1) * (c + 1))
    return int(min(MAX_CHUNK, max(1, rows)))


@lru_cache(maxsize=64)
def _gap_tables(c: int, b: int) -> Tuple[np.ndarray, np.ndarray]:
    """``(gap_matrix, valid)`` for the cut DP, cached per shape ``(c, b)``.

    ``gap_matrix[prev, j] = j - prev``; ``valid`` masks the band
    ``1 <= j - prev <= b``.  Both are O(c²) and depend only on the shape,
    so repeated same-shape plans (the paging-controller pattern: thousands
    of instances over one location area) reuse one read-only pair instead
    of reallocating per call.
    """
    positions = np.arange(c + 1)
    gap_matrix = positions[None, :] - positions[:, None]
    valid = (gap_matrix >= 1) & (gap_matrix <= b)
    gap_matrix.setflags(write=False)
    valid.setflags(write=False)
    return gap_matrix, valid


@dataclass(frozen=True)
class BatchPlanResult:
    """Per-instance plans from one :func:`plan_batch` call.

    Row ``i`` of every array describes instance ``i`` of the input stack.
    ``feasible`` is all-True whenever the call returned (shape-infeasible
    batches raise instead); it is part of the schema so kernel-level
    callers can keep per-row flags.
    """

    #: ``(batch, cells)`` — each row a permutation (the weight ordering)
    orders: np.ndarray
    #: ``(batch, rounds)`` — group sizes along the order, zero-padded never
    group_sizes: np.ndarray
    #: ``(batch,)`` — expected cells paged (NaN on an infeasible row)
    values: np.ndarray
    #: ``(batch,)`` bool — False marks rows without a feasible cut sequence
    feasible: np.ndarray
    #: the backend that actually ran ("numpy" or "compiled")
    backend: str

    def __len__(self) -> int:
        return int(self.values.shape[0])

    def strategy(self, index: int) -> Strategy:
        """The row's plan as a :class:`~repro.core.strategy.Strategy`."""
        if not self.feasible[index]:
            raise InfeasibleError(f"batch row {index} has no feasible plan")
        order = tuple(int(j) for j in self.orders[index])
        sizes = tuple(int(size) for size in self.group_sizes[index])
        return Strategy.from_order_and_sizes(order, sizes)

    def result(self, index: int) -> OrderedDPResult:
        """Row ``index`` repackaged as the scalar planner's result type."""
        strategy = self.strategy(index)
        return OrderedDPResult(
            strategy=strategy,
            expected_paging=float(self.values[index]),
            order=tuple(int(j) for j in self.orders[index]),
            group_sizes=tuple(int(size) for size in self.group_sizes[index]),
        )


def stack_instances(
    instances: Sequence[PagingInstance],
) -> np.ndarray:
    """Stack same-shape instances into one ``(batch, devices, cells)`` array."""
    if len(instances) == 0:
        raise ValueError("cannot stack an empty instance sequence")
    arrays = [instance.as_array() for instance in instances]
    shape = arrays[0].shape
    for index, array in enumerate(arrays):
        if array.shape != shape:
            raise ValueError(
                f"instance {index} has shape {array.shape}, expected {shape}; "
                "batched planning requires one shared (devices, cells) shape"
            )
    return np.ascontiguousarray(np.stack(arrays), dtype=np.float64)


def prefix_stop_probabilities_batch(
    matrices: np.ndarray, orders: np.ndarray
) -> np.ndarray:
    """Prefix stop probabilities for a whole stack of instances.

    ``matrices`` is ``(batch, devices, cells)``, ``orders`` ``(batch,
    cells)``; returns the ``(batch, cells + 1)`` find-probability table
    ``F[i, k] = prod_dev P_dev(first k cells of orders[i])``: one
    ``cumsum`` over the ordered cells and one ``prod`` over devices.
    """
    stacked = np.asarray(matrices, dtype=np.float64)
    ordered = np.take_along_axis(stacked, np.asarray(orders)[:, None, :], axis=2)
    prefix_sums = np.concatenate(
        [np.zeros(ordered.shape[:2] + (1,)), np.cumsum(ordered, axis=2)], axis=2
    )
    return np.prod(prefix_sums, axis=1)


def _validate_budget(c: int, d: int, b: Optional[int]) -> int:
    """Shared shape-level feasibility checks, mirroring the reference planner."""
    if not 1 <= d <= c:
        raise InfeasibleError(f"number of rounds must satisfy 1 <= d <= {c}, got {d}")
    cap = c if b is None else int(b)
    if cap < 1 or d * cap < c:
        raise InfeasibleError(
            f"cannot page {c} cells within {d} rounds of at most {cap} cells each"
        )
    # A group can never exceed c cells, so any cap above c plans identically
    # to cap == c (the DP's gap band enforces this implicitly).
    # Clamping here keeps the compiled kernel's gap loop inside its padded
    # scratch rows and canonicalizes the _gap_tables cache key.
    return min(cap, c)


def _cut_dp_numpy(
    finds: np.ndarray, c: int, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """The ``(batch, prev, j)`` broadcast of the Lemma 4.7 recurrence.

    Level by level, ``candidate[prev, j] = best[prev] + (j - prev) F[prev]``
    inside the band, ``-inf`` outside; the first-occurrence ``argmax`` over
    ``prev`` is the parent pointer the backtrack follows.  This is the
    bit-exact reference the compiled kernel reproduces.
    """
    batch = finds.shape[0]
    positions = np.arange(c + 1)
    gap_matrix, valid = _gap_tables(c, b)
    neg_inf = -np.inf

    best = np.broadcast_to(
        np.where((positions >= 1) & (positions <= b), 0.0, neg_inf), (batch, c + 1)
    ).copy()
    parents = []
    for _level in range(2, d + 1):
        candidate = best[:, :, None] + gap_matrix[None, :, :] * finds[:, :, None]
        candidate = np.where(
            valid[None, :, :] & np.isfinite(best)[:, :, None], candidate, neg_inf
        )
        parent = np.argmax(candidate, axis=1)
        best = np.take_along_axis(candidate, parent[:, None, :], axis=1)[:, 0, :]
        parents.append(parent)

    values = c - best[:, c]
    feasible = np.isfinite(best[:, c])
    rows = np.arange(batch)
    cuts = np.empty((batch, d + 1), dtype=np.intp)
    cuts[:, d] = c
    cuts[:, 0] = 0
    cursor = np.full(batch, c, dtype=np.intp)
    for level in range(d - 1, 0, -1):
        cursor = parents[level - 1][rows, cursor]
        cuts[:, level] = cursor
    sizes = np.diff(cuts, axis=1)
    sizes[~feasible] = 0
    values = np.where(feasible, values, np.nan)
    return sizes, values, feasible


def _output_buffer(
    batch: int, widths: Tuple[int, ...]
) -> "tuple[list[int], list[np.ndarray]]":
    """One kernel output buffer, carved into the arrays the kernel fills.

    Returns the kernel's output addresses and arrays, in its argument
    order: a C-contiguous ``(batch, width)`` ``intp`` block per entry of
    ``widths``, the ``(batch,)`` float64 values and the ``(batch,)``
    feasible flags.  The kernel writes each flag as a 0/1 byte, which
    reads as numpy ``bool`` without a copy.  The addresses are offsets
    from one lookup, read through ctypes' buffer interface: an array's
    ``.ctypes.data`` builds a helper object and costs a few times more.
    """
    # The intp blocks fill whole 8-byte words, so the values stay aligned.
    words = -(-batch * sum(widths) * _INTP_SIZE // 8)
    out = np.empty(max(1, words + batch + -(-batch // 8)), dtype=np.float64)
    base = ctypes.addressof(ctypes.c_char.from_buffer(out))
    addresses = []
    arrays = []
    offset = 0
    for width in widths:
        addresses.append(base + offset)
        arrays.append(np.ndarray((batch, width), np.intp, out, offset))
        offset += batch * width * _INTP_SIZE
    offset = 8 * words
    addresses += [base + offset, base + offset + 8 * batch]
    arrays += [
        np.ndarray((batch,), np.float64, out, offset),
        np.ndarray((batch,), np.bool_, out, offset + 8 * batch),
    ]
    return addresses, arrays


def _cut_dp_compiled(
    lib: Any, finds: np.ndarray, c: int, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """Dispatch the cut DP to the C kernel (``repro_optimize_cuts_batch``)."""
    addresses, (sizes, values, feasible) = _output_buffer(finds.shape[0], (d,))
    status = lib.repro_optimize_cuts_batch(
        finds.ctypes.data, finds.shape[0], c, d, b, *addresses
    )
    if status != 0:
        raise MemoryError("planner kernel could not allocate scratch space")
    return sizes, values, feasible


def _cut_dp_chunked(
    finds: np.ndarray, c: int, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
    """:func:`_cut_dp_numpy` over row chunks of :func:`_auto_chunk` rows.

    Rows are independent, so chunking bounds the transient candidate
    tensor without changing a bit of the result.  An empty batch returns
    empty arrays, as the compiled kernel does.
    """
    if finds.shape[0] == 0:
        return (
            np.empty((0, d), dtype=np.intp),
            np.empty(0, dtype=np.float64),
            np.empty(0, dtype=bool),
        )
    step = _auto_chunk(c)
    parts = [
        _cut_dp_numpy(finds[start : start + step], c, d, b)
        for start in range(0, finds.shape[0], step)
    ]
    sizes, values, feasible = (np.concatenate(column) for column in zip(*parts))
    return sizes, values, feasible


def optimize_cuts_batch(
    prefix_stops: np.ndarray,
    num_rounds: int,
    *,
    max_group_size: Optional[int] = None,
) -> "tuple[np.ndarray, np.ndarray]":
    """Batched Lemma 4.7 cut DP (:func:`repro.core.dp.optimize_cuts`).

    ``prefix_stops`` is ``(batch, cells + 1)``; returns ``(group_sizes,
    values)`` with shapes ``(batch, num_rounds)`` and ``(batch,)``,
    maximizing the telescoped bonus ``sum_r (j_{r+1} - j_r) F[j_r]`` per
    row.  Raises :class:`~repro.errors.InfeasibleError` for budgets the
    reference rejects (shape-level: every row shares ``(c, d, b)``).
    """
    finds = np.ascontiguousarray(prefix_stops, dtype=np.float64)
    if finds.ndim != 2:
        raise ValueError(f"expected a (batch, cells+1) array, got shape {finds.shape}")
    c = finds.shape[1] - 1
    d = int(num_rounds)
    b = _validate_budget(c, d, max_group_size)
    lib = auto_kernel()
    if lib is not None:
        sizes, values, _feasible = _cut_dp_compiled(lib, finds, c, d, b)
    else:
        sizes, values, _feasible = _cut_dp_chunked(finds, c, d, b)
    return sizes, values


def plan_batch(
    instances: Union[np.ndarray, Sequence[PagingInstance]],
    num_rounds: Optional[int] = None,
    *,
    max_group_size: Optional[int] = None,
) -> BatchPlanResult:
    """Run the Fig. 1 heuristic over a whole stack of instances at once.

    ``instances`` is either a ``(batch, devices, cells)`` float array or a
    sequence of same-shape :class:`~repro.core.instance.PagingInstance`
    objects (in which case ``num_rounds`` defaults to their shared
    ``max_rounds``).  Rows are independent: a row's plan does not depend
    on the rest of the batch, so a batch of one is the scalar planner.
    The result's ``backend`` names the implementation that ran (see
    :mod:`repro.core.backends` for how it is chosen).

    replint: solver
    """
    if isinstance(instances, np.ndarray):
        stacked = np.ascontiguousarray(instances, dtype=np.float64)
        if stacked.ndim != 3:
            raise ValueError(
                f"expected a (batch, devices, cells) array, got shape {stacked.shape}"
            )
        if num_rounds is None:
            raise ValueError("num_rounds is required when passing a raw array")
    else:
        stacked = stack_instances(instances)
        if num_rounds is None:
            rounds = {instance.max_rounds for instance in instances}
            if len(rounds) != 1:
                raise ValueError(
                    f"instances disagree on max_rounds ({sorted(rounds)}); "
                    "pass num_rounds explicitly"
                )
            num_rounds = rounds.pop()
    batch, m, c = stacked.shape
    d = int(num_rounds)
    b = _validate_budget(c, d, max_group_size)
    lib = auto_kernel()
    chosen = "numpy" if lib is None else "compiled"
    with span(
        "planner.batch", backend=chosen, batch=batch, cells=c, devices=m, rounds=d
    ):
        observe("planner.batch_size", batch)
        if lib is not None:
            orders, sizes, values, feasible = _plan_compiled(lib, stacked, d, b)
        else:
            orders, sizes, values, feasible = _plan_numpy(stacked, d, b)
    return BatchPlanResult(orders, sizes, values, feasible, chosen)


def _plan_numpy(
    stacked: np.ndarray, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Full pipeline on the numpy backend.

    A stable ascending argsort of ``-weights`` orders cells by descending
    weight with ties by original index, the reference's ordering rule.
    """
    weights = stacked.sum(axis=1)
    orders = np.argsort(-weights, axis=1, kind="stable").astype(np.intp)
    finds = prefix_stop_probabilities_batch(stacked, orders)
    sizes, values, feasible = _cut_dp_chunked(finds, stacked.shape[2], d, b)
    return orders, sizes, values, feasible


def _plan_compiled(
    lib: Any, stacked: np.ndarray, d: int, b: int
) -> "tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]":
    """Full pipeline on the C kernel (``repro_plan_batch``)."""
    batch, m, c = stacked.shape
    addresses, (orders, sizes, values, feasible) = _output_buffer(batch, (c, d))
    status = lib.repro_plan_batch(stacked.ctypes.data, batch, m, c, d, b, *addresses)
    if status != 0:
        raise MemoryError("planner kernel could not allocate scratch space")
    return orders, sizes, values, feasible
