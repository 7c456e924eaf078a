"""The paging controller: shard + cache + batch in front of the registry.

This is the operational layer ROADMAP item 1 asks for, and the one the
jointly-optimal paging/registration literature (Hajek-Mitzel-Yang,
PAPERS.md) presumes exists: a long-running front-end that answers many
concurrent per-area call-setup plan requests from conditional location
distributions.  One :class:`PagingController` owns

* a deterministic area -> shard map (:mod:`repro.service.sharding`) so a
  request's cache and queue are a pure function of its location area;
* a per-shard quantized LRU plan cache (:mod:`repro.service.cache`) —
  the hot path answers a recurring profile without touching a planner;
* per-shard batch queues that pack compatible cache misses (same
  ``(devices, cells)`` shape, delay budget ``d``, and per-round cap
  ``b``) into one ``run_batch`` call against the PR 7 kernels, flushed
  when the accumulation window fills or its timeout elapses;
* admission control — a bounded per-shard pending queue; requests beyond
  it are shed immediately with a reason rather than queued forever.

The controller is deliberately single-threaded and synchronous: one
``submit`` per request, explicit ``poll``/``flush`` for time-driven
behaviour (tests inject a fake clock), and throughput comes from the
cache and the batched kernels, not concurrency — ``repro serve-bench``
measures >=10k requests/sec on one core this way.  Scaling across cores
is by running one controller per process and routing areas by the same
shard map, which is why the map must be process-independent.

Observability (all under :mod:`repro.obs`, inert without a tracer):
``service.requests`` / ``service.cache_hit`` / ``service.shed``
counters, a ``service.batch_size`` histogram, and one
``service.batch_flush`` span per kernel call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.instance import Number, PagingInstance
from ..core.strategy import Strategy
from ..obs.instrument import count, observe, span
from ..solvers import get_solver
from .cache import CacheKey, PlanCache, plan_cache_key
from .sharding import ShardMap

#: Ticket states: answered from cache or a flush, queued, or refused.
TICKET_STATES: Tuple[str, ...] = ("ok", "pending", "shed", "failed")


@dataclass(frozen=True)
class ServiceConfig:
    """Static configuration of one :class:`PagingController`.

    ``quantization_step == 0`` (the default) caches only bit-identical
    profiles; a positive step trades bounded plan error (see
    :func:`repro.service.quantization_bound`) for a higher hit rate.
    """

    #: independent cache/queue partitions; areas map to them deterministically
    num_shards: int = 4
    #: LRU capacity per shard
    cache_size: int = 4096
    #: probability bucket width for cache keys (0 = exact float keys)
    quantization_step: float = 0.0
    #: registry name answering the requests (batch-capable names batch)
    solver: str = "heuristic"
    #: cache-miss accumulation window: flush a batch group at this size
    batch_window: int = 64
    #: ... or when its oldest member has waited this long (seconds)
    batch_timeout_s: float = 0.005
    #: bounded queue: pending tickets per shard before shedding
    max_pending: int = 1024

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ValueError(f"num_shards must be >= 1, got {self.num_shards}")
        if self.cache_size < 1:
            raise ValueError(f"cache_size must be >= 1, got {self.cache_size}")
        if self.quantization_step < 0.0:
            raise ValueError(
                f"quantization_step must be >= 0, got {self.quantization_step}"
            )
        if self.batch_window < 1:
            raise ValueError(f"batch_window must be >= 1, got {self.batch_window}")
        if self.batch_timeout_s < 0.0:
            raise ValueError(
                f"batch_timeout_s must be >= 0, got {self.batch_timeout_s}"
            )
        if self.max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {self.max_pending}")


@dataclass(frozen=True, eq=False)
class PlanRequest:
    """One call-setup plan request for a location area.

    ``matrix`` is the ``(devices, cells)`` float64 conditional location
    profile; rows must already be probability distributions — the
    controller does *not* renormalize (that would silently change the
    floats behind the bit-identity guarantee); a row with a negative or
    non-finite entry gets a ``"failed"`` ticket.  ``area`` is any hashable
    id; it selects the shard, nothing else.
    """

    area: object
    matrix: np.ndarray
    rounds: int
    max_group_size: Optional[int] = None


class CachedPlan:
    """The immutable payload a cache entry stores and tickets reference."""

    __slots__ = ("order", "group_sizes", "expected_paging", "backend", "_strategy")

    def __init__(
        self,
        order: Optional[Tuple[int, ...]],
        group_sizes: Optional[Tuple[int, ...]],
        expected_paging: Number,
        backend: Optional[str],
        strategy: Optional[Strategy] = None,
    ) -> None:
        self.order = order
        self.group_sizes = group_sizes
        self.expected_paging = expected_paging
        self.backend = backend
        self._strategy = strategy

    def strategy(self) -> Optional[Strategy]:
        """The plan as a :class:`~repro.core.strategy.Strategy` (lazy)."""
        if self._strategy is None and self.order is not None:
            self._strategy = Strategy.from_order_and_sizes(
                self.order, self.group_sizes or ()
            )
        return self._strategy


class PlanTicket:
    """What ``submit`` returns: done immediately on a hit or shed, filled
    in by the batch flush otherwise."""

    __slots__ = ("request", "shard", "status", "plan", "cache_hit", "reason")

    def __init__(
        self,
        request: PlanRequest,
        shard: int,
        status: str,
        plan: Optional[CachedPlan] = None,
        cache_hit: bool = False,
        reason: Optional[str] = None,
    ) -> None:
        self.request = request
        self.shard = shard
        self.status = status
        self.plan = plan
        self.cache_hit = cache_hit
        self.reason = reason

    @property
    def done(self) -> bool:
        return self.status != "pending"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"PlanTicket(area={self.request.area!r}, shard={self.shard}, "
            f"status={self.status!r}, cache_hit={self.cache_hit})"
        )


class _QueueEntry:
    """One distinct pending cache key and every ticket waiting on it."""

    __slots__ = ("key", "matrix", "tickets")

    def __init__(self, key: CacheKey, matrix: np.ndarray, ticket: PlanTicket) -> None:
        self.key = key
        self.matrix = matrix
        self.tickets = [ticket]


class _BatchGroup:
    """Pending entries sharing one ``(shape, rounds, cap)`` compatibility
    key — exactly what one ``run_batch`` call can serve."""

    __slots__ = ("entries", "by_key", "created_s")

    def __init__(self, created_s: float) -> None:
        self.entries: List[_QueueEntry] = []
        self.by_key: Dict[CacheKey, _QueueEntry] = {}
        self.created_s = created_s


class _Shard:
    """One cache + queue partition; all state is owned by the controller
    thread."""

    __slots__ = ("index", "cache", "groups", "pending", "requests")

    def __init__(self, index: int, cache_size: int) -> None:
        self.index = index
        self.cache = PlanCache(cache_size)
        self.groups: Dict[Tuple[object, ...], _BatchGroup] = {}
        self.pending = 0
        self.requests = 0


def request_instance(request: PlanRequest) -> PagingInstance:
    """The canonical :class:`PagingInstance` the controller plans for.

    Built from the request's raw float rows without renormalization or
    re-validation, so a fresh ``solve_instance`` on it is bit-comparable
    to what the batched kernels computed from the same matrix.
    """
    rows = [tuple(float(p) for p in row) for row in np.asarray(request.matrix)]
    return PagingInstance(
        rows, request.rounds, allow_zero=True, validate=False
    )


class PagingController:
    """The long-running service front-end over the solver registry."""

    def __init__(
        self,
        config: Optional[ServiceConfig] = None,
        *,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.config = ServiceConfig() if config is None else config
        self._clock = time.monotonic if clock is None else clock
        self._solver = get_solver(self.config.solver)
        self._solver_name = self.config.solver
        self._step = self.config.quantization_step
        self._window = self.config.batch_window
        self._timeout = self.config.batch_timeout_s
        self._max_pending = self.config.max_pending
        self._shard_map = ShardMap(self.config.num_shards)
        self._shards = [
            _Shard(index, self.config.cache_size)
            for index in range(self.config.num_shards)
        ]
        self._requests_total = 0
        self._hits_total = 0
        self._sheds_total = 0
        self._batches_total = 0
        self._planned_total = 0

    # -- the hot path --------------------------------------------------
    def submit(self, request: PlanRequest) -> PlanTicket:
        """Admit one request: answer from cache, enqueue, or shed."""
        self._requests_total += 1
        count("service.requests")
        shard = self._shards[self._shard_map(request.area)]
        shard.requests += 1
        key = plan_cache_key(
            request.matrix,
            request.rounds,
            request.max_group_size,
            self._solver_name,
            self._step,
        )
        plan = shard.cache.get(key)
        if plan is not None:
            self._hits_total += 1
            count("service.cache_hit")
            return PlanTicket(request, shard.index, "ok", plan, cache_hit=True)
        if shard.pending >= self._max_pending:
            self._sheds_total += 1
            count("service.shed")
            return PlanTicket(
                request,
                shard.index,
                "shed",
                reason=f"backpressure: shard {shard.index} has "
                f"{shard.pending} pending requests (max_pending="
                f"{self._max_pending})",
            )
        ticket = PlanTicket(request, shard.index, "pending")
        group_key = (key[1], key[2], key[3])  # (shape, rounds, cap)
        now = self._clock()
        group = shard.groups.get(group_key)
        if group is None:
            group = _BatchGroup(now)
            shard.groups[group_key] = group
        entry = group.by_key.get(key)
        if entry is None:
            entry = _QueueEntry(key, request.matrix, ticket)
            group.by_key[key] = entry
            group.entries.append(entry)
        else:
            entry.tickets.append(ticket)  # dedupe: ride the in-flight solve
        shard.pending += 1
        if len(group.entries) >= self._window or now - group.created_s >= self._timeout:
            self._flush_group(shard, group_key, group)
        return ticket

    # -- flushing ------------------------------------------------------
    def poll(self, now: Optional[float] = None) -> int:
        """Flush every batch group whose timeout has elapsed; returns how
        many groups flushed.  Call this from the serving loop between
        request bursts so stragglers never wait past the window timeout."""
        tick = self._clock() if now is None else now
        flushed = 0
        for shard in self._shards:
            for group_key in list(shard.groups):
                group = shard.groups[group_key]
                if tick - group.created_s >= self._timeout:
                    self._flush_group(shard, group_key, group)
                    flushed += 1
        return flushed

    def flush(self) -> int:
        """Flush every pending batch group regardless of age/size."""
        flushed = 0
        for shard in self._shards:
            for group_key in list(shard.groups):
                self._flush_group(shard, group_key, shard.groups[group_key])
                flushed += 1
        return flushed

    def run(self, requests: Sequence[PlanRequest]) -> List[PlanTicket]:
        """Submit a whole stream, final-flush, and return every ticket in
        request order (none left pending)."""
        tickets = [self.submit(request) for request in requests]
        self.flush()
        return tickets

    def _flush_group(
        self, shard: _Shard, group_key: Tuple[object, ...], group: _BatchGroup
    ) -> None:
        del shard.groups[group_key]
        entries = group.entries
        size = len(entries)
        shard.pending -= sum(len(entry.tickets) for entry in entries)
        self._batches_total += 1
        self._planned_total += size
        observe("service.batch_size", size)
        (_shape, rounds, cap) = group_key
        stack = np.ascontiguousarray(
            np.stack([entry.matrix for entry in entries]), dtype=np.float64
        )
        # The kernels' numpy = compiled contract covers finite, non-negative
        # rows only; anything else fails here, on every backend alike.
        valid = (stack >= 0.0) & (stack < np.inf)
        if not valid.all():
            keep = valid.reshape(size, -1).all(axis=1)
            for index in np.flatnonzero(~keep):
                (row, cell) = np.argwhere(~valid[index])[0]
                self._fail_entry(
                    entries[index],
                    f"profile entry [{row}, {cell}] = "
                    f"{float(stack[index, row, cell])!r} is not a finite "
                    "non-negative probability",
                )
            entries = [entry for entry, ok in zip(entries, keep) if ok]
            stack = stack[keep]
            if not entries:
                return
        with span(
            "service.batch_flush",
            shard=shard.index,
            size=size,
            rounds=rounds,
        ):
            try:
                if self._solver.supports_batch:
                    self._flush_batched(shard, entries, stack, int(rounds), cap)
                else:
                    self._flush_scalar(shard, entries, cap)
            except Exception as error:  # a ticket must never be left pending
                reason = f"{type(error).__name__}: {error}"
                for entry in entries:
                    if not entry.tickets[0].done:
                        self._fail_entry(entry, reason)

    def _flush_batched(
        self,
        shard: _Shard,
        entries: List[_QueueEntry],
        stack: np.ndarray,
        rounds: int,
        cap: Optional[int],
    ) -> None:
        options: Dict[str, object] = {"max_rounds": rounds}
        if cap is not None:
            options["max_group_size"] = cap
        result = self._solver.run_batch(stack, **options)
        orders = result.orders
        sizes = result.group_sizes
        values = result.values
        feasible = result.feasible
        for index, entry in enumerate(entries):
            if not feasible[index]:
                self._fail_entry(entry, "no feasible cut sequence for this row")
                continue
            plan = CachedPlan(
                tuple(int(j) for j in orders[index]),
                tuple(int(s) for s in sizes[index]),
                float(values[index]),
                result.backend,
            )
            self._complete_entry(shard, entry, plan)

    def _flush_scalar(
        self, shard: _Shard, entries: List[_QueueEntry], cap: Optional[int]
    ) -> None:
        options: Dict[str, object] = {}
        if cap is not None and "max_group_size" in self._solver.spec.options:
            options["max_group_size"] = cap
        for entry in entries:
            instance = request_instance(entry.tickets[0].request)
            result = self._solver(instance, **options)
            extras = result.extras
            order = extras.get("order")
            group_sizes = extras.get("group_sizes")
            if group_sizes is None and result.strategy is not None:
                group_sizes = result.strategy.group_sizes()
            plan = CachedPlan(
                None if order is None else tuple(int(j) for j in order),
                None if group_sizes is None else tuple(int(s) for s in group_sizes),
                result.expected_paging,
                None,
                strategy=result.strategy,
            )
            self._complete_entry(shard, entry, plan)

    def _complete_entry(
        self, shard: _Shard, entry: _QueueEntry, plan: CachedPlan
    ) -> None:
        shard.cache.put(entry.key, plan)
        for ticket in entry.tickets:
            ticket.plan = plan
            ticket.status = "ok"

    def _fail_entry(self, entry: _QueueEntry, reason: str) -> None:
        for ticket in entry.tickets:
            ticket.status = "failed"
            ticket.reason = reason

    # -- introspection -------------------------------------------------
    @property
    def pending(self) -> int:
        """Tickets admitted but not yet answered (summed over shards)."""
        return sum(shard.pending for shard in self._shards)

    def shard_of(self, area: object) -> int:
        """Which shard serves ``area`` (same map as ``submit``)."""
        return self._shard_map(area)

    def invalidate(self) -> None:
        """Drop every cached plan (e.g. after a solver/config change
        upstream); pending queues are untouched."""
        for shard in self._shards:
            shard.cache.clear()

    def stats(self) -> Dict[str, object]:
        """A point-in-time counter snapshot (schema ``repro-service/1``)."""
        cache_totals = {"size": 0, "hits": 0, "misses": 0, "evictions": 0}
        for shard in self._shards:
            for name, value in shard.cache.counters().items():
                cache_totals[name] += value
        requests = self._requests_total
        hit_rate = self._hits_total / requests if requests else 0.0
        batches = self._batches_total
        mean_batch = self._planned_total / batches if batches else 0.0
        return {
            "schema": "repro-service/1",
            "solver": self._solver_name,
            "num_shards": self.config.num_shards,
            "quantization_step": self._step,
            "requests": requests,
            "cache_hits": self._hits_total,
            "hit_rate": hit_rate,
            "sheds": self._sheds_total,
            "batches": batches,
            "planned": self._planned_total,
            "mean_batch_size": mean_batch,
            "pending": self.pending,
            "cache": cache_totals,
            "shard_requests": [shard.requests for shard in self._shards],
        }
