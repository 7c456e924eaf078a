"""Synthetic closed-loop workloads for benchmarking the paging controller.

The workload models what makes the service layer worthwhile: per-area
conditional location profiles *recur* (residence-time structure,
Koukoutsidis et al. in PAPERS.md).  Each area owns a small pool of
distinct profiles; a request picks an area uniformly and, with
probability ``hot_fraction``, re-asks one of that area's pooled profiles
(a potential cache hit), otherwise a fresh never-seen profile (a forced
miss that exercises the batch path).  Everything is driven by one seeded
generator, so a workload is a pure function of its config — bench rows
and the property tests replay identical streams.

``run_closed_loop`` is the measurement harness: submit the stream
sequentially (closed loop — the next request is issued only after the
previous ``submit`` returned), ``poll`` periodically so timed-out batch
groups flush, and final-``flush`` before stopping the clock.  Metrics
are per-pass deltas of the controller's cumulative counters, so a warm
pass over an already-warmed controller reports its own hit rate, not a
mixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .controller import PagingController, PlanRequest


@dataclass(frozen=True)
class WorkloadConfig:
    """A reproducible synthetic request stream."""

    #: total requests in the stream
    requests: int = 20000
    #: distinct location areas (sharded deterministically)
    areas: int = 64
    #: devices per conference call (matrix rows)
    devices: int = 3
    #: cells per location area (matrix columns)
    cells: int = 40
    #: delay budget d (paging rounds)
    rounds: int = 3
    #: recurring profiles per area (the hot pool)
    profiles_per_area: int = 8
    #: probability a request re-asks a pooled profile
    hot_fraction: float = 0.97
    #: optional per-round bandwidth cap b
    max_group_size: Optional[int] = None
    #: seed for the stream (areas, pools, and choices)
    seed: int = 20060

    def __post_init__(self) -> None:
        if self.requests < 1:
            raise ValueError(f"requests must be >= 1, got {self.requests}")
        if self.areas < 1:
            raise ValueError(f"areas must be >= 1, got {self.areas}")
        if self.devices < 1 or self.cells < 1 or self.rounds < 1:
            raise ValueError("devices, cells, and rounds must all be >= 1")
        if self.profiles_per_area < 1:
            raise ValueError(
                f"profiles_per_area must be >= 1, got {self.profiles_per_area}"
            )
        if self.hot_fraction < 0.0 or self.hot_fraction > 1.0:
            raise ValueError(
                f"hot_fraction must be in [0, 1], got {self.hot_fraction}"
            )


def _random_profile(rng: np.random.Generator, devices: int, cells: int) -> np.ndarray:
    """One (devices, cells) matrix with probability-distribution rows."""
    matrix = rng.random((devices, cells))
    matrix /= matrix.sum(axis=1, keepdims=True)
    return np.ascontiguousarray(matrix)


def build_requests(config: WorkloadConfig) -> List[PlanRequest]:
    """Materialize the request stream for ``config`` (deterministic)."""
    rng = np.random.default_rng(config.seed)
    pools = [
        [
            _random_profile(rng, config.devices, config.cells)
            for _ in range(config.profiles_per_area)
        ]
        for _ in range(config.areas)
    ]
    requests: List[PlanRequest] = []
    for _ in range(config.requests):
        area = int(rng.integers(config.areas))
        if rng.random() < config.hot_fraction:
            matrix = pools[area][int(rng.integers(config.profiles_per_area))]
        else:
            matrix = _random_profile(rng, config.devices, config.cells)
        requests.append(
            PlanRequest(
                area=f"area-{area}",
                matrix=matrix,
                rounds=config.rounds,
                max_group_size=config.max_group_size,
            )
        )
    return requests


def run_closed_loop(
    controller: PagingController,
    requests: List[PlanRequest],
    *,
    poll_interval: int = 256,
) -> Dict[str, object]:
    """Drive one pass of ``requests`` through ``controller``, timed.

    Returns per-pass metrics (counter deltas, so repeated passes over one
    controller each report their own hit rate).
    """
    before = controller.stats()
    start = time.perf_counter()
    for index, request in enumerate(requests):
        controller.submit(request)
        if poll_interval and (index + 1) % poll_interval == 0:
            controller.poll()
    controller.flush()
    elapsed = time.perf_counter() - start
    after = controller.stats()
    served = int(after["requests"]) - int(before["requests"])
    hits = int(after["cache_hits"]) - int(before["cache_hits"])
    sheds = int(after["sheds"]) - int(before["sheds"])
    batches = int(after["batches"]) - int(before["batches"])
    planned = int(after["planned"]) - int(before["planned"])
    return {
        "requests": served,
        "elapsed_s": elapsed,
        "throughput_rps": served / elapsed if elapsed > 0 else 0.0,
        "cache_hits": hits,
        "hit_rate": hits / served if served else 0.0,
        "sheds": sheds,
        "batches": batches,
        "planned": planned,
        "mean_batch_size": planned / batches if batches else 0.0,
    }

