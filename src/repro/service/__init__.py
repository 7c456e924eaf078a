"""repro.service — the long-running paging-controller front-end.

ROADMAP item 1: an operational layer over the solver registry that
answers many concurrent per-area call-setup plan requests.  See
``docs/service.md`` for the executable handbook and
:mod:`repro.service.controller` for the design narrative.
"""

from __future__ import annotations

from .cache import (
    CacheKey,
    PlanCache,
    plan_cache_key,
    quantization_bound,
    quantize_profile,
)
from .controller import (
    TICKET_STATES,
    CachedPlan,
    PagingController,
    PlanRequest,
    PlanTicket,
    ServiceConfig,
    request_instance,
)
from .sharding import ShardMap, shard_for_area
from .workload import WorkloadConfig, build_requests, run_closed_loop

__all__ = [
    "CacheKey",
    "CachedPlan",
    "PagingController",
    "PlanCache",
    "PlanRequest",
    "PlanTicket",
    "ServiceConfig",
    "ShardMap",
    "TICKET_STATES",
    "WorkloadConfig",
    "build_requests",
    "plan_cache_key",
    "quantization_bound",
    "quantize_profile",
    "request_instance",
    "run_closed_loop",
    "shard_for_area",
]
