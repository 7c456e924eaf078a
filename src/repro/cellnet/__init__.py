"""A synthetic cellular network: the substrate the paper's optimizer serves.

Hexagonal cell geometry, mobility models, GSM-style location areas and
reporting policies, a location registry, and a time-stepped simulator whose
conference-call searches are driven by the paper's paging strategies.
"""

from __future__ import annotations

from .calls import ARRIVAL_MODES, ConferenceCallRequest, PoissonConferenceCalls
from .database import LocationRegistry, RegistryRecord
from .engine import (
    ChannelScheduler,
    EventEngine,
    PendingCall,
    plan_pending_call,
)
from .faults import (
    DEFAULT_RECOVERY,
    CellOutage,
    FaultInjector,
    FaultModel,
    RecoveryPolicy,
    ResilientPager,
)
from .geometry import HEX_DIRECTIONS, Hex, hex_disk, hex_rectangle, ring
from .location_areas import LocationAreaPlan
from .metrics import CallRecord, LinkUsageMetrics
from .mobility import (
    GravityMobility,
    MobilityModel,
    RandomWalk,
    RandomWaypoint,
    generate_trace,
    stationary_distribution,
    step_random_walks,
)
from .planning import (
    AreaSweepPoint,
    best_operating_point,
    sweep_location_area_sizes,
)
from .paging import (
    PAGER_FACTORIES,
    AdaptivePager,
    BlanketPager,
    CostAwarePager,
    HeuristicPager,
    Pager,
    PagingOutcome,
    build_sub_instance,
    execute_search,
)
from .render import (
    render_cell_map,
    render_location_areas,
    render_strategy,
    strategy_summary,
)
from .reporting import (
    AlwaysReport,
    DistanceReport,
    LACrossingReport,
    MoveContext,
    NeverReport,
    ReportingPolicy,
    TimerReport,
)
from .simulator import (
    CellularSimulator,
    SimulationConfig,
    SimulationReport,
)
from .timevary import (
    REGISTRATION_KINDS,
    BeliefPropagator,
    HMYResult,
    HMYStep,
    PolicyEvaluation,
    RegistrationCycle,
    distance_cycle,
    empirical_transition_matrix,
    evaluate_registration,
    gravity_transition_matrix,
    hmy_fixed_point,
    random_walk_transition_matrix,
    registration_cycle,
    stationary_from_matrix,
    timer_cycle,
    transition_matrix,
    validate_transition_matrix,
)
from .topology import CellTopology

__all__ = [
    "ARRIVAL_MODES",
    "DEFAULT_RECOVERY",
    "HEX_DIRECTIONS",
    "PAGER_FACTORIES",
    "AdaptivePager",
    "AlwaysReport",
    "AreaSweepPoint",
    "best_operating_point",
    "sweep_location_area_sizes",
    "BlanketPager",
    "CallRecord",
    "CellOutage",
    "CellTopology",
    "ChannelScheduler",
    "CostAwarePager",
    "CellularSimulator",
    "ConferenceCallRequest",
    "DistanceReport",
    "EventEngine",
    "FaultInjector",
    "FaultModel",
    "GravityMobility",
    "Hex",
    "HeuristicPager",
    "LACrossingReport",
    "LinkUsageMetrics",
    "LocationAreaPlan",
    "LocationRegistry",
    "MobilityModel",
    "MoveContext",
    "NeverReport",
    "Pager",
    "PagingOutcome",
    "PendingCall",
    "PoissonConferenceCalls",
    "plan_pending_call",
    "RandomWalk",
    "RandomWaypoint",
    "step_random_walks",
    "RecoveryPolicy",
    "RegistryRecord",
    "ReportingPolicy",
    "ResilientPager",
    "REGISTRATION_KINDS",
    "BeliefPropagator",
    "HMYResult",
    "HMYStep",
    "PolicyEvaluation",
    "RegistrationCycle",
    "SimulationConfig",
    "SimulationReport",
    "TimerReport",
    "build_sub_instance",
    "distance_cycle",
    "empirical_transition_matrix",
    "evaluate_registration",
    "execute_search",
    "generate_trace",
    "gravity_transition_matrix",
    "hmy_fixed_point",
    "random_walk_transition_matrix",
    "registration_cycle",
    "stationary_from_matrix",
    "timer_cycle",
    "transition_matrix",
    "validate_transition_matrix",
    "hex_disk",
    "hex_rectangle",
    "render_cell_map",
    "render_location_areas",
    "render_strategy",
    "ring",
    "strategy_summary",
    "stationary_distribution",
]
