"""Event-driven simulation core: traffic models, metric collection and
shared-clock fleet simulation with pluggable routing.

This package is the substrate under the characterization harness
(single-pod load tests), the cluster layer (multi-pod deployments,
multi-tenant co-simulation) and the ``repro-pilot simulate`` /
``cluster-sim`` CLIs: one event loop, many scenarios. Arrivals come
from synthetic :mod:`~repro.simulation.traffic` models or from recorded
arrival logs replayed by :mod:`~repro.simulation.replay`, and whole
experiments — fleet or cluster — are expressible as declarative
:mod:`~repro.simulation.scenario` specs runnable from one config file.
Deterministic fault injection (:mod:`~repro.simulation.faults`) layers
pod crashes, transient slowdowns and zone outages onto any of these
runs, and every result object speaks the common
:class:`~repro.simulation.results.SimResult` protocol.
"""

from repro.simulation.faults import (
    FAULT_KINDS,
    FaultEvent,
    FaultInjector,
    FaultSpec,
)
from repro.simulation.metrics import LatencyStats, MetricsCollector
from repro.simulation.results import SimResult, to_json
from repro.simulation.traffic import (
    RequestSource,
    TrafficModel,
    ClosedLoopTraffic,
    PoissonTraffic,
    DiurnalTraffic,
    BurstyTraffic,
)
from repro.simulation.frontier import (
    ClusterFrontier,
    EventFrontier,
    committed_load,
    least_loaded_pod,
)
from repro.simulation.fleet import (
    Router,
    RoundRobinRouter,
    LeastLoadedRouter,
    JoinShortestQueueRouter,
    WeightAwareRouter,
    ROUTERS,
    ScaleEvent,
    PodStats,
    FleetResult,
    FleetSimulator,
)
from repro.simulation.replay import ArrivalLog, RecordedTraffic, ReplayTraffic
from repro.simulation.autoscale import (
    AUTOSCALE_POLICIES,
    AdmissionController,
    AutoscaleConfig,
    AutoscalePolicy,
    Autoscaler,
    FleetView,
    NoOpPolicy,
    PredictivePolicy,
    TargetUtilizationPolicy,
    ThresholdPolicy,
)
from repro.simulation.cloud import (
    BurstPolicy,
    CloudLedger,
    bind_hybrid_capacity,
    spot_preemption_specs,
)
from repro.simulation.cluster import (
    ClusterInventory,
    ClusterResult,
    ClusterSimulator,
    InventoryEvent,
    TenantGroup,
)
from repro.simulation.scenario import ScenarioSpec
from repro.simulation.library import (
    DEFAULT_SCENARIO_DIR,
    Expectations,
    ExpectationCheck,
    ExpectationReport,
    evaluate_expectations,
    list_scenarios,
    load_by_name,
    scenario_path,
)

__all__ = [
    "FAULT_KINDS",
    "FaultEvent",
    "FaultInjector",
    "FaultSpec",
    "SimResult",
    "to_json",
    "ClusterFrontier",
    "EventFrontier",
    "committed_load",
    "least_loaded_pod",
    "ArrivalLog",
    "RecordedTraffic",
    "ReplayTraffic",
    "ScenarioSpec",
    "DEFAULT_SCENARIO_DIR",
    "Expectations",
    "ExpectationCheck",
    "ExpectationReport",
    "evaluate_expectations",
    "list_scenarios",
    "load_by_name",
    "scenario_path",
    "WeightAwareRouter",
    "BurstPolicy",
    "CloudLedger",
    "bind_hybrid_capacity",
    "spot_preemption_specs",
    "ClusterInventory",
    "ClusterResult",
    "ClusterSimulator",
    "InventoryEvent",
    "TenantGroup",
    "LatencyStats",
    "MetricsCollector",
    "RequestSource",
    "TrafficModel",
    "ClosedLoopTraffic",
    "PoissonTraffic",
    "DiurnalTraffic",
    "BurstyTraffic",
    "Router",
    "RoundRobinRouter",
    "LeastLoadedRouter",
    "JoinShortestQueueRouter",
    "ROUTERS",
    "ScaleEvent",
    "PodStats",
    "FleetResult",
    "FleetSimulator",
    "AUTOSCALE_POLICIES",
    "AdmissionController",
    "AutoscaleConfig",
    "AutoscalePolicy",
    "Autoscaler",
    "FleetView",
    "NoOpPolicy",
    "PredictivePolicy",
    "TargetUtilizationPolicy",
    "ThresholdPolicy",
]
