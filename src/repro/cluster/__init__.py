"""Kubernetes-like deployment layer: replicated pods, load balancing,
multi-tenant cluster scheduling and shared-clock multi-tenant
co-simulation (the paper's declared next step)."""

from repro.cluster.deployment import Deployment, DeploymentLoadTestResult
from repro.cluster.scheduler import (
    ClusterInventory,
    TenantRequest,
    Placement,
    ScheduleResult,
    MultiTenantScheduler,
    FeedbackIteration,
    FeedbackOutcome,
    FeedbackScheduler,
)
from repro.simulation.cluster import (
    ClusterResult,
    ClusterSimulator,
    InventoryEvent,
    TenantGroup,
)

__all__ = [
    "Deployment",
    "DeploymentLoadTestResult",
    "ClusterInventory",
    "TenantRequest",
    "Placement",
    "ScheduleResult",
    "MultiTenantScheduler",
    "FeedbackIteration",
    "FeedbackOutcome",
    "FeedbackScheduler",
    "ClusterResult",
    "ClusterSimulator",
    "InventoryEvent",
    "TenantGroup",
]
