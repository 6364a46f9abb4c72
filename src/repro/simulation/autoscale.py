"""Autoscaling policies and SLO-aware admission control.

The paper recommends a *fixed* pod count per tenant (§IV); production
front ends instead resize the fleet as traffic moves. This module adds
the elastic layer on top of the shared-clock substrate:

* an :class:`AutoscalePolicy` maps a :class:`FleetView` — the windowed
  metrics the :class:`~repro.simulation.fleet.FleetSimulator` exposes at
  each decision boundary — to a desired pod count. Three adaptive
  policies ship alongside the no-op baseline: a reactive threshold on
  the trailing-window p95 TTFT, HPA-style target-utilization step
  scaling, and a predictive policy that extrapolates the windowed
  arrival-rate series;
* an :class:`Autoscaler` binds a policy to an :class:`AutoscaleConfig`
  (decision interval, pod bounds, cold-start delay, metrics window) and
  clamps/records every decision as a :class:`ScaleEvent`;
* an :class:`AdmissionController` wraps any router and sheds (or defers)
  arrivals while the fleet's trailing-window tail latency breaches the
  SLO, so overload degrades by rejecting work instead of by unbounded
  queueing.

Every policy is a pure function of the view — no RNG — so a seeded
simulation produces an identical scale-event log on every run.

Policies ask for pods; the substrate decides what is *grantable*. In a
standalone fleet every clamped ask is filled; inside the multi-tenant
:class:`~repro.simulation.cluster.ClusterSimulator` the shared
:class:`~repro.simulation.cluster.ClusterInventory` may fill it only
partially (``ScaleEvent.constraint == "clipped"``) or not at all
(``"denied"``), which is how cross-tenant contention becomes observable
in a tenant's scale-event log.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.fleet import Router, ScaleEvent

if TYPE_CHECKING:  # import cycle: the engine itself imports this package
    from repro.inference.engine import ContinuousBatchingEngine
    from repro.inference.request import InferenceRequest

__all__ = [
    "FleetView",
    "ScaleEvent",
    "AutoscalePolicy",
    "NoOpPolicy",
    "ThresholdPolicy",
    "TargetUtilizationPolicy",
    "PredictivePolicy",
    "AUTOSCALE_POLICIES",
    "AutoscaleConfig",
    "Autoscaler",
    "AdmissionController",
]


@dataclass(frozen=True)
class FleetView:
    """Windowed fleet state handed to a policy at one decision boundary.

    ``p95_ttft_s`` is the tail over the trailing metrics window (NaN when
    no first token was served in it); ``arrival_times_s`` /
    ``arrival_rates_per_s`` are the fleet's windowed arrival-rate series
    up to ``time``. ``utilization`` is the mean committed batch-weight
    fraction across routable pods.
    """

    time: float
    pods: int
    starting: int
    draining: int
    queue_depth: int
    active_requests: int
    utilization: float
    p95_ttft_s: float
    arrival_times_s: np.ndarray = field(repr=False)
    arrival_rates_per_s: np.ndarray = field(repr=False)

    @property
    def provisioned(self) -> int:
        """Pods the tenant is paying for: serving plus cold-starting."""
        return self.pods + self.starting


def recent_ttft_samples(
    pods: list[ContinuousBatchingEngine], now: float, window_s: float
) -> np.ndarray:
    """Pool every pod's TTFT samples from the trailing window.

    The one place the windowed-tail sample set is assembled — both the
    autoscaler's FleetView and the admission controller derive their p95
    from this.
    """
    recent = [pod.metrics.ttft_since(now - window_s) for pod in pods]
    return np.concatenate(recent) if recent else np.empty(0)


class AutoscalePolicy:
    """Maps a :class:`FleetView` to a desired provisioned pod count."""

    name: str = "policy"

    def desired_pods(self, view: FleetView) -> int:
        """The pod count this policy wants, given the observed view."""
        raise NotImplementedError

    def reset(self) -> None:
        """Forget policy state before a fresh run."""


class NoOpPolicy(AutoscalePolicy):
    """Keep whatever is provisioned — the paper's static deployment."""

    name = "static"

    def desired_pods(self, view: FleetView) -> int:
        return view.provisioned


#: The threshold policy's low-water mark, as a fraction of its SLO.
_LOW_FRACTION = 0.5
#: Pods the threshold policy adds or removes per decision.
_STEP = 1


class ThresholdPolicy(AutoscalePolicy):
    """Reactive threshold on the trailing-window p95 TTFT.

    Scale up by one pod while the windowed tail breaches the SLO; scale
    down by one once it sits below half the SLO *and* no work is queued
    (queued work means the tail is about to rise).
    """

    name = "threshold"

    def __init__(self, slo_p95_ttft_s: float) -> None:
        if slo_p95_ttft_s <= 0:
            raise ValueError(f"slo_p95_ttft_s must be positive, got {slo_p95_ttft_s}")
        self.slo_p95_ttft_s = float(slo_p95_ttft_s)

    def desired_pods(self, view: FleetView) -> int:
        if math.isnan(view.p95_ttft_s):
            # No first token served in the window. An idle fleet (nothing
            # queued or decoding either) is over-provisioned; anything
            # else is a warm-up transient — hold.
            if view.queue_depth == 0 and view.active_requests == 0:
                return view.provisioned - _STEP
            return view.provisioned
        if view.p95_ttft_s > self.slo_p95_ttft_s:
            return view.provisioned + _STEP
        if (
            view.p95_ttft_s < _LOW_FRACTION * self.slo_p95_ttft_s
            and view.queue_depth == 0
        ):
            return view.provisioned - _STEP
        return view.provisioned


#: The target-utilization policy's dead band around its target ratio.
_TOLERANCE = 0.1


class TargetUtilizationPolicy(AutoscalePolicy):
    """HPA-style step scaling toward a target batch-weight utilization.

    ``desired = ceil(pods * utilization / target)`` — the classic
    horizontal-pod-autoscaler formula — with a dead band of 10% around
    the target to prevent flapping.
    """

    name = "target-utilization"

    def __init__(self, target: float = 0.6) -> None:
        if not 0.0 < target <= 1.0:
            raise ValueError(f"target must be in (0, 1], got {target}")
        self.target = float(target)

    def desired_pods(self, view: FleetView) -> int:
        if view.pods == 0 or math.isnan(view.utilization):
            return view.provisioned
        ratio = view.utilization / self.target
        if abs(ratio - 1.0) <= _TOLERANCE:
            return view.provisioned
        desired = math.ceil(view.pods * ratio)
        if desired >= view.pods:
            # Pods already warming count toward the scale-up, so one
            # sustained breach doesn't add a pod every decision interval.
            return max(desired, view.provisioned)
        return desired


#: The predictive policy's head-room factor over its forecast.
_SAFETY = 1.2


class PredictivePolicy(AutoscalePolicy):
    """Extrapolates the windowed arrival-rate series past the cold start.

    A least-squares line through the last ``fit_windows`` points of the
    arrival-rate series is evaluated ``horizon_s`` ahead (so capacity is
    ready *when the cold start completes*, not when the breach shows up);
    the forecast is converted to pods via the per-pod service capacity
    ``requests_per_pod_per_s`` with 20% head-room.
    """

    name = "predictive"

    def __init__(
        self,
        requests_per_pod_per_s: float,
        horizon_s: float = 30.0,
        fit_windows: int = 6,
    ) -> None:
        if requests_per_pod_per_s <= 0:
            raise ValueError(
                f"requests_per_pod_per_s must be positive, got {requests_per_pod_per_s}"
            )
        if horizon_s < 0:
            raise ValueError(f"horizon_s must be >= 0, got {horizon_s}")
        if fit_windows < 2:
            raise ValueError(f"fit_windows must be >= 2, got {fit_windows}")
        self.requests_per_pod_per_s = float(requests_per_pod_per_s)
        self.horizon_s = float(horizon_s)
        self.fit_windows = int(fit_windows)

    def forecast_rate(self, view: FleetView) -> float:
        """Arrival rate predicted ``horizon_s`` past the decision time."""
        times = view.arrival_times_s[-self.fit_windows :]
        rates = view.arrival_rates_per_s[-self.fit_windows :]
        if times.size == 0:
            return 0.0
        if times.size == 1:
            return float(rates[0])
        slope, intercept = np.polyfit(times, rates, 1)
        return float(slope * (view.time + self.horizon_s) + intercept)

    def desired_pods(self, view: FleetView) -> int:
        if view.arrival_times_s.size == 0:
            # No completed observation window yet (e.g. the first
            # decision tick inside a long metrics window): hold rather
            # than mistake missing data for zero traffic.
            return view.provisioned
        rate = max(self.forecast_rate(view), 0.0)
        return math.ceil(_SAFETY * rate / self.requests_per_pod_per_s)


#: Policy registry for CLIs and benchmarks (constructors take the
#: policy-specific knobs, so the registry maps names to classes).
AUTOSCALE_POLICIES: dict[str, type[AutoscalePolicy]] = {
    NoOpPolicy.name: NoOpPolicy,
    ThresholdPolicy.name: ThresholdPolicy,
    TargetUtilizationPolicy.name: TargetUtilizationPolicy,
    PredictivePolicy.name: PredictivePolicy,
}


@dataclass(frozen=True)
class AutoscaleConfig:
    """Mechanics shared by every policy: when and how pods change."""

    decision_interval_s: float = 15.0
    min_pods: int = 1
    max_pods: int = 16
    cold_start_s: float = 10.0
    metrics_window_s: float = 30.0

    def __post_init__(self) -> None:
        if self.decision_interval_s <= 0:
            raise ValueError(
                f"decision_interval_s must be positive, got {self.decision_interval_s}"
            )
        if self.min_pods < 1:
            raise ValueError(f"min_pods must be >= 1, got {self.min_pods}")
        if self.max_pods < self.min_pods:
            raise ValueError(
                f"max_pods {self.max_pods} must be >= min_pods {self.min_pods}"
            )
        if self.cold_start_s < 0:
            raise ValueError(f"cold_start_s must be >= 0, got {self.cold_start_s}")
        if self.metrics_window_s <= 0:
            raise ValueError(
                f"metrics_window_s must be positive, got {self.metrics_window_s}"
            )


class Autoscaler:
    """A policy bound to its mechanics; consulted by the fleet loop."""

    def __init__(
        self, policy: AutoscalePolicy, config: AutoscaleConfig | None = None
    ) -> None:
        self.policy = policy
        self.config = config or AutoscaleConfig()

    def desired_pods(self, view: FleetView) -> int:
        """The policy's ask, clamped to the configured pod bounds."""
        desired = self.policy.desired_pods(view)
        return max(self.config.min_pods, min(self.config.max_pods, desired))

    def reset(self) -> None:
        """Forget policy state before a fresh run."""
        self.policy.reset()


#: First tokens the admission controller needs inside its window
#: before it trusts the tail estimate.
_MIN_SAMPLES = 8
#: Virtual seconds the admission controller reuses one tail estimate.
_REFRESH_S = 1.0


class AdmissionController(Router):
    """SLO-aware admission control wrapped around any router.

    While the fleet's trailing-window p95 TTFT breaches
    ``slo_p95_ttft_s``, new arrivals are **shed** (rejected outright) or,
    in ``mode="defer"``, re-offered ``retry_delay_s`` later up to
    ``max_defers`` times before being shed — a client-side retry with
    backoff. Sticky closed-loop follow-ups and routing itself are
    delegated to the wrapped router untouched.

    The controller needs 8 first tokens inside the window before it
    trusts the tail estimate; an idle or freshly started fleet admits
    everything. The tail is re-estimated at most once per second of
    virtual time (the estimate cannot move much faster than the window
    it is computed over), keeping admission O(1) per arrival instead of
    O(window samples).
    """

    def __init__(
        self,
        inner: Router,
        slo_p95_ttft_s: float,
        window_s: float = 30.0,
        mode: str = "shed",
        retry_delay_s: float = 5.0,
        max_defers: int = 3,
    ) -> None:
        if slo_p95_ttft_s <= 0:
            raise ValueError(f"slo_p95_ttft_s must be positive, got {slo_p95_ttft_s}")
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if mode not in ("shed", "defer"):
            raise ValueError(f"mode must be 'shed' or 'defer', got {mode!r}")
        if retry_delay_s <= 0:
            raise ValueError(f"retry_delay_s must be positive, got {retry_delay_s}")
        if max_defers < 0:
            raise ValueError(f"max_defers must be >= 0, got {max_defers}")
        self.inner = inner
        self.slo_p95_ttft_s = float(slo_p95_ttft_s)
        self.window_s = float(window_s)
        self.mode = mode
        self.retry_delay_s = float(retry_delay_s)
        self.max_defers = int(max_defers)
        self._defers: dict[int, int] = {}
        self._p95_cache = float("nan")
        self._p95_at = float("-inf")

    @property
    def name(self) -> str:  # type: ignore[override]
        return f"admission({self.inner.name})"

    def reset(self) -> None:
        """Forget admission and inner-router state before a fresh run."""
        self.inner.reset()
        self._defers.clear()
        self._p95_cache = float("nan")
        self._p95_at = float("-inf")

    def windowed_p95_ttft(
        self, now: float, pods: list[ContinuousBatchingEngine]
    ) -> float:
        """Fleet p95 TTFT over the trailing window (NaN below 8 samples).

        Cached per second of virtual time; arrivals inside the same
        refresh quantum reuse the previous estimate.
        """
        if now - self._p95_at < _REFRESH_S:
            return self._p95_cache
        samples = recent_ttft_samples(pods, now, self.window_s)
        if samples.size < _MIN_SAMPLES:
            p95 = float("nan")
        else:
            p95 = float(np.percentile(samples, 95.0))
        self._p95_at = now
        self._p95_cache = p95
        return p95

    def admit(
        self,
        request: InferenceRequest,
        arrival_time: float,
        pods: list[ContinuousBatchingEngine],
    ) -> str:
        """``"admit"``, ``"shed"`` or ``"defer"`` for one arrival."""
        p95 = self.windowed_p95_ttft(arrival_time, pods)
        if math.isnan(p95) or p95 <= self.slo_p95_ttft_s:
            self._defers.pop(request.request_id, None)
            return "admit"
        if self.mode == "defer":
            seen = self._defers.get(request.request_id, 0)
            if seen < self.max_defers:
                self._defers[request.request_id] = seen + 1
                return "defer"
            self._defers.pop(request.request_id, None)
        return "shed"

    def route(self, request, arrival_time, pods) -> int:
        return self.inner.route(request, arrival_time, pods)
