"""Traffic models: who sends requests, and when.

A :class:`TrafficModel` decouples the *arrival process* from the engine
and the driver loop. The paper's harness (§III-C3) is closed-loop —
``u`` users, one request in flight each — which is
:class:`ClosedLoopTraffic`. Open-loop scenarios schedule timed arrivals
independently of completions: stationary Poisson
(:class:`PoissonTraffic`), sinusoidally rate-modulated
(:class:`DiurnalTraffic`) and 2-state MMPP on/off bursts
(:class:`BurstyTraffic`).

Requests themselves are drawn from a :class:`RequestSource`, which wraps
a :class:`~repro.workload.generator.WorkloadGenerator` stream and applies
the platform-side truncation of requests that exceed the server's
maximum batch weight.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import cycle: the engine itself imports this package
    from repro.inference.request import InferenceRequest, RequestResult
    from repro.workload.generator import WorkloadGenerator

__all__ = [
    "RequestSource",
    "TrafficModel",
    "ClosedLoopTraffic",
    "PoissonTraffic",
    "DiurnalTraffic",
    "BurstyTraffic",
]


class RequestSource:
    """Draws workload requests, truncating any that exceed ``max_weight``."""

    def __init__(
        self,
        generator: WorkloadGenerator,
        rng: np.random.Generator,
        max_weight: int,
    ) -> None:
        self.generator = generator
        self.max_weight = int(max_weight)
        self._rng = rng
        self._stream = generator.request_stream(rng=rng)
        self.drawn = 0

    def next_request(self) -> InferenceRequest:
        req = next(self._stream)
        if req.weight > self.max_weight:
            # Platform-side truncation; only reachable in independent
            # sampling mode (joint mode is bounded by the tuned weight).
            req = self.generator.sample_requests(
                1, rng=self._rng, first_id=req.request_id, max_weight=self.max_weight
            )[0]
        self.drawn += 1
        return req


class TrafficModel(ABC):
    """Arrival process driving a simulation.

    Two kinds of arrivals exist, and a model may use either or both:

    * **initial/completion-driven** — :meth:`initial_arrivals` submits a
      population at t=0 and :meth:`on_complete` may return a follow-up
      request on every completion (closed-loop behaviour);
    * **scheduled** — :meth:`peek` exposes the next timed arrival and
      :meth:`pop` consumes it (open-loop behaviour). Requests are drawn
      lazily at injection time so the workload stream's draw order
      matches a hand-written driver loop exactly.
    """

    name: str = "traffic"
    #: When True, completion-driven follow-ups stay on the pod that served
    #: the completed request (per-user session affinity) instead of being
    #: re-routed. Only the initial arrivals go through the router.
    sticky: bool = False

    def initial_arrivals(self, source: RequestSource) -> list[InferenceRequest]:
        """Requests submitted at virtual time zero."""
        return []

    def peek(self) -> float | None:
        """Time of the next scheduled arrival, or None if there is none."""
        return None

    def pop(self, source: RequestSource) -> tuple[float, InferenceRequest]:
        """Consume the next scheduled arrival as ``(time, request)``."""
        raise NotImplementedError(f"{self.name} has no scheduled arrivals")

    def on_complete(
        self, result: RequestResult, now: float, source: RequestSource
    ) -> InferenceRequest | None:
        """Optional follow-up request triggered by a completion."""
        return None


class ClosedLoopTraffic(TrafficModel):
    """The paper's harness: ``users`` clients, one request in flight each.

    On completion a client immediately submits its next request, so the
    offered load adapts to the service rate and overload shows up as a
    throughput plateau rather than unbounded queueing.

    ``sticky`` (the default) keeps each user on the pod the router first
    assigned them to, as the paper's per-pod user populations do; with
    ``sticky=False`` every follow-up request is re-routed, modelling a
    sessionless front end.
    """

    name = "closed-loop"

    def __init__(self, users: int, sticky: bool = True) -> None:
        if users < 1:
            raise ValueError(f"users must be >= 1, got {users}")
        self.users = int(users)
        self.sticky = bool(sticky)

    def initial_arrivals(self, source: RequestSource) -> list[InferenceRequest]:
        return [source.next_request() for _ in range(self.users)]

    def on_complete(
        self, result: RequestResult, now: float, source: RequestSource
    ) -> InferenceRequest | None:
        return source.next_request()


class _ScheduledTraffic(TrafficModel):
    """Base for open-loop models: lazily materialized arrival times."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._next: float | None = None
        self._started = False

    @abstractmethod
    def _first_arrival(self) -> float: ...

    @abstractmethod
    def _next_arrival(self, after: float) -> float: ...

    def peek(self) -> float | None:
        if not self._started:
            self._next = self._first_arrival()
            self._started = True
        return self._next

    def pop(self, source: RequestSource) -> tuple[float, InferenceRequest]:
        t = self.peek()
        if t is None:
            raise RuntimeError("no scheduled arrival to pop")
        request = source.next_request()
        self._next = self._next_arrival(t)
        return t, request


class PoissonTraffic(_ScheduledTraffic):
    """Stationary open-loop traffic: Poisson arrivals at a fixed rate."""

    name = "poisson"

    def __init__(self, rate_per_s: float, rng: np.random.Generator) -> None:
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
        super().__init__(rng)
        self.rate_per_s = float(rate_per_s)

    def _first_arrival(self) -> float:
        return float(self._rng.exponential(1.0 / self.rate_per_s))

    def _next_arrival(self, after: float) -> float:
        return after + float(self._rng.exponential(1.0 / self.rate_per_s))


class DiurnalTraffic(_ScheduledTraffic):
    """Sinusoidally modulated arrivals (a day/night load cycle).

    A non-homogeneous Poisson process with rate
    ``base * (1 + amplitude * sin(2*pi*t/period + phase))``, sampled by
    thinning against the peak rate, so arrival statistics are exact.
    """

    name = "diurnal"

    def __init__(
        self,
        base_rate_per_s: float,
        rng: np.random.Generator,
        amplitude: float = 0.8,
        period_s: float = 600.0,
        phase_rad: float = 0.0,
    ) -> None:
        if base_rate_per_s <= 0:
            raise ValueError(f"base_rate_per_s must be positive, got {base_rate_per_s}")
        if not 0.0 <= amplitude <= 1.0:
            raise ValueError(f"amplitude must be in [0, 1], got {amplitude}")
        if period_s <= 0:
            raise ValueError(f"period_s must be positive, got {period_s}")
        super().__init__(rng)
        self.base_rate_per_s = float(base_rate_per_s)
        self.amplitude = float(amplitude)
        self.period_s = float(period_s)
        self.phase_rad = float(phase_rad)

    def rate_at(self, t: float) -> float:
        phase = 2.0 * np.pi * t / self.period_s + self.phase_rad
        return self.base_rate_per_s * (1.0 + self.amplitude * np.sin(phase))

    def _thin(self, t: float) -> float:
        peak = self.base_rate_per_s * (1.0 + self.amplitude)
        while True:
            t += float(self._rng.exponential(1.0 / peak))
            if self._rng.uniform() * peak <= self.rate_at(t):
                return t

    def _first_arrival(self) -> float:
        return self._thin(0.0)

    def _next_arrival(self, after: float) -> float:
        return self._thin(after)


class BurstyTraffic(_ScheduledTraffic):
    """2-state MMPP: exponentially distributed ON bursts and OFF lulls.

    In the ON state arrivals are Poisson at ``on_rate_per_s``; in the OFF
    state at ``off_rate_per_s`` (possibly zero). Dwell times in each
    state are exponential with the given means — the classic on/off
    burst model front ends see from retry storms and batch clients.
    """

    name = "bursty"

    def __init__(
        self,
        on_rate_per_s: float,
        rng: np.random.Generator,
        off_rate_per_s: float = 0.0,
        mean_on_s: float = 20.0,
        mean_off_s: float = 40.0,
        start_on: bool = True,
    ) -> None:
        if on_rate_per_s <= 0:
            raise ValueError(f"on_rate_per_s must be positive, got {on_rate_per_s}")
        if off_rate_per_s < 0:
            raise ValueError(f"off_rate_per_s must be >= 0, got {off_rate_per_s}")
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("state dwell means must be positive")
        super().__init__(rng)
        self.on_rate_per_s = float(on_rate_per_s)
        self.off_rate_per_s = float(off_rate_per_s)
        self.mean_on_s = float(mean_on_s)
        self.mean_off_s = float(mean_off_s)
        self._on = bool(start_on)
        self._state_end: float | None = None

    def _dwell(self) -> float:
        mean = self.mean_on_s if self._on else self.mean_off_s
        return float(self._rng.exponential(mean))

    def _advance(self, t: float) -> float:
        if self._state_end is None:
            self._state_end = self._dwell()
        while True:
            rate = self.on_rate_per_s if self._on else self.off_rate_per_s
            if rate > 0:
                candidate = t + float(self._rng.exponential(1.0 / rate))
                if candidate <= self._state_end:
                    return candidate
            # No arrival before the state flips: jump to the transition.
            t = self._state_end
            self._on = not self._on
            self._state_end = t + self._dwell()

    def _first_arrival(self) -> float:
        return self._advance(0.0)

    def _next_arrival(self, after: float) -> float:
        return self._advance(after)
