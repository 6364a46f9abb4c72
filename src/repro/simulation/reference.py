"""The reference simulator: the plain scans and scalar loops.

Every speed-up in the production simulator is bit-identical to a
plainer implementation of the same semantics. Those implementations
live here, each a subclass that overrides exactly the optimized piece:

* :class:`ReferenceEngine` decodes one request at a time, one step per
  call, costs each step with ``CostModel.decode_step_time``, draws each
  step's jitter on its own and rescans the queue on every step, popping
  each entry it examines and pushing the skipped ones back; it never
  reads the finish marks, the last-token segments, the noise buffer,
  the cached cost terms or the admission memo;
* :class:`ReferenceFleetSimulator` finds the next pod to step with an
  O(pods) scan of the fleet's live in-service list instead of the
  :class:`~repro.simulation.frontier.EventFrontier` heap, has the router
  place every t=0 arrival instead of placing a least-loaded population
  through a heap, and draws each completion's follow-up as the
  completion happens, where a fleet whose pods leap under their own
  horizons queues the draws and makes them in the one-step loop's
  order;
* :class:`ReferenceClusterSimulator` runs the cluster loop with three
  O(tenants) scans per event instead of the
  :class:`~repro.simulation.frontier.ClusterFrontier`;
* :func:`run_scenario` runs a scenario spec on all three.

The parity suites, the speed benchmarks and the scenario library's
``fast_oracle_parity`` marker compare production runs against these
classes; no production code path selects them. (Not "oracle":
:mod:`repro.evaluation.oracle` is the paper's Oracle baseline.)
"""

from __future__ import annotations

import numpy as np

from repro.cluster.deployment import Deployment
from repro.inference.engine import (
    _ADMISSION_LOOKAHEAD,
    _STARVATION_TIMEOUT_S,
    _STEP_NOISE_SIGMA,
    MAX_BATCH_REQUESTS,
    ContinuousBatchingEngine,
    _Active,
)
from repro.inference.request import RequestResult
from repro.simulation.cluster import ClusterSimulator, TenantGroup
from repro.simulation.fleet import FleetSimulator
from repro.simulation.scenario import ScenarioSpec

__all__ = [
    "ReferenceClusterSimulator",
    "ReferenceEngine",
    "ReferenceFleetSimulator",
    "run_scenario",
]


class ReferenceEngine(ContinuousBatchingEngine):
    """The engine with a per-request decode loop, one scalar noise draw
    per step, and a pop-and-push-back admission scan with no memo."""

    def step(self) -> list[RequestResult]:
        if not (self._queue or self._active):
            return []
        self.stats.steps += 1
        self.step_start = self._time
        if self._queue:
            admitted = self._admit()
            if admitted:
                return self._prefill(admitted)
        return self._decode()

    def _admit(self) -> list[_Active]:
        """Admission by popping every examined entry and pushing the
        skipped ones back, in FIFO order, with no memo."""
        admitted: list[_Active] = []
        if not self._queue:
            return admitted
        head_wait = self._time - self._queue[0][1]
        allow_reorder = head_wait < _STARVATION_TIMEOUT_S
        budget = self.max_batch_weight - self._batch_weight
        slots = MAX_BATCH_REQUESTS - len(self._active)
        skipped = []
        while self._queue and slots > 0:
            request, submitted_at, weight = self._queue.popleft()
            if request.weight <= budget:
                budget -= request.weight
                slots -= 1
                self._batch_weight += request.weight
                self._pending_weight -= request.weight
                admitted.append(_Active(request=request, submitted_at=submitted_at))
                continue
            skipped.append((request, submitted_at, weight))
            if not allow_reorder or len(skipped) >= _ADMISSION_LOOKAHEAD:
                break
        for item in reversed(skipped):
            self._queue.appendleft(item)
        return admitted

    def _noise(self) -> float:
        """One plain draw per step, with no buffer."""
        return float(self._rng.lognormal(0.0, _STEP_NOISE_SIGMA))

    def _mark(self, a) -> None:
        """Keep no finish marks or segments."""

    def _decode(self) -> list[RequestResult]:
        """One decode step: every active sequence gains one token."""
        self.stats.decode_steps += 1
        n_seqs = sum(a.request.batch_size for a in self._active)
        dt = (
            self.cost.decode_step_time(n_seqs, self._kv_tokens)
            * self._noise()
            * self.slow_factor
        )
        self._time += dt
        self.stats.busy_time_s += dt
        now = self._time

        gaps = np.empty(len(self._active))
        still_active = []
        completed: list[RequestResult] = []
        for i, a in enumerate(self._active):
            gaps[i] = now - a.last_token_at
            a.last_token_at = now
            a.generated += 1
            self._kv_tokens += a.request.batch_size
            self.stats.tokens_generated += a.request.batch_size
            if a.done:
                completed.append(self._finish(a))
            else:
                still_active.append(a)
        self.metrics.record_gaps(gaps, now)
        self.metrics.record_tokens(n_seqs, now)
        self._active = still_active
        return completed


class _ScanFrontier:
    """The :class:`EventFrontier` interface, answered by a scan.

    Keeps no index, so ``push`` and ``rebuild`` are no-ops: every peek
    scans the fleet's in-service pods as they are right now.
    """

    def __init__(self, fleet: FleetSimulator) -> None:
        self._fleet = fleet

    def push(self, pod) -> None:
        pass

    def rebuild(self, in_service) -> None:
        pass

    def peek(self):
        busy = [pod for pod in self._fleet._in_service() if pod.has_work()]
        if not busy:
            return None
        return min(busy, key=lambda pod: pod.time)


class ReferenceFleetSimulator(FleetSimulator):
    """The fleet with an O(pods) frontier scan instead of the heap, the
    router placing every t=0 arrival, and every follow-up drawn as its
    completion happens."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._frontier = _ScanFrontier(self)

    def _place_initial(self, requests) -> None:
        """Offer the t=0 population one arrival at a time."""
        for request in requests:
            self._dispatch(request, 0.0)

    def _completed(self, stepping, finished) -> None:
        """Draw the follow-ups now, with no queue."""
        hint = self._serials[id(stepping)] if self.traffic.sticky else None
        self._follow_up(hint, finished)


class ReferenceClusterSimulator(ClusterSimulator):
    """The cluster with O(tenants) scans instead of the cluster frontier."""

    def _run_loop(self, t_end: float) -> None:
        while True:
            for group in self.tenants:
                group.fleet.inject_due(t_end)
            stepping: TenantGroup | None = None
            pod = None
            t_next = float("inf")
            for group in self.tenants:
                candidate = group.fleet.frontier_pod()
                if candidate is not None and candidate.time < t_next:
                    stepping, pod, t_next = group, candidate, candidate.time
            if stepping is None or t_next >= t_end:
                break
            # Control events (faults + autoscale decisions) due anywhere
            # in the cluster run before the frontier pod steps, in
            # global virtual-time order — tenant A's release at t can
            # fund tenant B's grant at t' > t, and a zone outage frees
            # capacity the same way. Within a tenant, a fault at the
            # same instant as a decision fires first, so the decision
            # observes the degraded fleet (exactly as the standalone
            # fleet loop orders them).
            faulted = False
            while True:
                decider: TenantGroup | None = None
                t_ctl = float("inf")
                is_fault = False
                for group in self.tenants:
                    if group.fleet.next_fault < t_ctl:
                        decider, t_ctl, is_fault = group, group.fleet.next_fault, True
                    if group.fleet.next_decision < t_ctl:
                        decider, t_ctl = group, group.fleet.next_decision
                        is_fault = False
                if decider is None or t_ctl > t_next or t_ctl >= t_end:
                    break
                if is_fault:
                    decider.fleet.fault_tick()
                    faulted = True
                else:
                    decider.fleet.autoscale_tick()
            if faulted and not pod.has_work():
                # A fault crashed the frontier pod itself (or evacuated
                # its work): re-resolve the global frontier.
                continue
            stepping.fleet.step_pod(pod, t_ctl)


class _ReferenceDeployment(Deployment):
    engine_type = ReferenceEngine
    fleet_type = ReferenceFleetSimulator


class _ReferenceScenario(ScenarioSpec):
    def _types(self) -> tuple[type, type]:
        return _ReferenceDeployment, ReferenceClusterSimulator


def run_scenario(spec: ScenarioSpec, keep_samples: bool = False):
    """Build and run ``spec`` on the reference engine, fleet and cluster.

    The reference counterpart of :meth:`ScenarioSpec.run`: the same
    conservation-checked result type, from the reference classes.
    """
    return _ReferenceScenario(vars(spec)).run(keep_samples=keep_samples)
