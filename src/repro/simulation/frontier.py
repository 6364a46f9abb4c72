"""Event-frontier index: the fleet's O(log pods) busy-pod lookup.

The fleet event loop steps the busy pod with the smallest virtual time
("the frontier") once per event. The reference fleet
(:mod:`repro.simulation.reference`) finds it with an O(pods) ``min()``
scan over every in-service pod — fine for a handful of
replicas, but the scan runs once per event and once more per arrival
check, so it compounds badly on autoscaled fleets that grow to dozens of
pods. :class:`EventFrontier` replaces both scans with a lazy-invalidation
binary heap keyed on ``(pod.time, service_order)``:

* entries are pushed when a pod becomes busy or its clock moves
  (submit, step); stale entries are *not* removed eagerly — :meth:`peek`
  discards any entry whose pod went idle or whose recorded clock no
  longer matches, which amortizes to O(log pods) per event;
* pod virtual time is monotone, so an entry can go stale but never
  become valid again — lazy invalidation is safe;
* the tie-break is the pod's position in the fleet's in-service order
  (``pods + draining``), which is exactly the pod Python's ``min``
  returns on equal clocks. That makes the heap answer *bit-identical*
  to the reference scan, not just equivalent — membership changes
  (activation, draining, retirement) renumber positions, so the fleet
  calls :meth:`rebuild` on every such (rare) event.

The module also hosts the one shared definition of pod load used by
every least-loaded selection (routers, drain-victim choice), previously
copy-pasted as ``key=lambda`` closures in three places.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle with the engine
    from repro.inference.engine import ContinuousBatchingEngine
    from repro.simulation.fleet import FleetSimulator

__all__ = [
    "ClusterFrontier",
    "EventFrontier",
    "committed_load",
    "least_loaded_pod",
]


def committed_load(pod: "ContinuousBatchingEngine") -> int:
    """Every token the pod has accepted but not finished.

    The in-flight batch weight plus the weight still waiting in the
    pod's queue — the load measure all least-loaded selections share.
    Reads the engine's private counters directly: the initial routing
    pass evaluates this O(users * pods) times, where two property
    dispatches per pod are measurable. Duck-typed pods (test stubs)
    without those counters fall back to the public accessors.
    """
    try:
        return pod._batch_weight + pod._pending_weight
    except AttributeError:
        return pod.batch_weight_in_use + pod.pending_weight


def least_loaded_pod(candidates: Iterable[int], pods: Sequence) -> int:
    """Index of the least-loaded candidate pod; ties break to the lowest.

    The one shared helper behind every least-loaded selection
    (:class:`~repro.simulation.fleet.LeastLoadedRouter`, the tiered
    :class:`~repro.simulation.fleet.WeightAwareRouter`); load is
    :func:`committed_load`, the same measure the autoscaler's
    drain-victim choice uses.
    """
    return min(candidates, key=lambda i: (committed_load(pods[i]), i))


class EventFrontier:
    """Lazy-invalidation heap over busy pods, keyed on virtual time.

    Owned by a :class:`~repro.simulation.fleet.FleetSimulator`. The
    fleet keeps the index current with three hooks: :meth:`rebuild` on
    any service-membership change, :meth:`push` after any event that
    moves a pod's clock or makes an idle pod busy, and :meth:`peek`
    wherever the reference fleet scans.
    """

    __slots__ = ("_heap", "_order", "_pods")

    def __init__(self) -> None:
        self._heap: list[tuple[float, int]] = []
        self._order: dict[int, int] = {}
        self._pods: list["ContinuousBatchingEngine"] = []

    def rebuild(self, in_service: Sequence["ContinuousBatchingEngine"]) -> None:
        """Re-index after the in-service pod set (or its order) changed.

        O(pods), but only membership events (activation, drain,
        retirement) trigger it — the steady-state loop never does.
        """
        self._pods = list(in_service)
        self._order = {id(pod): i for i, pod in enumerate(self._pods)}
        self._heap = [
            (pod.time, i) for i, pod in enumerate(self._pods) if pod.has_work()
        ]
        heapq.heapify(self._heap)

    def push(self, pod: "ContinuousBatchingEngine") -> None:
        """Record ``pod``'s current clock (after a submit or step).

        Earlier entries for the pod are left in the heap; they are
        discarded lazily by :meth:`peek` since the clock only moves
        forward. Pods outside the indexed service set are ignored.
        """
        # push/peek run 2-3x per simulated event, so both read the
        # engine's private ``_time``/``_queue``/``_active`` directly
        # instead of going through the ``time``/``has_work()``
        # accessors — property and call overhead dominate at this rate.
        order = self._order.get(id(pod))
        if order is not None and (pod._queue or pod._active):
            heapq.heappush(self._heap, (pod._time, order))

    def peek(self) -> "ContinuousBatchingEngine | None":
        """The busy pod with the smallest ``(time, service order)``.

        Discards stale entries (pod went idle, or its clock moved past
        the recorded value) from the top; the returned pod's entry is
        left in place so repeated peeks are O(1).
        """
        heap = self._heap
        pods = self._pods
        while heap:
            entry = heap[0]
            pod = pods[entry[1]]
            if pod._time == entry[0] and (pod._queue or pod._active):
                return pod
            heapq.heappop(heap)
        return None


#: Control-entry kinds of the cluster frontier. A fault beats an
#: autoscale decision at the same (time, tenant) — the reference scan
#: checks ``next_fault`` before ``next_decision`` with a strict ``<``,
#: so the decision observes the already-degraded fleet.
_KIND_FAULT = 0
_KIND_DECISION = 1


class ClusterFrontier:
    """Lazy-invalidation heaps over tenant fleets for the cluster loop.

    :class:`EventFrontier` lifted one level: where the fleet indexes its
    busy *pods*, this indexes whole *tenants* for the
    :class:`~repro.simulation.cluster.ClusterSimulator`, replacing its
    three O(tenants) scans per event (frontier pod, next fault, next
    decision) with O(log tenants) heap pops.

    Two heaps share the same lazy-invalidation discipline:

    * the **pod heap** holds ``(frontier_time, tenant_index)`` entries —
      one per recorded observation of a tenant's earliest busy pod. An
      entry is stale when the tenant's current frontier time no longer
      equals the recorded one (the tenant stepped away, went idle, or an
      injection pulled its frontier *earlier* — unlike a single pod's
      clock, a tenant frontier is not monotone, which is why
      :meth:`push` must run after every mutation of that tenant so the
      heap always holds a fresh entry at or below the true minimum);
    * the **control heap** holds ``(time, tenant_index, kind)`` entries
      for pending fault and autoscale-decision times, stale as soon as
      the fleet's ``next_fault``/``next_decision`` moved past them.

    Tie-breaks replicate the reference scans bit-for-bit: equal times
    resolve to the lowest tenant index (the scan's first minimum), and
    within one tenant a fault (kind 0) sorts before a decision (kind 1)
    at the same instant. Validation goes through the fleet's own
    ``frontier_pod()``, so the pod returned for a valid entry is always
    the tenant's *current* frontier pod, whichever pod that is.
    """

    __slots__ = ("_fleets", "_pod_heap", "_ctl_heap")

    def __init__(self, fleets: Sequence["FleetSimulator"]) -> None:
        self._fleets = list(fleets)
        self._pod_heap: list[tuple[float, int]] = []
        self._ctl_heap: list[tuple[float, int, int]] = []
        for index in range(len(self._fleets)):
            self.push(index)

    def push(self, index: int) -> None:
        """Re-record tenant ``index``'s frontier-pod and control times.

        Called after anything that mutates the tenant (inject, step,
        fault tick, autoscale tick). Old entries are left behind for
        :meth:`peek_pod`/:meth:`peek_control` to discard lazily;
        duplicates of a still-valid entry are harmless.
        """
        fleet = self._fleets[index]
        pod = fleet.frontier_pod()
        if pod is not None:
            heapq.heappush(self._pod_heap, (pod.time, index))
        t_fault = fleet.next_fault
        if t_fault != float("inf"):
            heapq.heappush(self._ctl_heap, (t_fault, index, _KIND_FAULT))
        t_decision = fleet.next_decision
        if t_decision != float("inf"):
            heapq.heappush(self._ctl_heap, (t_decision, index, _KIND_DECISION))

    def peek_pod(self) -> tuple[int, "ContinuousBatchingEngine | None"]:
        """``(tenant_index, pod)`` of the globally earliest busy pod.

        ``(-1, None)`` when every tenant is idle. The valid entry is left
        in place so repeated peeks are O(1).
        """
        heap = self._pod_heap
        fleets = self._fleets
        while heap:
            recorded, index = heap[0]
            pod = fleets[index].frontier_pod()
            if pod is not None and pod.time == recorded:
                return index, pod
            heapq.heappop(heap)
        return -1, None

    def peek_control(self) -> tuple[float, int, bool]:
        """``(time, tenant_index, is_fault)`` of the next control event.

        ``(inf, -1, False)`` when nothing is pending. Consecutive
        same-time faults stay valid across ticks (the injector may hold
        several events at one instant), exactly as the reference re-scan
        would find them.
        """
        heap = self._ctl_heap
        fleets = self._fleets
        while heap:
            recorded, index, kind = heap[0]
            fleet = fleets[index]
            actual = fleet.next_fault if kind == _KIND_FAULT else fleet.next_decision
            if actual == recorded:
                return recorded, index, kind == _KIND_FAULT
            heapq.heappop(heap)
        return float("inf"), -1, False
