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

:class:`ClusterFrontier` lifts the index to tenants, and
:func:`run_event_loop` is the one event loop both the fleet and the
cluster run over their frontiers.

The module also hosts the one shared definition of pod load used by
every least-loaded selection (routers, drain-victim choice), previously
copy-pasted as ``key=lambda`` closures in three places.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

if TYPE_CHECKING:  # pragma: no cover - import cycle with the engine
    from repro.inference.engine import ContinuousBatchingEngine
    from repro.simulation.fleet import FleetSimulator

__all__ = [
    "ClusterFrontier",
    "EventFrontier",
    "committed_load",
    "least_loaded_pod",
    "run_event_loop",
]


def committed_load(pod: "ContinuousBatchingEngine") -> int:
    """Every token the pod has accepted but not finished.

    The in-flight batch weight plus the weight still waiting in the
    pod's queue — the load measure all least-loaded selections share.
    Reads the engine's private counters directly: a least-loaded router
    evaluates this once per pod for every arrival it places, where two
    property dispatches per pod are measurable. (The fleet places a
    least-loaded t=0 population through a heap instead, one evaluation
    per request; see ``FleetSimulator._place_initial``.)
    """
    return pod._batch_weight + pod._pending_weight


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

    def order(self, pod: "ContinuousBatchingEngine") -> int:
        """``pod``'s position in the indexed service order: the
        tie-break between pods on equal clocks."""
        return self._order[id(pod)]

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


class ClusterFrontier:
    """The cluster's event-loop operations, over lazy-invalidation heaps.

    :class:`EventFrontier` lifted one level: where the fleet indexes its
    busy *pods*, this indexes whole *tenants* for the
    :class:`~repro.simulation.cluster.ClusterSimulator`, and hands
    :func:`run_event_loop` the same five operations a fleet hands it —
    answered across every tenant in O(log tenants) instead of the
    reference cluster's three O(tenants) scans per event.

    Two heaps share the same lazy-invalidation discipline, both keyed
    ``(time, tenant_index)``:

    * the **pod heap** holds one entry per recorded observation of a
      tenant's earliest busy pod. An entry is stale when the tenant's
      current frontier time no longer equals the recorded one (the
      tenant stepped away, went idle, or an injection pulled its
      frontier *earlier* — unlike a single pod's clock, a tenant
      frontier is not monotone, which is why :meth:`push` runs after
      every mutation of that tenant, so the heap always holds a fresh
      entry at or below the true minimum). Validation peeks the fleet's
      own ``frontier``, so a valid entry always yields the tenant's
      *current* frontier pod, whichever pod that is;
    * the **control heap** holds the tenant's next control time
      (:meth:`~repro.simulation.fleet.FleetSimulator.next_control`),
      stale as soon as a tick moved it. Only the tenant's own control
      ticks move it, so it is recorded at construction and after each.

    Equal times resolve to the lowest tenant index, the reference scan's
    first minimum; which of one tenant's due events fires first — a
    fault at a tie — is that fleet's own
    :meth:`~repro.simulation.fleet.FleetSimulator.control_tick`.

    The frontier also keeps the loop's bookkeeping. :meth:`peek_pod` and
    :meth:`peek_control` remember the tenant they resolved to, which
    :meth:`step_pod` and :meth:`control_tick` then act on. The
    reference loop injects every tenant at every loop top; here only a
    tenant that just stepped or ticked injects. Injection is a
    per-tenant fixpoint (nothing becomes due until the tenant itself
    steps, ticks or injects), and tenants share nothing but the
    inventory, which injection never touches, so the skipped calls were
    all no-ops and the order in which tenants inject is immaterial:

    * a stepped tenant injects right after its step; the fleet's
      injection returns at once when nothing is due at its new
      frontier. That is the same as injecting at the next loop top,
      since nothing runs in between;
    * a ticked tenant joins the *dirty* set, which :meth:`inject_due`
      injects at the top of the next iteration, *not* right after the
      tick: the reference loop's control drain observes the fleet
      un-injected, and a decision must see exactly the queue state its
      reference counterpart saw.
    """

    __slots__ = (
        "_fleets",
        "_pod_heap",
        "_ctl_heap",
        "_dirty",
        "_pod_index",
        "_ctl_index",
    )

    def __init__(self, fleets: Sequence["FleetSimulator"]) -> None:
        self._fleets = list(fleets)
        self._pod_heap: list[tuple[float, int]] = []
        self._ctl_heap: list[tuple[float, int]] = []
        self._pod_index = -1
        self._ctl_index = -1
        # Every tenant injects at the first loop top.
        self._dirty = set(range(len(self._fleets)))
        for index in range(len(self._fleets)):
            self.push(index)
            self._push_control(index)

    def push(self, index: int) -> None:
        """Re-record tenant ``index``'s frontier-pod time.

        Called after anything that mutates the tenant (inject, step,
        control tick). Old entries are left behind for :meth:`peek_pod`
        to discard lazily; duplicates of a still-valid entry are
        harmless.
        """
        pod = self._fleets[index].frontier.peek()
        if pod is not None:
            heapq.heappush(self._pod_heap, (pod._time, index))

    def _push_control(self, index: int) -> None:
        t = self._fleets[index].next_control()
        if t != float("inf"):
            heapq.heappush(self._ctl_heap, (t, index))

    def inject_due(self) -> None:
        """Inject the due arrivals of every tenant ticked since the last call."""
        fleets = self._fleets
        for index in sorted(self._dirty):
            fleets[index].inject_due()
            self.push(index)
        self._dirty.clear()

    def peek_pod(self) -> "ContinuousBatchingEngine | None":
        """The globally earliest busy pod (None when every tenant is idle).

        Remembers its tenant for :meth:`step_pod`. The valid entry is left
        in place so repeated peeks are O(1).
        """
        heap = self._pod_heap
        fleets = self._fleets
        while heap:
            recorded, index = heap[0]
            pod = fleets[index].frontier.peek()
            if pod is not None and pod._time == recorded:
                self._pod_index = index
                return pod
            heapq.heappop(heap)
        return None

    def peek_control(self) -> float:
        """Virtual time of the next control event anywhere (inf when none).

        Remembers its tenant for :meth:`control_tick`. Consecutive
        same-time faults stay valid across ticks (the injector may hold
        several events at one instant), exactly as the reference re-scan
        would find them.
        """
        heap = self._ctl_heap
        fleets = self._fleets
        while heap:
            recorded, index = heap[0]
            if fleets[index].next_control() == recorded:
                self._ctl_index = index
                return recorded
            heapq.heappop(heap)
        return float("inf")

    def control_tick(self) -> bool:
        """Run the control event :meth:`peek_control` found; True for a fault."""
        index = self._ctl_index
        faulted = self._fleets[index].control_tick()
        self._push_control(index)
        self.push(index)
        self._dirty.add(index)
        return faulted

    def step_pod(self, pod: "ContinuousBatchingEngine", next_control: float) -> None:
        """Step the pod :meth:`peek_pod` found, in its own tenant's fleet,
        then inject that tenant's due arrivals and record its frontier."""
        index = self._pod_index
        fleet = self._fleets[index]
        fleet.step_pod(pod, next_control)
        fleet.inject_due()
        self.push(index)


def run_event_loop(
    t_end: float,
    inject_due: Callable[[], None],
    peek_pod: Callable[[], "ContinuousBatchingEngine | None"],
    peek_control: Callable[[], float],
    control_tick: Callable[[], bool],
    step_pod: Callable[["ContinuousBatchingEngine", float], None],
) -> None:
    """The production event loop, shared by the fleet and the cluster.

    Each iteration injects the arrivals due at the frontier, finds the
    busy pod with the smallest clock, runs every control event (fault
    or autoscale decision) due by that clock, then steps the pod. The
    loop ends once no pod is busy or the frontier reaches ``t_end``.
    ``FleetSimulator.run`` passes its own bound operations and
    ``ClusterSimulator`` those of a :class:`ClusterFrontier`:

    * ``inject_due()`` materializes the arrivals due at the frontier
      (a fleet never materializes a scheduled arrival at or past its
      window end, which ``FleetSimulator.begin`` sets to this
      loop's ``t_end``);
    * ``peek_pod()`` is the frontier pod, None when nothing is busy;
    * ``peek_control()`` is the time of the next control event, inf
      when none is pending;
    * ``control_tick()`` runs that event and says whether it was a
      fault;
    * ``step_pod(pod, t_ctl)`` steps the frontier pod once; ``t_ctl``
      is the next control event's time, the earliest anywhere on the
      loop's clock.

    Only a control tick moves a control time (arrivals and steps never
    do), so the loop re-reads ``peek_control()`` after each tick instead
    of once per event. Control events never move the frontier pod's
    clock, so the pod found before them is still the one to step —
    unless a fault took its work away.
    """
    t_ctl = peek_control()
    while True:
        inject_due()
        pod = peek_pod()
        if pod is None:
            break
        t_next = pod._time
        if t_next >= t_end:
            break
        faulted = False
        while t_ctl <= t_next and t_ctl < t_end:
            if control_tick():
                faulted = True
            t_ctl = peek_control()
        if faulted and not pod.has_work():
            # A fault crashed the frontier pod itself (or evacuated its
            # work): re-resolve the frontier.
            continue
        step_pod(pod, t_ctl)
