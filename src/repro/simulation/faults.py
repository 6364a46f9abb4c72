"""Deterministic fault injection: crashes, slowdowns, zone outages.

The simulator was a fair-weather world: pods never crashed, never
slowed down, and zones never disappeared — so the autoscaling +
admission stack had never been asked the one question production asks
(does the quiet tenant's p95 survive a failure?). This module is the
fault layer:

* a :class:`FaultSpec` declares one scheduled fault — a pod ``crash``
  (in-flight requests requeued or lost, optionally restarted after a
  delay), a transient ``slowdown`` (a time-windowed multiplier on the
  engine's prefill/decode cost) or a correlated ``zone-outage`` (every
  pod in a zone crashes at once);
* a :class:`FaultInjector` expands a list of specs into a time-sorted
  event timeline consumed by the fleet's run loop through the same
  shared-clock interface autoscale decisions use (``next_fault`` /
  ``fault_tick``), so the production simulator and the reference
  (:mod:`repro.simulation.reference`) see an identical fault schedule;
* every applied fault is recorded as a :class:`FaultEvent` on the run's
  result, which is what recovery-time and degraded-window SLO metrics
  are computed from.

Victim selection for untargeted faults (no ``pod``, no ``zone``) draws
from a seeded stream (:func:`repro.utils.rng.derive_rng`), and the
fleet state it selects over is identical in the production and
reference simulators — fault schedules are exactly reproducible from
the injector seed alone. A fleet with no injector never consults this
module: the fault-free path stays bit-identical to the pre-fault
simulator.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.utils.rng import derive_rng

__all__ = [
    "DISRUPTIVE_FAULT_KINDS",
    "FAULT_KINDS",
    "FaultSpec",
    "FaultEvent",
    "FaultInjector",
]

#: The fault kinds a spec may declare. ``spot-preempt`` is the cloud
#: tier's reclamation event: it crashes a pod like ``crash`` does, but
#: only cloud-burst pods are eligible victims and the instance is
#: reclaimed by the provider, so no in-place restart is possible.
FAULT_KINDS = ("crash", "slowdown", "zone-outage", "spot-preempt")

#: The :class:`FaultEvent` kinds that degrade service: recovery is
#: measured from them, and run reports mark them.
DISRUPTIVE_FAULT_KINDS = ("crash", "zone-outage", "spot-preempt", "slowdown-start")

#: What happens to a crashed pod's in-flight requests.
FAULT_MODES = ("requeue", "lose")


@dataclass(frozen=True)
class FaultSpec:
    """One declared fault, scheduled at ``time_s`` on the virtual clock.

    ``pod`` pins the fault to one pod serial and ``zone`` to a whole
    zone (at most one of the two); an untargeted ``crash`` or
    ``slowdown`` picks a seeded-random victim among the pods in service
    when it fires. ``mode`` decides the fate of a crashed pod's
    in-flight requests: ``"requeue"`` re-offers them to the front end at
    the crash instant (a client retry — they pass admission again and
    their latency clock restarts), ``"lose"`` drops them, accounted by
    the extended conservation invariant. ``restart_delay_s`` cold-starts
    a replacement pod that many seconds after a crash; without it the
    capacity is gone for good. Slowdowns multiply the victim's
    prefill/decode step cost by ``factor`` for ``duration_s`` seconds.
    """

    kind: str
    time_s: float
    pod: int | None = None
    zone: str | None = None
    mode: str = "requeue"
    restart_delay_s: float | None = None
    duration_s: float | None = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; known: {sorted(FAULT_KINDS)}"
            )
        if self.time_s < 0:
            raise ValueError(f"fault time_s must be >= 0, got {self.time_s}")
        if self.mode not in FAULT_MODES:
            raise ValueError(
                f"unknown fault mode {self.mode!r}; known: {sorted(FAULT_MODES)}"
            )
        if self.pod is not None and self.zone is not None:
            raise ValueError("a fault targets a pod or a zone, not both")
        if self.kind == "zone-outage" and self.zone is None:
            raise ValueError("a zone-outage fault needs a zone")
        if self.kind == "crash" and self.zone is not None:
            raise ValueError("a whole-zone crash is kind 'zone-outage'")
        if self.kind == "spot-preempt":
            if self.zone is not None:
                raise ValueError(
                    "spot preemption targets cloud pods, not zones"
                )
            if self.restart_delay_s is not None:
                raise ValueError(
                    "a preempted spot instance is reclaimed by the provider; "
                    "restart_delay_s does not apply (the autoscaler re-bursts "
                    "through the capacity ledger instead)"
                )
        if self.kind == "slowdown":
            if self.duration_s is None or self.duration_s <= 0:
                raise ValueError(
                    f"a slowdown fault needs a positive duration_s, "
                    f"got {self.duration_s}"
                )
            if self.factor is None or self.factor <= 0:
                raise ValueError(
                    f"a slowdown fault needs a positive factor, got {self.factor}"
                )
            if self.restart_delay_s is not None:
                raise ValueError("restart_delay_s does not apply to slowdowns")
        else:
            if self.duration_s is not None:
                raise ValueError("duration_s only applies to slowdown faults")
            if self.factor is not None:
                raise ValueError("factor only applies to slowdown faults")
            if self.restart_delay_s is not None and self.restart_delay_s <= 0:
                raise ValueError(
                    f"restart_delay_s must be positive, got {self.restart_delay_s}"
                )


@dataclass(frozen=True)
class FaultEvent:
    """One applied fault, recorded on the run's result.

    A crash/zone-outage spec produces one event per pod actually killed
    (``requeued``/``lost`` count its in-flight requests, ``restart_s``
    the virtual time its replacement becomes routable); a slowdown
    produces a ``slowdown-start`` and ``slowdown-end`` pair per victim.
    A spec that resolved to no in-service pod is recorded once with
    ``pod=None`` so scheduled-but-ineffective faults stay visible.
    """

    time_s: float
    kind: str  # crash | zone-outage | spot-preempt | slowdown-start | slowdown-end
    pod: int | None = None
    zone: str | None = None
    requeued: int = 0
    lost: int = 0
    factor: float = 1.0
    restart_s: float | None = None

    @property
    def disruptive(self) -> bool:
        """Did this event degrade service (recovery is measured from it)?"""
        return self.kind in DISRUPTIVE_FAULT_KINDS


class FaultInjector:
    """Expands fault specs into the timeline one fleet run consumes.

    The fleet calls :meth:`begin` at run start (re-running the same
    injector replays the same schedule), then interleaves
    :attr:`next_time` / :meth:`pop` with its autoscale decisions on the
    shared clock. A slowdown spec contributes two timeline entries
    (window start and end); ties order by (start-before-end, spec
    index), so schedules are deterministic.
    """

    def __init__(self, specs: Iterable[FaultSpec], seed: int = 0) -> None:
        self.specs = list(specs)
        for spec in self.specs:
            if not isinstance(spec, FaultSpec):
                raise TypeError(f"FaultInjector needs FaultSpecs, got {spec!r}")
        self.seed = int(seed)
        self._timeline: list[tuple[float, int, int, str, FaultSpec]] = []
        self._index = 0
        self._rng = derive_rng(self.seed, "fault-injector")

    @property
    def needs_factory(self) -> bool:
        """Does any spec restart pods (requiring a fleet pod_factory)?"""
        return any(spec.restart_delay_s is not None for spec in self.specs)

    def begin(self) -> None:
        """Reset to the start of the schedule (one call per fleet run)."""
        entries = []
        for index, spec in enumerate(self.specs):
            if spec.kind == "slowdown":
                entries.append((spec.time_s, 0, index, "slow-start", spec))
                entries.append(
                    (spec.time_s + spec.duration_s, 1, index, "slow-end", spec)
                )
            else:
                entries.append((spec.time_s, 0, index, spec.kind, spec))
        entries.sort(key=lambda e: (e[0], e[1], e[2]))
        self._timeline = entries
        self._index = 0
        self._rng = derive_rng(self.seed, "fault-injector")

    @property
    def next_time(self) -> float:
        """Virtual time of the next scheduled fault (inf when exhausted)."""
        if self._index >= len(self._timeline):
            return float("inf")
        return self._timeline[self._index][0]

    def pop(self) -> tuple[float, str, int, FaultSpec]:
        """Consume the next timeline entry: (time, action, spec index, spec)."""
        time_s, _, index, action, spec = self._timeline[self._index]
        self._index += 1
        return time_s, action, index, spec

    def pick_victim(self, serials: Sequence[int]) -> int:
        """Seeded uniform choice among candidate pod serials.

        The candidates are sorted first, so the draw depends only on
        the fleet's membership (identical in production and reference runs),
        never on iteration order.
        """
        ordered = sorted(serials)
        return int(ordered[int(self._rng.integers(len(ordered)))])
