"""The fault-injection layer: specs, injector determinism, degraded-mode
simulation and recovery metrics.

The central contracts:

* the same seed produces the same fault schedule — on the production
  core, the reference simulator, and inside a cluster co-simulation;
* conservation survives chaos: every admitted request completes, stays
  in flight, or is explicitly counted lost;
* a chaos scenario is golden-pinned so fault semantics cannot drift
  silently.
"""

import math

import pytest

from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import get_llm
from repro.simulation import (
    FaultEvent,
    FaultInjector,
    FaultSpec,
    FleetSimulator,
    LeastLoadedRouter,
    PoissonTraffic,
    RequestSource,
)
from repro.simulation.reference import ReferenceFleetSimulator
from repro.simulation.scenario import ScenarioSpec
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-80GB")
WEIGHT = 20_000


def _fleet(generator, seed=0, n_pods=3, rate=4.0, faults=None, fast=True,
           n_zones=1, label="faults"):
    def factory(serial):
        return ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=WEIGHT,
            seed=spawn_seed(seed, "pod", serial),
        )

    source = RequestSource(
        generator, derive_rng(seed, "fault-source", label), WEIGHT
    )
    fleet_type = FleetSimulator if fast else ReferenceFleetSimulator
    return fleet_type(
        [factory(i) for i in range(n_pods)],
        PoissonTraffic(rate, rng=derive_rng(seed, "fault-traffic", label)),
        LeastLoadedRouter(),
        source,
        pod_factory=factory,
        faults=faults,
        zone_of=(lambda serial: f"zone-{serial % n_zones}"),
    )


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="meteor", time_s=1.0)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown fault mode"):
            FaultSpec(kind="crash", time_s=1.0, mode="retry")

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="time_s"):
            FaultSpec(kind="crash", time_s=-1.0)

    def test_pod_and_zone_exclusive(self):
        with pytest.raises(ValueError, match="not both"):
            FaultSpec(kind="slowdown", time_s=1.0, pod=0, zone="zone-0",
                      duration_s=1.0, factor=2.0)

    def test_whole_zone_crash_is_zone_outage(self):
        with pytest.raises(ValueError, match="zone-outage"):
            FaultSpec(kind="crash", time_s=1.0, zone="zone-0")

    def test_zone_outage_needs_zone(self):
        with pytest.raises(ValueError, match="zone"):
            FaultSpec(kind="zone-outage", time_s=1.0)

    def test_slowdown_needs_duration_and_factor(self):
        with pytest.raises(ValueError, match="duration_s"):
            FaultSpec(kind="slowdown", time_s=1.0, factor=2.0)
        with pytest.raises(ValueError, match="factor"):
            FaultSpec(kind="slowdown", time_s=1.0, duration_s=5.0)

    def test_crash_rejects_slowdown_knobs(self):
        with pytest.raises(ValueError, match="slowdown"):
            FaultSpec(kind="crash", time_s=1.0, duration_s=5.0)

    def test_spot_preempt_rejects_zone_targeting(self):
        with pytest.raises(ValueError, match="cloud pods, not zones"):
            FaultSpec(kind="spot-preempt", time_s=5.0, zone="zone-0")

    def test_spot_preempt_rejects_restart_delay(self):
        with pytest.raises(ValueError, match="reclaimed by the provider"):
            FaultSpec(kind="spot-preempt", time_s=5.0, restart_delay_s=3.0)

    def test_restart_delay_must_be_positive(self):
        with pytest.raises(ValueError, match="restart_delay_s"):
            FaultSpec(kind="crash", time_s=1.0, restart_delay_s=0.0)


class TestFaultInjector:
    def test_schedule_sorted_with_slowdown_expansion(self):
        injector = FaultInjector(
            [
                FaultSpec(kind="crash", time_s=8.0),
                FaultSpec(kind="slowdown", time_s=2.0, duration_s=10.0,
                          factor=3.0),
            ],
            seed=1,
        )
        injector.begin()
        times = []
        actions = []
        while math.isfinite(injector.next_time):
            t, action, _, _ = injector.pop()
            times.append(t)
            actions.append(action)
        assert times == [2.0, 8.0, 12.0]
        assert actions == ["slow-start", "crash", "slow-end"]

    def test_victim_draws_deterministic_across_begins(self):
        injector = FaultInjector([FaultSpec(kind="crash", time_s=1.0)], seed=7)
        injector.begin()
        first = [injector.pick_victim({3, 1, 4}) for _ in range(5)]
        injector.begin()  # re-arm: the stream must restart identically
        assert [injector.pick_victim({3, 1, 4}) for _ in range(5)] == first
        assert all(v in {1, 3, 4} for v in first)

    def test_specs_must_be_fault_specs(self):
        with pytest.raises(TypeError, match="FaultSpec"):
            FaultInjector([{"kind": "crash", "time_s": 1.0}], seed=0)


class TestFaultedFleet:
    def test_fast_and_oracle_same_fault_schedule(self, generator):
        def run(fast):
            faults = FaultInjector(
                [
                    FaultSpec(kind="crash", time_s=6.0, restart_delay_s=4.0),
                    FaultSpec(kind="slowdown", time_s=10.0, duration_s=5.0,
                              factor=4.0),
                    FaultSpec(kind="crash", time_s=18.0, mode="lose"),
                ],
                seed=3,
            )
            return _fleet(generator, seed=2, faults=faults, fast=fast).run(
                duration_s=30.0, keep_samples=False
            )

        fast, oracle = run(True), run(False)
        assert fast.fault_events == oracle.fault_events
        assert fast.requeued == oracle.requeued
        assert fast.lost == oracle.lost
        assert fast.requests_completed == oracle.requests_completed
        assert fast.tokens_generated == oracle.tokens_generated
        assert fast.ttft.p95_s == oracle.ttft.p95_s
        assert fast.pod_seconds == oracle.pod_seconds

    def test_crash_requeue_conserves_requests(self, generator):
        faults = FaultInjector(
            [FaultSpec(kind="crash", time_s=5.0, restart_delay_s=3.0)], seed=0
        )
        res = _fleet(generator, faults=faults).run(
            duration_s=25.0, keep_samples=False
        )
        res.verify_conservation()
        assert res.lost == 0
        assert res.requeued > 0
        assert any(e.kind == "crash" for e in res.fault_events)

    def test_crash_lose_counts_lost(self, generator):
        faults = FaultInjector(
            [FaultSpec(kind="crash", time_s=5.0, mode="lose")], seed=0
        )
        res = _fleet(generator, rate=6.0, faults=faults).run(
            duration_s=25.0, keep_samples=False
        )
        res.verify_conservation()
        assert res.requeued == 0
        (crash,) = [e for e in res.fault_events if e.kind == "crash"]
        assert res.lost == crash.lost
        assert res.completed_total + res.in_flight_end + res.lost == res.admitted

    def test_crashed_pod_without_restart_stays_dead(self, generator):
        faults = FaultInjector([FaultSpec(kind="crash", time_s=5.0)], seed=0)
        fleet = _fleet(generator, n_pods=2, faults=faults)
        res = fleet.run(duration_s=20.0, keep_samples=False)
        res.verify_conservation()
        assert res.n_pods == 1
        assert [p.state for p in res.per_pod].count("crashed") == 1

    def test_restart_replacement_inherits_zone(self, generator):
        faults = FaultInjector(
            [FaultSpec(kind="crash", time_s=5.0, restart_delay_s=2.0)], seed=0
        )
        res = _fleet(generator, n_pods=4, n_zones=2, faults=faults).run(
            duration_s=25.0, keep_samples=False
        )
        res.verify_conservation()
        (crash,) = [e for e in res.fault_events if e.kind == "crash"]
        crashed = next(p for p in res.per_pod if p.state == "crashed")
        replacement = res.per_pod[-1]
        assert crashed.pod == crash.pod
        assert replacement.zone == crashed.zone
        assert res.n_pods == 4

    def test_zone_outage_kills_exactly_the_zone(self, generator):
        faults = FaultInjector(
            [FaultSpec(kind="zone-outage", time_s=5.0, zone="zone-1")], seed=0
        )
        res = _fleet(generator, n_pods=4, n_zones=2, faults=faults).run(
            duration_s=20.0, keep_samples=False
        )
        res.verify_conservation()
        outages = [e for e in res.fault_events if e.kind == "zone-outage"]
        assert {e.pod % 2 for e in outages} == {1}
        crashed = [p for p in res.per_pod if p.state == "crashed"]
        assert {p.zone for p in crashed} == {"zone-1"}
        assert len(crashed) == 2
        assert res.n_pods == 2

    def test_slowdown_degrades_then_recovers(self, generator):
        def run(faults):
            return _fleet(generator, rate=3.0, faults=faults).run(
                duration_s=40.0, keep_samples=True
            )

        slow = run(
            FaultInjector(
                [FaultSpec(kind="slowdown", time_s=10.0, duration_s=15.0,
                           factor=20.0)],
                seed=0,
            )
        )
        clean = run(None)
        slow.verify_conservation()
        # An untargeted slowdown hits one seeded victim pod.
        kinds = [e.kind for e in slow.fault_events]
        assert kinds == ["slowdown-start", "slowdown-end"]
        assert slow.ttft.p95_s > clean.ttft.p95_s
        # The multiplier is restored: every surviving engine decodes at
        # factor 1.0 again after the window.
        starts, tails = slow.ttft_p95_series(window_s=10.0)
        degraded = tails[(starts >= 10.0) & (starts < 25.0)].max()
        recovered = tails[starts >= 30.0]
        assert recovered.size and recovered.max() < degraded

    def test_slowdown_affects_latency_not_conservation(self, generator):
        faults = FaultInjector(
            [FaultSpec(kind="slowdown", time_s=5.0, duration_s=10.0,
                       factor=8.0)],
            seed=0,
        )
        res = _fleet(generator, faults=faults).run(
            duration_s=30.0, keep_samples=False
        )
        res.verify_conservation()
        assert res.lost == 0 and res.requeued == 0


class TestRecoveryMetrics:
    def test_no_disruption_means_no_recovery_metric(self, generator):
        res = _fleet(generator).run(duration_s=15.0, keep_samples=True)
        assert res.recovery_time_s(slo_p95_ttft_s=1.0) is None
        assert res.to_dict(slo_p95_ttft_s=1.0).get("recovery") is None

    def test_recovery_needs_samples(self, generator):
        faults = FaultInjector([FaultSpec(kind="crash", time_s=2.0)], seed=0)
        res = _fleet(generator, faults=faults).run(
            duration_s=15.0, keep_samples=False
        )
        with pytest.raises(ValueError, match="keep_samples"):
            res.recovery_time_s(slo_p95_ttft_s=1.0)

    def test_degraded_attainment_needs_samples(self, generator):
        # Silent None here would read as "no degraded windows" — the
        # dropped-samples condition must name the fix instead.
        faults = FaultInjector([FaultSpec(kind="crash", time_s=2.0)], seed=0)
        res = _fleet(generator, faults=faults).run(
            duration_s=15.0, keep_samples=False
        )
        with pytest.raises(ValueError, match="keep_samples=True"):
            res.degraded_slo_attainment(slo_p95_ttft_s=1.0)

    def test_recovery_and_degraded_attainment(self, generator):
        faults = FaultInjector(
            [FaultSpec(kind="crash", time_s=10.0, restart_delay_s=5.0)], seed=0
        )
        res = _fleet(generator, faults=faults).run(
            duration_s=60.0, keep_samples=True
        )
        # Against a generous SLO the fleet recovers in bounded time and
        # most degraded-era windows still attain it.
        recovery = res.recovery_time_s(slo_p95_ttft_s=10.0)
        assert recovery is not None and math.isfinite(recovery)
        assert recovery <= 50.0
        attainment = res.degraded_slo_attainment(slo_p95_ttft_s=10.0)
        assert 0.0 <= attainment <= 1.0
        payload = res.to_dict(slo_p95_ttft_s=10.0)
        assert payload["recovery"]["recovery_time_s"] == recovery
        # An unattainable SLO is never re-entered.
        assert res.recovery_time_s(slo_p95_ttft_s=0.0) == float("inf")


CHAOS_SCENARIO = {
    "name": "chaos-pin",
    "seed": 7,
    "duration_s": 30.0,
    "llm": "Llama-2-7b",
    "profile": "1xA10-24GB",
    "pods": 3,
    "workload": {"requests": 4000},
    "traffic": {"kind": "poisson", "rate_per_s": 3.0},
    "faults": {
        "seed": 7,
        "zones": 3,
        "events": [
            {"kind": "crash", "time_s": 8.0, "restart_delay_s": 5.0},
            {"kind": "slowdown", "time_s": 14.0, "duration_s": 6.0,
             "factor": 5.0},
            {"kind": "zone-outage", "time_s": 20.0, "zone": "zone-2",
             "mode": "lose"},
        ],
    },
}


class TestChaosGoldenPin:
    """Seeded chaos runs are bit-stable: semantic drift in the fault
    layer shows up here as a changed pin, not as silent corruption."""

    def test_fault_schedule_is_reproducible(self):
        spec = ScenarioSpec.from_dict(CHAOS_SCENARIO)
        a = spec.run(keep_samples=False)
        b = spec.run(keep_samples=False)
        a.verify_conservation()
        assert a.fault_events == b.fault_events
        assert (a.arrivals, a.requeued, a.lost, a.tokens_generated) == (
            b.arrivals, b.requeued, b.lost, b.tokens_generated
        )

    def test_chaos_pin(self):
        res = ScenarioSpec.from_dict(CHAOS_SCENARIO).run(keep_samples=False)
        res.verify_conservation()
        events = [
            (e.time_s, e.kind, e.pod, e.zone) for e in res.fault_events
        ]
        # Pod 2 (zone-2) crashes and requeues its work; its replacement
        # (serial 3) inherits zone-2 and is exactly what the zone-outage
        # then destroys, losing the in-flight batch.
        assert events == [
            (8.0, "crash", 2, "zone-2"),
            (14.0, "slowdown-start", 0, "zone-0"),
            (20.0, "zone-outage", 3, "zone-2"),
            (20.0, "slowdown-end", 0, "zone-0"),
        ]
        assert isinstance(res.fault_events[0], FaultEvent)
        assert res.requeued == 7
        assert res.lost == 18
        assert (res.arrivals, res.requests_completed) == (102, 45)
        assert res.n_pods == 2
