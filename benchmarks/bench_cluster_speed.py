"""Cluster/sweep fast-path speed gate: heap cluster frontier + cached arrivals.

PR 6's fast core made a *single fleet* fast; the cluster loop above it
still paid three O(tenants) scans per simulated event, and the elastic
sweep regenerated its seeded arrival stream per candidate. This gate
enforces both halves of the cluster-scale fast path's contract, exactly
as ``bench_core_speed.py`` does for the fleet core:

1. the heap-driven cluster loop (:class:`ClusterSimulator`) is
   *bit-identical* to the O(tenants)-scan loop of
   :class:`ReferenceClusterSimulator` — per-tenant results, per-pod
   outcomes, requests drawn, latency distributions, and the inventory
   event stream — on a many-tenant contended cluster, with and without
   a chaos/fault schedule (same-instant fault collisions included);
2. the fast loop clears a hard wall-clock speedup over the oracle plus
   an events/sec floor (both fleets run the PR 6 fast core, so the
   ratio isolates the cluster loop itself);
3. the recorded-arrival recommender sweep is byte-identical to a
   sweep that calls ``traffic_factory`` afresh per candidate, clears a
   candidates/sec floor, and every cost-lower-bound prune is logged
   and reported — no silently dropped candidates.

Timings use min-of-N interleaved repeats so a background hiccup on the
CI machine hits both paths equally, and each timed run has garbage
collection quiesced: one gen-2 collection costs 45-90 ms on a 2-core
runner, as long as a whole smoke-mode run, so a collection landing in
one path's window would decide the ratio on its own. The speedup widens
with tenant count (the oracle's scans are O(tenants) per event), so the
gate runs a deliberately wide cluster, in smoke mode too: at 16 tenants
the smoke ratio is near 1.3x, close enough to the 1.1x floor for host
noise to cross it, while at 32 tenants it is near 1.7x. Smoke mode
keeps every bit-identity and accounting assertion at full strength and
only relaxes the timing floors — a 2-core CI runner proves correctness,
not throughput.

Emits ``BENCH_cluster_speed.json`` with the measured rates and config.
"""

import gc
import json
import os
import time

from benchmarks.conftest import BENCH_SEED, smoke
from repro.cluster import Deployment
from repro.hardware import aws_like_pricing, parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import get_llm
from repro.recommendation import (
    CostObjective,
    ElasticCandidate,
    ElasticRecommender,
    LinearSLOPenalty,
)
from repro.simulation import (
    Autoscaler,
    AutoscaleConfig,
    ClusterInventory,
    ClusterSimulator,
    FaultInjector,
    FaultSpec,
    FleetSimulator,
    LeastLoadedRouter,
    PoissonTraffic,
    RequestSource,
    TenantGroup,
    ThresholdPolicy,
)
from repro.simulation.reference import ReferenceClusterSimulator
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-40GB")
WEIGHT = 20_000

TENANTS = smoke(96, 32)
DURATION_S = smoke(45.0, 20.0)
CHAOS_TENANTS = smoke(32, 8)
CHAOS_DURATION_S = smoke(30.0, 15.0)
REPEATS = 2

SWEEP_DURATION_S = smoke(45.0, 15.0)
SWEEP_RATE = 8.0
SWEEP_SLO_S = 30.0

#: Hard floors. Full scale measured 4.05x and 282k events/s on a shared
#: 2-core VM (the oracle pays ~3 O(tenants) scans per event, so the
#: ratio grows with the tenant count); the gates leave headroom for
#: slower hardware while still catching an accidental return to the
#: linear scans. Smoke floors only prove the fast path is not
#: pathologically slower than the oracle.
MIN_SPEEDUP = smoke(3.0, 1.1)
MIN_EVENTS_PER_S = smoke(12_000.0, 2_000.0)
MIN_CANDIDATES_PER_S = smoke(8.0, 1.0)

#: Per-tenant FleetResult fields that must match exactly.
EXACT_FIELDS = (
    "time_s", "arrivals", "requests_completed", "tokens_generated",
    "throughput_tokens_per_s", "admitted", "shed", "deferrals",
    "completed_total", "in_flight_end", "pod_seconds", "lost", "requeued",
)


def _build_cluster(generator, fast_cluster, tenants, with_faults=False):
    """A contended many-tenant cluster; only the cluster loop varies.

    Every tenant runs the PR 6 fast fleet core in both modes — the gate
    measures the cluster loop, not the engine. Capacity covers 1.5 pods
    per tenant against per-tenant autoscaler caps of 3, so scale-ups
    contend for the inventory and grants/denials interleave tenants.
    """
    groups = []
    for i in range(tenants):
        name = f"tenant-{i:02d}"

        def factory(serial, i=i):
            return ContinuousBatchingEngine(
                LLM, PROFILE, max_batch_weight=WEIGHT,
                seed=spawn_seed(BENCH_SEED, "pod", i, serial),
            )

        faults = None
        if with_faults and i % 5 == 0:
            # Same-instant collisions across tenants (every faulted
            # tenant crashes at t/3) and within one tenant (tenant 0
            # double-crashes) — the tie-break cases the cluster
            # frontier's heap keys must replicate bit-for-bit.
            specs = [
                FaultSpec(
                    kind="crash", time_s=CHAOS_DURATION_S / 3.0,
                    restart_delay_s=5.0,
                )
            ]
            if i == 0:
                specs.append(
                    FaultSpec(
                        kind="crash", time_s=CHAOS_DURATION_S / 3.0,
                        restart_delay_s=5.0,
                    )
                )
            else:
                specs.append(
                    FaultSpec(
                        kind="slowdown",
                        time_s=CHAOS_DURATION_S / 2.0,
                        duration_s=CHAOS_DURATION_S / 4.0,
                        factor=2.5,
                    )
                )
            faults = FaultInjector(specs, seed=BENCH_SEED + i)
        source = RequestSource(
            generator, derive_rng(BENCH_SEED, "bench-cluster", name), WEIGHT
        )
        fleet = FleetSimulator(
            [factory(0)],
            PoissonTraffic(
                2.0 + 0.25 * (i % 8),
                rng=derive_rng(BENCH_SEED, "bench-traffic", name),
            ),
            LeastLoadedRouter(),
            source,
            autoscaler=Autoscaler(
                ThresholdPolicy(slo_p95_ttft_s=1.0),
                AutoscaleConfig(
                    decision_interval_s=10.0, max_pods=3,
                    cold_start_s=5.0, metrics_window_s=20.0,
                ),
            ),
            pod_factory=factory,
            faults=faults,
        )
        groups.append(TenantGroup(name, fleet, PROFILE.name))
    inventory = ClusterInventory(
        capacity={PROFILE.gpu.name: tenants + tenants // 2}
    )
    cluster_type = ClusterSimulator if fast_cluster else ReferenceClusterSimulator
    return cluster_type(groups, inventory)


def _assert_cluster_parity(fast, oracle, fast_drawn, oracle_drawn, context):
    """Two cluster runs agree, down to each tenant's per-pod outcomes
    and the requests its source drew (see :func:`_drawn`)."""
    assert fast.tenants == oracle.tenants, context
    assert fast.sim_events == oracle.sim_events, context
    assert fast.end_provisioned == oracle.end_provisioned, context
    for name in fast.tenants:
        mine, ref = fast.results[name], oracle.results[name]
        for field in EXACT_FIELDS:
            fast_value = getattr(mine, field)
            oracle_value = getattr(ref, field)
            assert fast_value == oracle_value, (
                f"{context}: cluster fast path diverged from oracle on "
                f"{name}.{field}: {fast_value!r} != {oracle_value!r}"
            )
        for dist in ("ttft", "itl", "e2e"):
            assert getattr(mine, dist) == getattr(ref, dist), (
                f"{context}: {name} diverged on the {dist} distribution"
            )
        assert mine.scale_events == ref.scale_events, context
        assert mine.fault_events == ref.fault_events, context
        # repr compares every float bit for bit and lets the NaN latency
        # stats of a pod that served nothing match.
        assert repr(mine.per_pod) == repr(ref.per_pod), (
            f"{context}: {name} diverged on the per-pod outcomes"
        )
        assert fast_drawn[name] == oracle_drawn[name], (
            f"{context}: {name} drew {fast_drawn[name]} requests, "
            f"oracle {oracle_drawn[name]}"
        )
    assert [
        (e.time_s, e.gpu, e.delta, e.tenant, e.reason) for e in fast.events
    ] == [
        (e.time_s, e.gpu, e.delta, e.tenant, e.reason) for e in oracle.events
    ], f"{context}: inventory event streams diverged"


class _FreshArrivals(ElasticRecommender):
    """Regenerates the arrival stream per candidate (the byte-identity
    baseline for the recorded stream)."""

    def _traffic(self):
        return self.traffic_factory()


def _recommender(generator, fresh=False):
    deployment = Deployment(
        llm=LLM, profile=PROFILE, n_pods=1, max_batch_weight=WEIGHT,
        generator=generator, seed=BENCH_SEED,
    )
    recommender_type = _FreshArrivals if fresh else ElasticRecommender
    return recommender_type(
        deployment,
        lambda: PoissonTraffic(
            SWEEP_RATE, rng=derive_rng(BENCH_SEED, "bench-sweep")
        ),
        CostObjective(
            aws_like_pricing(),
            LinearSLOPenalty(SWEEP_SLO_S, penalty_per_hour=100.0),
        ),
        slo_p95_ttft_s=SWEEP_SLO_S,
        duration_s=SWEEP_DURATION_S,
        decision_interval_s=10.0,
        cold_start_s=5.0,
        metrics_window_s=20.0,
    )


def _sweep_candidates():
    rungs = [ElasticCandidate("static", n, n) for n in (1, 2, 3, 4)]
    adaptive = [
        ElasticCandidate(
            "threshold", 1, cap,
            (lambda slo: lambda: ThresholdPolicy(slo_p95_ttft_s=slo))(0.5 * cap),
        )
        for cap in (3, 4, 5, 6)
    ]
    return rungs + adaptive


def _drawn(sim):
    """Requests each tenant's source drew, by tenant name."""
    return {group.name: group.fleet.source.drawn for group in sim.tenants}


def _timed_run(sim, duration_s):
    """``sim.run(duration_s)``, its wall time and the requests each
    tenant drew, with no collection inside the timed run."""
    gc.collect()
    gc.disable()
    try:
        t0 = time.perf_counter()
        result = sim.run(duration_s=duration_s)
        wall = time.perf_counter() - t0
    finally:
        gc.enable()
    return result, wall, _drawn(sim)


def test_cluster_speed_gate(generator, results_dir, caplog):
    # --- many-tenant contended cluster: speed + parity ----------------------
    wall_fast = wall_oracle = float("inf")
    res_fast = res_oracle = None
    for _ in range(REPEATS):
        sim = _build_cluster(generator, True, TENANTS)
        res_fast, wall, drawn_fast = _timed_run(sim, DURATION_S)
        wall_fast = min(wall_fast, wall)
        sim = _build_cluster(generator, False, TENANTS)
        res_oracle, wall, drawn_oracle = _timed_run(sim, DURATION_S)
        wall_oracle = min(wall_oracle, wall)
    _assert_cluster_parity(
        res_fast, res_oracle, drawn_fast, drawn_oracle, "contended"
    )
    res_fast.verify_conservation()

    speedup = wall_oracle / wall_fast
    events_per_s = res_fast.sim_events / wall_fast
    assert res_fast.sim_events > 0
    assert speedup >= MIN_SPEEDUP, (
        f"cluster fast path speedup {speedup:.2f}x < floor "
        f"{MIN_SPEEDUP:.1f}x over {TENANTS} tenants "
        f"(fast {wall_fast:.3f}s vs oracle {wall_oracle:.3f}s)"
    )
    assert events_per_s >= MIN_EVENTS_PER_S, (
        f"cluster fast path too slow: {events_per_s:,.0f} events/s "
        f"< floor {MIN_EVENTS_PER_S:,.0f}"
    )

    # --- chaos variant: parity only, full strength in every mode ------------
    chaos_fast, _, chaos_drawn_fast = _timed_run(
        _build_cluster(generator, True, CHAOS_TENANTS, with_faults=True),
        CHAOS_DURATION_S,
    )
    chaos_oracle, _, chaos_drawn_oracle = _timed_run(
        _build_cluster(generator, False, CHAOS_TENANTS, with_faults=True),
        CHAOS_DURATION_S,
    )
    _assert_cluster_parity(
        chaos_fast, chaos_oracle, chaos_drawn_fast, chaos_drawn_oracle, "chaos"
    )
    assert any(
        chaos_fast.results[name].fault_events for name in chaos_fast.tenants
    ), "chaos schedule never fired — the parity check proved nothing"

    # --- cached-arrival sweep: byte identity + throughput floor -------------
    candidates = _sweep_candidates()
    cached_recommender = _recommender(generator)
    t0 = time.perf_counter()
    cached_points = cached_recommender.evaluate_many(candidates)
    wall_sweep = time.perf_counter() - t0
    fresh_points = _recommender(generator, fresh=True).evaluate_many(
        candidates
    )
    cached_json = json.dumps(
        [p.as_dict() for p in cached_points], sort_keys=True
    )
    fresh_json = json.dumps(
        [p.as_dict() for p in fresh_points], sort_keys=True
    )
    assert cached_json == fresh_json, (
        "cached-arrival sweep is not byte-identical to the "
        "traffic_factory-fresh sweep"
    )
    candidates_per_s = len(candidates) / wall_sweep
    assert candidates_per_s >= MIN_CANDIDATES_PER_S, (
        f"cached sweep too slow: {candidates_per_s:.2f} candidates/s "
        f"< floor {MIN_CANDIDATES_PER_S:.1f}"
    )

    # --- pruning: every skipped candidate is logged and reported ------------
    # Prune against a static[1] incumbent: min_pods=1 adaptives survive
    # (their floor ties the incumbent's bill), the min_pods=40 candidate
    # is provably dominated and must be skipped, logged, and reported.
    dominated = ElasticCandidate(
        "threshold", 40, 48, lambda: ThresholdPolicy(slo_p95_ttft_s=1.0)
    )
    prune_candidates = [c for c in candidates if c.min_pods == 1] + [dominated]
    with caplog.at_level("INFO", logger="repro.recommendation.elastic"):
        rec = _recommender(generator).recommend(
            candidates=prune_candidates, static_pods=1, prune=True
        )
    assert rec.static.meets_slo, "prune gate needs an SLO-meeting incumbent"
    assert [p.label for p in rec.pruned] == [dominated.label]
    prune_logs = [
        r for r in caplog.records if r.message.startswith("pruned candidate")
    ]
    assert len(prune_logs) == len(rec.pruned), "a prune went unlogged"
    # Accounting: ladder + evaluated + pruned covers every candidate.
    assert len(rec.curve) + len(rec.pruned) == 1 + len(prune_candidates)

    payload = {
        "config": {
            "llm": LLM.name,
            "profile": PROFILE.name,
            "tenants": TENANTS,
            "chaos_tenants": CHAOS_TENANTS,
            "duration_s": DURATION_S,
            "chaos_duration_s": CHAOS_DURATION_S,
            "repeats": REPEATS,
            "sweep_candidates": len(candidates),
            "sweep_duration_s": SWEEP_DURATION_S,
            "seed": BENCH_SEED,
            "smoke": smoke(False, True),
        },
        "cluster": {
            "sim_events": res_fast.sim_events,
            "wall_fast_s": wall_fast,
            "wall_oracle_s": wall_oracle,
            "speedup": speedup,
            "events_per_second": events_per_s,
            "bit_identical": True,
            "chaos_bit_identical": True,
        },
        "sweep": {
            "wall_cached_s": wall_sweep,
            "candidates_per_second": candidates_per_s,
            "cached_byte_identical": True,
            "pruned": [p.as_dict() for p in rec.pruned],
        },
        "floors": {
            "speedup": MIN_SPEEDUP,
            "events_per_second": MIN_EVENTS_PER_S,
            "candidates_per_second": MIN_CANDIDATES_PER_S,
        },
    }
    path = os.path.join(results_dir, "BENCH_cluster_speed.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"\ncluster fast: {wall_fast:.3f}s ({events_per_s:,.0f} events/s)  "
        f"oracle: {wall_oracle:.3f}s  speedup: {speedup:.2f}x  "
        f"sweep: {candidates_per_s:.1f} cands/s"
        f"\n[report written to {path}]"
    )
