"""Chaos benchmarks: the simulator's fault layer under hard invariants.

Beyond the paper's protocol: LLM-Pilot's recommendations are only
trustworthy if the simulated fleet stays honest when pods die. Three
headline claims, each hard-asserted (smoke and full scale alike):

1. **Conservation under crashes.** Across seeds and crash modes every
   admitted request is accounted for — completed, still in flight, or
   explicitly lost — and requeued work re-enters the ledger exactly
   once.
2. **Bounded recovery after zone loss.** A threshold autoscaler facing
   a correlated zone outage re-converges: windowed p95 TTFT re-enters
   the SLO within a bounded recovery time.
3. **Admission isolates the blast radius.** When one tenant's zone
   burns, SLO-aware admission keeps the quiet neighbor's p95 within
   bound on the shared inventory.

The run writes ``BENCH_chaos.json`` (uploaded as a CI artifact) with
the measured recovery times, attainment and conservation ledgers.
"""

import json

from benchmarks.conftest import smoke, write_report
from repro.cluster import Deployment
from repro.hardware import parse_profile
from repro.models import get_llm
from repro.simulation import (
    AdmissionController,
    Autoscaler,
    AutoscaleConfig,
    ClusterInventory,
    ClusterSimulator,
    FaultInjector,
    FaultSpec,
    LeastLoadedRouter,
    PoissonTraffic,
    ThresholdPolicy,
)
from repro.utils.rng import derive_rng, spawn_seed

LLM = "Llama-2-7b"
PROFILE = "1xA10-24GB"
MAX_BATCH_WEIGHT = 12_000
DURATION_S = smoke(240.0, 40.0)
WINDOW_S = smoke(10.0, 4.0)
SLO_P95_TTFT_S = 2.0

#: Aggregated across the three tests below; each rewrites the artifact
#: so a mid-suite failure still leaves the completed sections on disk.
_REPORT: dict = {"mode": "smoke" if DURATION_S < 240.0 else "full"}


def _flush_report(results_dir):
    write_report(
        results_dir, "BENCH_chaos.json", json.dumps(_REPORT, indent=2)
    )


def _deployment(generator, seed=0, n_pods=3, n_zones=1):
    return Deployment(
        llm=get_llm(LLM),
        profile=parse_profile(PROFILE),
        n_pods=n_pods,
        max_batch_weight=MAX_BATCH_WEIGHT,
        generator=generator,
        seed=seed,
        n_zones=n_zones,
    )


def test_conservation_under_crashes(benchmark, generator, results_dir):
    """Claim 1: no request leaks through a crash, any seed, any mode."""
    seeds = range(smoke(6, 3))

    def run():
        results = []
        for seed in seeds:
            faults = FaultInjector(
                [
                    FaultSpec(
                        kind="crash",
                        time_s=DURATION_S * 0.25,
                        mode="requeue",
                        restart_delay_s=DURATION_S * 0.1,
                    ),
                    FaultSpec(
                        kind="crash", time_s=DURATION_S * 0.5, mode="lose"
                    ),
                ],
                seed=spawn_seed(seed, "bench-chaos", "conservation"),
            )
            res = _deployment(generator, seed=seed).simulate(
                PoissonTraffic(3.0, rng=derive_rng(seed, "bench-chaos")),
                duration_s=DURATION_S,
                faults=faults,
            )
            results.append((seed, res))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)

    runs = []
    for seed, res in results:
        # The ledger must balance exactly — conservation is the product.
        res.verify_conservation()
        assert res.admitted + res.shed == res.arrivals, seed
        assert (
            res.completed_total + res.in_flight_end + res.lost == res.admitted
        ), seed
        crashes = [e for e in res.fault_events if e.kind == "crash"]
        assert len(crashes) == 2, seed
        assert res.requeued == sum(e.requeued for e in crashes), seed
        assert res.lost == sum(e.lost for e in crashes), seed
        runs.append(
            {
                "seed": seed,
                "arrivals": res.arrivals,
                "admitted": res.admitted,
                "completed": res.completed_total,
                "in_flight_end": res.in_flight_end,
                "requeued": res.requeued,
                "lost": res.lost,
            }
        )
    _REPORT["conservation"] = {"n_seeds": len(runs), "runs": runs}
    _flush_report(results_dir)


def test_autoscaler_reconverges_after_zone_loss(
    benchmark, generator, results_dir
):
    """Claim 2: zone loss degrades, the autoscaler recovers in bound."""
    outage_t = DURATION_S * 0.3
    recovery_bound_s = DURATION_S * 0.5

    def run():
        faults = FaultInjector(
            [
                FaultSpec(
                    kind="zone-outage",
                    time_s=outage_t,
                    zone="zone-1",
                    mode="requeue",
                    restart_delay_s=DURATION_S * 0.15,
                )
            ],
            seed=spawn_seed(0, "bench-chaos", "zone-loss"),
        )
        autoscaler = Autoscaler(
            ThresholdPolicy(slo_p95_ttft_s=SLO_P95_TTFT_S),
            AutoscaleConfig(
                decision_interval_s=smoke(10.0, 4.0),
                max_pods=9,
                cold_start_s=smoke(5.0, 2.0),
                metrics_window_s=smoke(20.0, 8.0),
            ),
        )
        return _deployment(generator, n_pods=6, n_zones=3).simulate(
            PoissonTraffic(3.0, rng=derive_rng(0, "bench-chaos-zone")),
            duration_s=DURATION_S,
            faults=faults,
            autoscaler=autoscaler,
        )

    res = benchmark.pedantic(run, rounds=1, iterations=1)

    res.verify_conservation()
    # Every pod the outage killed was in zone-1; how many there were
    # depends on where the autoscaler had taken the fleet by then.
    outages = [e for e in res.fault_events if e.kind == "zone-outage"]
    assert outages, [e.kind for e in res.fault_events]
    assert {e.zone for e in outages} == {"zone-1"}
    assert res.lost == 0  # requeue mode: degraded, never lossy
    recovery = res.recovery_time_s(SLO_P95_TTFT_S, window_s=WINDOW_S)
    # The autoscaler must actually re-converge, and within bound.
    assert recovery is not None
    assert recovery <= recovery_bound_s, recovery
    attainment = res.degraded_slo_attainment(SLO_P95_TTFT_S, window_s=WINDOW_S)
    assert attainment is not None and 0.0 <= attainment <= 1.0
    _REPORT["zone_loss"] = {
        "outage_time_s": outage_t,
        "pods_killed": len(outages),
        "requeued": res.requeued,
        "recovery_time_s": recovery,
        "recovery_bound_s": recovery_bound_s,
        "degraded_slo_attainment": attainment,
    }
    _flush_report(results_dir)


def test_admission_shields_quiet_tenant_from_zone_burn(
    benchmark, generator, results_dir
):
    """Claim 3: a neighbor's zone outage stays inside its blast radius."""
    burn_t = DURATION_S * 0.3
    quiet_bound_s = SLO_P95_TTFT_S

    def run():
        deployment = _deployment(generator, n_pods=2, n_zones=2)
        quiet = deployment.tenant_group(
            "quiet",
            PoissonTraffic(1.0, rng=derive_rng(0, "bench-chaos", "quiet")),
            router=AdmissionController(
                LeastLoadedRouter(),
                slo_p95_ttft_s=SLO_P95_TTFT_S,
                window_s=smoke(20.0, 8.0),
                mode="shed",
            ),
            slo_p95_ttft_s=SLO_P95_TTFT_S,
        )
        noisy = deployment.tenant_group(
            "noisy",
            PoissonTraffic(4.0, rng=derive_rng(0, "bench-chaos", "noisy")),
            autoscaler=Autoscaler(
                ThresholdPolicy(slo_p95_ttft_s=SLO_P95_TTFT_S),
                AutoscaleConfig(
                    decision_interval_s=smoke(10.0, 4.0),
                    max_pods=4,
                    cold_start_s=smoke(5.0, 2.0),
                    metrics_window_s=smoke(20.0, 8.0),
                ),
            ),
            slo_p95_ttft_s=SLO_P95_TTFT_S,
            faults=FaultInjector(
                [
                    FaultSpec(
                        kind="zone-outage",
                        time_s=burn_t,
                        zone="zone-0",
                        mode="requeue",
                        restart_delay_s=DURATION_S * 0.2,
                    )
                ],
                seed=spawn_seed(0, "bench-chaos", "burn"),
            ),
        )
        gpu = parse_profile(PROFILE).gpu.name
        inventory = ClusterInventory(capacity={gpu: 6})
        # The noisy tenant's recovery time is read from its samples.
        return ClusterSimulator([quiet, noisy], inventory).run(
            DURATION_S, keep_samples=True
        )

    res = benchmark.pedantic(run, rounds=1, iterations=1)

    res.verify_conservation()
    quiet_res = res.results["quiet"]
    noisy_res = res.results["noisy"]
    # The outage hit the noisy tenant and only the noisy tenant.
    assert {t for t, _ in res.fault_events()} == {"noisy"}
    assert noisy_res.requeued > 0
    assert quiet_res.lost == 0 and quiet_res.requeued == 0
    assert not quiet_res.fault_events
    # Admission keeps the quiet tenant's served tail within bound while
    # the neighbor's zone burns on the shared inventory.
    assert quiet_res.ttft.p95_s <= quiet_bound_s, quiet_res.ttft.p95_s
    noisy_recovery = res.recovery_time_s("noisy", window_s=WINDOW_S)
    _REPORT["noisy_zone_burn"] = {
        "burn_time_s": burn_t,
        "quiet_p95_ttft_s": quiet_res.ttft.p95_s,
        "quiet_bound_s": quiet_bound_s,
        "quiet_shed": quiet_res.shed,
        "noisy_requeued": noisy_res.requeued,
        "noisy_recovery_time_s": noisy_recovery,
    }
    _flush_report(results_dir)
