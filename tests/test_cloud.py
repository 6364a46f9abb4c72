"""The hybrid cloud-bursting capacity tier.

The central contracts:

* burst decisions live in the shared acquire/release closures, so the
  fast and oracle cluster loops stay bit-identical with the cloud tier
  active, and a 1-tenant cluster whose burst never fires IS the
  standalone fleet;
* spot preemptions flow through the ordinary fault path, hit only
  rented pods (including draining ones), and conservation holds;
* billing is per tier: on-prem pod-seconds at c(G), cloud pod-seconds
  at the catalog's per-mode price, and runs that never burst bill
  exactly as before the tier existed.
"""

import dataclasses

import pytest

from repro.cluster import Deployment
from repro.hardware import (
    CloudCatalog,
    CloudInstanceType,
    aws_like_cloud_catalog,
    aws_like_pricing,
    parse_profile,
)
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
    AutoscalePolicy,
    BurstPolicy,
    CloudLedger,
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
    bind_hybrid_capacity,
    load_by_name,
    spot_preemption_specs,
)
from repro.simulation.reference import ReferenceClusterSimulator, run_scenario
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-80GB")
GPU = PROFILE.gpu.name
WEIGHT = 20_000


def _factory(seed):
    def make(serial):
        return ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=WEIGHT, seed=spawn_seed(seed, "pod", serial)
        )

    return make


def _scaler(max_pods=6, interval=10.0):
    return Autoscaler(
        ThresholdPolicy(slo_p95_ttft_s=1.0),
        AutoscaleConfig(
            decision_interval_s=interval,
            max_pods=max_pods,
            cold_start_s=5.0,
            metrics_window_s=20.0,
        ),
    )


def _fleet(generator, name, rate, seed, autoscaler=None, n_pods=1, faults=None):
    factory = _factory(seed)
    source = RequestSource(generator, derive_rng(seed, "cloud-test", name), WEIGHT)
    return FleetSimulator(
        [factory(i) for i in range(n_pods)],
        PoissonTraffic(rate, rng=derive_rng(seed, "cloud-traffic", name)),
        LeastLoadedRouter(),
        source,
        autoscaler=autoscaler,
        pod_factory=factory,
        faults=faults,
    )


def _bind_hybrid(fleet, on_prem_pods, policy):
    """Seat ``fleet`` on a private owned tier of ``on_prem_pods`` pods.

    Overflow rents from a fresh ledger, through the binder cluster
    tenants use; returns the ledger.
    """
    owned = ClusterInventory(capacity={GPU: on_prem_pods * PROFILE.count})
    owned.allocate(PROFILE.name, len(fleet.pods))
    ledger = CloudLedger(aws_like_cloud_catalog(), seed=0)
    bind_hybrid_capacity(fleet, "fleet", PROFILE.name, owned, ledger, policy)
    return ledger


def _burst_cluster(generator, *, capacity=2, cloud=None, burst=None, fast=True,
                   duration=90.0, rate=8.0):
    """One noisy tenant whose asks exceed a small owned inventory."""
    tenants = [
        TenantGroup(
            "noisy",
            _fleet(generator, "noisy", rate, 2, autoscaler=_scaler(max_pods=6)),
            PROFILE.name,
            slo_p95_ttft_s=5.0,
        ),
    ]
    inventory = ClusterInventory(capacity={GPU: capacity})
    cluster_type = ClusterSimulator if fast else ReferenceClusterSimulator
    sim = cluster_type(tenants, inventory, cloud=cloud, burst=burst)
    return sim, sim.run(duration_s=duration)


class TestCloudCatalog:
    def test_mode_prices_ordered(self):
        catalog = aws_like_cloud_catalog()
        inst = catalog.instance(GPU)
        assert 0 < inst.spot < inst.reserved < inst.on_demand

    def test_pod_cost_scales_with_gpu_count(self):
        catalog = aws_like_cloud_catalog()
        two = parse_profile(f"2x{GPU}")
        assert catalog.pod_cost(two, "spot") == pytest.approx(
            2 * catalog.gpu_price(GPU, "spot")
        )

    def test_zero_prices_are_legal(self):
        inst = CloudInstanceType(gpu="X-1GB", on_demand=0.0, spot=0.0, reserved=0.0)
        catalog = CloudCatalog(instances={"X-1GB": inst})
        assert catalog.gpu_price("X-1GB", "on-demand") == 0.0

    def test_negative_price_rejected(self):
        with pytest.raises(ValueError, match="negative spot price"):
            CloudInstanceType(gpu="X", on_demand=1.0, spot=-0.1, reserved=0.5)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown cloud pricing mode"):
            aws_like_cloud_catalog().gpu_price(GPU, "preemptible")

    def test_unoffered_type(self):
        catalog = aws_like_cloud_catalog()
        assert not catalog.offers("TPU-v9")
        with pytest.raises(KeyError, match="rentable types"):
            catalog.instance("TPU-v9")

    def test_quota_overlay(self):
        catalog = aws_like_cloud_catalog(quota_gpus={GPU: 4})
        assert catalog.quota_gpus(GPU) == 4
        other = next(g for g in catalog.instances if g != GPU)
        assert catalog.quota_gpus(other) is None

    def test_mismatched_key_rejected(self):
        inst = CloudInstanceType(gpu="A", on_demand=1.0, spot=0.3, reserved=0.6)
        with pytest.raises(ValueError, match="does not match"):
            CloudCatalog(instances={"B": inst})


class TestBurstPolicy:
    def test_no_shortfall_no_burst(self):
        assert BurstPolicy().burst_pods(0, 0, 1.0) == 0

    def test_unbounded_policy_rents_the_shortfall(self):
        assert BurstPolicy().burst_pods(3, 5, 99.0) == 3

    def test_price_cap_refuses(self):
        policy = BurstPolicy(price_cap_per_pod_hour=2.0)
        assert policy.burst_pods(3, 0, 2.5) == 0
        assert policy.burst_pods(3, 0, 2.0) == 3

    def test_per_tenant_cap_counts_held_pods(self):
        policy = BurstPolicy(max_cloud_pods=4)
        assert policy.burst_pods(5, 3, 1.0) == 1
        assert policy.burst_pods(5, 4, 1.0) == 0

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown cloud pricing mode"):
            BurstPolicy(mode="preemptible")


class TestCloudLedger:
    def test_allocate_release_bookkeeping(self):
        ledger = CloudLedger(aws_like_cloud_catalog())
        ledger.rented.allocate(f"2x{GPU}", 2, tenant="a", time_s=5.0, reason="burst")
        assert ledger.rented.used[GPU] == 4
        ledger.rented.release(
            f"2x{GPU}", 1, tenant="a", time_s=9.0, reason="scale-down"
        )
        assert ledger.rented.used[GPU] == 2
        assert [(e.tenant, e.delta, e.reason) for e in ledger.rented.events] == [
            ("a", 4, "burst"),
            ("a", -2, "scale-down"),
        ]

    def test_quota_clips_fillable_pods(self):
        ledger = CloudLedger(aws_like_cloud_catalog(quota_gpus={GPU: 5}))
        assert ledger.rented.fillable_pods(f"2x{GPU}") == 2
        ledger.rented.allocate(f"2x{GPU}", 2, tenant="a", time_s=0.0, reason="burst")
        assert ledger.rented.fillable_pods(f"2x{GPU}") == 0
        assert ledger.rented.available(GPU) == 1

    def test_unmetered_type_is_practically_unbounded(self):
        # Unmetered is None, not a large stand-in count.
        ledger = CloudLedger(aws_like_cloud_catalog())
        assert ledger.rented.fillable_pods(f"1x{GPU}") is None
        assert ledger.rented.available(GPU) is None
        assert ledger.rented.can_fit(f"8x{GPU}", 10**6)

    def test_unoffered_type_fills_nothing(self):
        catalog = CloudCatalog(
            instances={
                GPU: CloudInstanceType(gpu=GPU, on_demand=1.0, spot=0.3, reserved=0.6)
            }
        )
        ledger = CloudLedger(catalog)
        assert ledger.rented.fillable_pods("1xA10-24GB") == 0

    def test_over_quota_allocation_raises(self):
        ledger = CloudLedger(aws_like_cloud_catalog(quota_gpus={GPU: 1}))
        with pytest.raises(ValueError, match=f"cannot allocate 2 x {GPU}: only 1"):
            ledger.rented.allocate(f"2x{GPU}", 1, tenant="a", reason="burst")

    def test_over_return_raises(self):
        ledger = CloudLedger(aws_like_cloud_catalog())
        with pytest.raises(ValueError, match="releasing more GPUs than allocated"):
            ledger.rented.release(f"1x{GPU}", 1, tenant="a", reason="scale-down")

    def test_tenant_returning_unrented_pods_raises(self, generator):
        # The binder counts each tenant's rented pods: a release naming
        # cloud serials it never rented is a bookkeeping bug, not a return.
        # Another tenant's rental keeps the ledger's GPU count positive, so
        # only the per-tenant count can catch it.
        fleet = _fleet(generator, "unrented", 1.0, 0)
        ledger = _bind_hybrid(fleet, 2, BurstPolicy())
        ledger.rented.allocate(PROFILE.name, 1, tenant="other", reason="burst")
        fleet.mark_cloud([0])
        with pytest.raises(ValueError, match="'fleet' returns pods it never rented"):
            fleet._release(0.0, [0])


class TestSpotPreemptionSpecs:
    def test_seeded_schedule_is_reproducible(self):
        a = spot_preemption_specs(60.0, 600.0, 7, "tenant-a")
        b = spot_preemption_specs(60.0, 600.0, 7, "tenant-a")
        assert [s.time_s for s in a] == [s.time_s for s in b]
        assert all(s.kind == "spot-preempt" for s in a)
        assert all(0 <= s.time_s < 600.0 for s in a)

    def test_labels_decorrelate_tenants(self):
        a = spot_preemption_specs(60.0, 600.0, 7, "tenant-a")
        b = spot_preemption_specs(60.0, 600.0, 7, "tenant-b")
        assert [s.time_s for s in a] != [s.time_s for s in b]

    def test_zero_rate_is_empty(self):
        assert spot_preemption_specs(0.0, 600.0, 7) == []

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ValueError, match="rate_per_hour"):
            spot_preemption_specs(-1.0, 600.0, 0)
        with pytest.raises(ValueError, match="horizon_s"):
            spot_preemption_specs(1.0, 0.0, 0)


class TestClusterBurst:
    @pytest.fixture(scope="class")
    def bursted(self, generator):
        cloud = CloudLedger(aws_like_cloud_catalog(), seed=0)
        return _burst_cluster(generator, cloud=cloud, burst=BurstPolicy())

    def test_burst_absorbs_contention(self, bursted):
        _, res = bursted
        # Every denied/clipped scale-up overflowed into the cloud, so no
        # constraint was recorded — and the ledger shows the rentals.
        assert res.contended_scale_events() == []
        assert res.cloud_events
        assert res.results["noisy"].cloud_pod_seconds > 0

    def test_conservation_with_cloud_events(self, bursted):
        _, res = bursted
        res.verify_conservation()

    def test_replay_names_the_ledger(self, bursted):
        _, res = bursted
        rent = res.cloud_events[0]
        early_return = dataclasses.replace(rent, delta=-rent.delta)
        returned_first = dataclasses.replace(
            res, cloud_events=[early_return, *res.cloud_events]
        )
        with pytest.raises(
            ValueError, match=f"cloud ledger leak: {GPU} below zero at t={rent.time_s}"
        ):
            returned_first.verify_conservation()
        no_quota = dataclasses.replace(
            res, cloud_catalog=aws_like_cloud_catalog(quota_gpus={GPU: 0})
        )
        with pytest.raises(
            ValueError, match=f"cloud ledger over capacity: {GPU} at 1 > 0 at t="
        ):
            no_quota.verify_conservation()
        owned_less = dataclasses.replace(res, capacity={GPU: 1})
        with pytest.raises(
            ValueError, match=f"on-prem ledger over capacity: {GPU} at 2 > 1 at t="
        ):
            owned_less.verify_conservation()

    def test_on_prem_occupancy_still_capped(self, bursted):
        _, res = bursted
        _, used = res.occupancy_series(GPU)
        assert used.max() <= res.capacity[GPU]

    def test_mixed_billing_line_items(self, bursted):
        _, res = bursted
        pricing = aws_like_pricing()
        bill = res.billing(pricing)["noisy"]
        r = res.results["noisy"]
        assert bill["on_prem"]["pod_seconds"] == pytest.approx(
            r.on_prem_pod_seconds
        )
        assert bill["cloud"]["pod_seconds"] == pytest.approx(r.cloud_pod_seconds)
        assert bill["cloud"]["mode"] == "on-demand"
        assert bill["total"] == pytest.approx(
            bill["on_prem"]["cost"] + bill["cloud"]["cost"]
        )
        assert res.total_cost(pricing) == pytest.approx(bill["total"])

    def test_to_dict_carries_the_cloud_block(self, bursted):
        _, res = bursted
        payload = res.to_dict(pricing=aws_like_pricing())
        assert payload["cloud"]["modes"] == {"noisy": "on-demand"}
        assert payload["cloud"]["cloud_pod_seconds_total"] == pytest.approx(
            res.results["noisy"].cloud_pod_seconds
        )
        tenant_line = next(t for t in payload["tenants"] if t["name"] == "noisy")
        assert tenant_line["billing"]["cloud"]["cost"] > 0
        assert "burst" in res.summary()

    def test_burst_denied_by_cloud_quota(self, generator):
        # A catalog that offers the GPU but with zero account quota:
        # the burst ask clips to nothing and the on-prem constraint is
        # recorded exactly as if no cloud existed.
        cloud = CloudLedger(aws_like_cloud_catalog(quota_gpus={GPU: 0}), seed=0)
        _, res = _burst_cluster(generator, cloud=cloud, burst=BurstPolicy())
        assert res.contended_scale_events()
        assert res.cloud_events == []
        assert res.results["noisy"].cloud_pod_seconds == 0
        res.verify_conservation()

    def test_burst_without_cloud_rejected(self, generator):
        with pytest.raises(ValueError, match="cloud"):
            _burst_cluster(generator, cloud=None, burst=BurstPolicy())

    def test_fast_and_oracle_identical_with_cloud(self, generator, bursted):
        _, fast_res = bursted
        cloud = CloudLedger(aws_like_cloud_catalog(), seed=0)
        _, oracle_res = _burst_cluster(
            generator, cloud=cloud, burst=BurstPolicy(), fast=False
        )
        pricing = aws_like_pricing()
        assert fast_res.to_dict(pricing=pricing) == oracle_res.to_dict(
            pricing=pricing
        )


class TestSpotPreemption:
    @pytest.fixture(scope="class")
    def preempted(self, generator):
        # A spot interruption rate high enough that the 90s window sees
        # several seeded preemptions of the rented pods.
        cloud = CloudLedger(
            aws_like_cloud_catalog(spot_interruptions_per_hour=200.0), seed=3
        )
        return _burst_cluster(
            generator, cloud=cloud, burst=BurstPolicy(mode="spot")
        )

    def test_preemptions_fire_and_conserve(self, preempted):
        _, res = preempted
        spot_events = [
            e for _, e in res.fault_events() if e.kind == "spot-preempt"
        ]
        assert spot_events
        res.verify_conservation()

    def test_preemptions_hit_only_cloud_pods(self, preempted):
        sim, res = preempted
        cloud_serials = sim.tenants[0].fleet.cloud_serials
        for _, event in res.fault_events():
            if event.kind == "spot-preempt" and event.pod is not None:
                assert event.pod in cloud_serials

    def test_spot_schedule_identical_across_loops(self, generator, preempted):
        _, fast_res = preempted
        cloud = CloudLedger(
            aws_like_cloud_catalog(spot_interruptions_per_hour=200.0), seed=3
        )
        _, oracle_res = _burst_cluster(
            generator, cloud=cloud, burst=BurstPolicy(mode="spot"), fast=False
        )
        pricing = aws_like_pricing()
        assert fast_res.to_dict(pricing=pricing) == oracle_res.to_dict(
            pricing=pricing
        )

    def test_on_demand_mode_injects_no_preemptions(self, generator):
        cloud = CloudLedger(
            aws_like_cloud_catalog(spot_interruptions_per_hour=200.0), seed=3
        )
        _, res = _burst_cluster(generator, cloud=cloud, burst=BurstPolicy())
        assert not any(
            e.kind == "spot-preempt" for _, e in res.fault_events()
        )

    def test_untargeted_preemption_with_no_cloud_pods_is_ineffective(
        self, generator
    ):
        faults = FaultInjector(
            [FaultSpec(kind="spot-preempt", time_s=5.0)], seed=0
        )
        res = _fleet(generator, "no-cloud", 2.0, 0, n_pods=2, faults=faults).run(
            duration_s=15.0, keep_samples=False
        )
        assert [e.pod for e in res.fault_events if e.kind == "spot-preempt"] == [
            None
        ]
        res.verify_conservation()


class _ScriptedPolicy(AutoscalePolicy):
    """Deterministic scale plan: burst at 10s, drain the burst at 20s."""

    name = "scripted"

    def desired_pods(self, view):
        if view.time < 10.0:
            return 1
        if view.time < 20.0:
            return 3
        return 1


class TestSpotPreemptionMidDrain:
    def test_draining_cloud_pod_can_be_preempted(self, generator):
        # Serial 0 is owned; the 10s scale-up mints cloud serials 1 and 2;
        # the 20s scale-down drains them (newest first, with residual
        # work at this rate), and the provider reclaims serial 2 while
        # it is still draining.
        scaler = Autoscaler(
            _ScriptedPolicy(),
            AutoscaleConfig(
                decision_interval_s=10.0, max_pods=3, cold_start_s=2.0,
                metrics_window_s=20.0,
            ),
        )
        faults = FaultInjector(
            [FaultSpec(kind="spot-preempt", time_s=21.0, pod=2)], seed=0
        )
        fleet = _fleet(
            generator, "mid-drain", 6.0, 5, autoscaler=scaler, faults=faults
        )
        ledger = _bind_hybrid(fleet, 1, BurstPolicy(mode="spot"))
        res = fleet.run(duration_s=40.0, keep_samples=False)
        events = [e for e in res.fault_events if e.kind == "spot-preempt"]
        assert [e.pod for e in events] == [2]
        assert 2 in fleet.cloud_serials
        res.verify_conservation()
        # The reclaim returned the rented capacity to the ledger.
        assert ledger.rented.used[GPU] == 0
        assert any(
            e.reason == "spot-preempt" and e.delta < 0 for e in ledger.rented.events
        )


def _library_burst(generator, reference):
    """The curated spot-burst-hybrid scenario (two tenants, spot mode)."""
    spec = load_by_name("spot-burst-hybrid")
    return run_scenario(spec) if reference else spec.run()


def _capped_spot_burst(generator, reference):
    """Spot at 240 interruptions/h, where the 2-pod max_cloud_pods binds."""
    cloud = CloudLedger(
        aws_like_cloud_catalog(spot_interruptions_per_hour=240.0), seed=0
    )
    return _burst_cluster(
        generator,
        cloud=cloud,
        burst=BurstPolicy(mode="spot", max_cloud_pods=2),
        fast=not reference,
        duration=180.0,
    )[1]


def _quota_bound_burst(generator, reference):
    """On-demand overflow clipped by a 2-GPU account quota."""
    cloud = CloudLedger(aws_like_cloud_catalog(quota_gpus={GPU: 2}), seed=0)
    return _burst_cluster(
        generator, cloud=cloud, burst=BurstPolicy(), fast=not reference, rate=6.0
    )[1]


_UNMETERED = dict.fromkeys(
    ["A10-24GB", "A100-40GB", "A100-80GB", "H100-80GB", "T4-16GB", "V100-16GB"]
)

#: Per run: the rented-capacity events as (time_s, tenant, gpu, delta,
#: reason), the per-tier bill, the JSON cloud block and the number of
#: scale-ups the cap or quota left contended.
CLOUD_LEDGER_PINS = {
    "spot-burst-hybrid": (
        _library_burst,
        [
            (30.0, "api", "A10-24GB", 1, "burst"),
            (40.0, "api", "A10-24GB", 1, "burst"),
            (50.0, "api", "A10-24GB", 1, "burst"),
            (60.0, "api", "A10-24GB", 1, "burst"),
            (111.2236230103704, "api", "A10-24GB", -1, "scale-down"),
        ],
        {
            "api": {
                "on_prem": {
                    "pod_seconds": 228.241443740771,
                    "hourly_per_pod": 1.01,
                    "cost": 0.06403440504949408,
                },
                "cloud": {
                    "pod_seconds": 291.3139075353093,
                    "mode": "spot",
                    "hourly_per_pod": 0.303,
                    "cost": 0.02451892055088853,
                },
                "total": 0.0885533256003826,
            },
            "background": {
                "on_prem": {
                    "pod_seconds": 120.00964996305608,
                    "hourly_per_pod": 1.01,
                    "cost": 0.033669374017412955,
                },
                "cloud": None,
                "total": 0.033669374017412955,
            },
        },
        {
            "modes": {"api": "spot", "background": "spot"},
            "usage_events": 5,
            "cloud_pod_seconds_total": 291.3139075353093,
            "quota_gpus": _UNMETERED,
        },
        2,
    ),
    "capped-spot": (
        _capped_spot_burst,
        [
            (t, "noisy", GPU, delta, reason)
            for t, delta, reason in [
                (20.0, 1, "burst"),
                (27.94494239042149, -1, "spot-preempt"),
                (30.0, 1, "burst"),
                (37.37520250901913, -1, "spot-preempt"),
                (40.0, 1, "burst"),
                (49.82889973175895, -1, "spot-preempt"),
                (50.0, 1, "burst"),
                (59.7974709561173, -1, "spot-preempt"),
                (60.0, 1, "burst"),
                (70.0, 1, "burst"),
                (90.46871730781609, -1, "spot-preempt"),
                (100.0, 1, "burst"),
                (101.25925361574234, -1, "spot-preempt"),
                (110.0, 1, "burst"),
                (119.84324386145282, -1, "spot-preempt"),
                (120.0, 1, "burst"),
                (133.213086898599, -1, "spot-preempt"),
                (140.0, 1, "burst"),
                (154.26324957043389, -1, "spot-preempt"),
                (160.0, 1, "burst"),
            ]
        ],
        {
            "noisy": {
                "on_prem": {
                    "pod_seconds": 350.60817097796917,
                    "hourly_per_pod": 5.12,
                    "cost": 0.49864273205755616,
                },
                "cloud": {
                    "pod_seconds": 234.6022378193301,
                    "mode": "spot",
                    "hourly_per_pod": 1.536,
                    "cost": 0.10009695480291417,
                },
                "total": 0.5987396868604703,
            },
        },
        {
            "modes": {"noisy": "spot"},
            "usage_events": 20,
            "cloud_pod_seconds_total": 234.6022378193301,
            "quota_gpus": _UNMETERED,
        },
        5,
    ),
    "quota-bound": (
        _quota_bound_burst,
        [
            (20.0, "noisy", GPU, 1, "burst"),
            (30.0, "noisy", GPU, 1, "burst"),
        ],
        {
            "noisy": {
                "on_prem": {
                    "pod_seconds": 170.1657314497668,
                    "hourly_per_pod": 5.12,
                    "cost": 0.24201348472855724,
                },
                "cloud": {
                    "pod_seconds": 130.1657314497668,
                    "mode": "on-demand",
                    "hourly_per_pod": 5.12,
                    "cost": 0.18512459583966834,
                },
                "total": 0.42713808056822555,
            },
        },
        {
            "modes": {"noisy": "on-demand"},
            "usage_events": 2,
            "cloud_pod_seconds_total": 130.1657314497668,
            "quota_gpus": {**_UNMETERED, GPU: 2},
        },
        5,
    ),
}


class TestCloudLedgerPin:
    """Three bursting clusters, on the production and the reference
    simulator: the rented-capacity ledger, the mixed bill and the JSON
    cloud block were recorded at these seeds. A change to how rentals
    are booked that moves any of them is a behaviour change."""

    @pytest.mark.parametrize("reference", [False, True], ids=["production", "reference"])
    @pytest.mark.parametrize("name", sorted(CLOUD_LEDGER_PINS))
    def test_ledger_pinned(self, generator, name, reference):
        run, events, billing, cloud, contended = CLOUD_LEDGER_PINS[name]
        res = run(generator, reference)
        pricing = aws_like_pricing()
        assert [
            (e.time_s, e.tenant, e.gpu, e.delta, e.reason) for e in res.cloud_events
        ] == events
        assert res.billing(pricing) == billing
        assert res.to_dict(pricing=pricing)["cloud"] == cloud
        assert len(res.contended_scale_events()) == contended


class TestSingleTenantEquivalence:
    def test_cluster_with_idle_cloud_matches_standalone_fleet(self, generator):
        """With ample owned inventory the burst never fires, and the
        1-tenant cluster with a cloud tier IS FleetSimulator.run."""
        standalone = _fleet(
            generator, "solo", 6.0, 3, autoscaler=_scaler()
        ).run(duration_s=60.0, keep_samples=False)
        clustered_fleet = _fleet(generator, "solo", 6.0, 3, autoscaler=_scaler())
        sim = ClusterSimulator(
            [TenantGroup("solo", clustered_fleet, PROFILE.name)],
            ClusterInventory(capacity={GPU: 64}),
            cloud=CloudLedger(aws_like_cloud_catalog(), seed=0),
            burst=BurstPolicy(),
        )
        res = sim.run(duration_s=60.0)
        clustered = res.results["solo"]
        assert res.cloud_events == []
        assert clustered.cloud_pod_seconds == 0
        assert clustered.arrivals == standalone.arrivals
        assert clustered.requests_completed == standalone.requests_completed
        assert clustered.ttft.p95_s == standalone.ttft.p95_s
        assert clustered.pod_seconds == standalone.pod_seconds
        assert clustered.scale_events == standalone.scale_events
        res.verify_conservation()


class TestHybridCapacity:
    def test_initial_fleet_must_fit_the_owned_tier(self, generator):
        deployment = Deployment(
            llm=LLM, profile=PROFILE, n_pods=1, max_batch_weight=WEIGHT,
            generator=generator,
        )
        recommender = ElasticRecommender(
            deployment,
            lambda: PoissonTraffic(1.0, rng=derive_rng(0, "owned-tier")),
            CostObjective(
                aws_like_pricing(),
                LinearSLOPenalty(slo_p95_ttft_s=10.0),
                cloud=aws_like_cloud_catalog(),
            ),
            slo_p95_ttft_s=10.0,
            duration_s=10.0,
            on_prem_pods=2,
        )
        with pytest.raises(ValueError, match="exceeds the 2-pod on-prem tier"):
            recommender.evaluate(ElasticCandidate("static", 3, 3))

    def test_hybrid_fleet_bills_cloud_seconds(self, generator):
        fleet = _fleet(
            generator, "hybrid", 8.0, 1, autoscaler=_scaler(max_pods=5)
        )
        _bind_hybrid(fleet, 2, BurstPolicy())
        res = fleet.run(duration_s=60.0, keep_samples=False)
        res.verify_conservation()
        assert res.cloud_pod_seconds > 0
        assert res.on_prem_pod_seconds + res.cloud_pod_seconds == pytest.approx(
            res.pod_seconds
        )
        assert res.to_dict()["cloud_pod_seconds"] == pytest.approx(
            res.cloud_pod_seconds
        )


class TestCostObjectiveMixedBill:
    def _result(self, generator):
        fleet = _fleet(
            generator, "bill", 8.0, 1, autoscaler=_scaler(max_pods=5)
        )
        _bind_hybrid(fleet, 2, BurstPolicy(mode="spot"))
        return fleet.run(duration_s=60.0, keep_samples=False)

    def test_mixed_bill_prices_each_tier(self, generator):
        res = self._result(generator)
        catalog = aws_like_cloud_catalog()
        pricing = aws_like_pricing()
        objective = CostObjective(
            pricing=pricing,
            penalty=LinearSLOPenalty(slo_p95_ttft_s=10.0),
            cloud=catalog,
            cloud_mode="spot",
        )
        expected = res.on_prem_pod_seconds / 3600.0 * pricing.pod_cost(
            PROFILE
        ) + res.cloud_pod_seconds / 3600.0 * catalog.pod_cost(PROFILE, "spot")
        assert objective.compute_cost(res, PROFILE) == pytest.approx(expected)
        # Spot rents below the owned rate, so the mixed bill undercuts
        # pricing the same pod-seconds entirely on-prem.
        assert objective.compute_cost(res, PROFILE) < res.pod_hours * (
            pricing.pod_cost(PROFILE)
        )

    def test_cloud_seconds_without_catalog_is_an_error(self, generator):
        res = self._result(generator)
        objective = CostObjective(
            pricing=aws_like_pricing(),
            penalty=LinearSLOPenalty(slo_p95_ttft_s=10.0),
        )
        with pytest.raises(ValueError, match="no cloud catalog"):
            objective.compute_cost(res, PROFILE)

    def test_invalid_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown cloud pricing mode"):
            CostObjective(
                pricing=aws_like_pricing(),
                penalty=LinearSLOPenalty(slo_p95_ttft_s=1.0),
                cloud_mode="preemptible",
            )

    def test_zero_price_catalog_bills_cloud_seconds_for_free(self, generator):
        res = self._result(generator)
        free = CloudCatalog(
            instances={
                GPU: CloudInstanceType(gpu=GPU, on_demand=0.0, spot=0.0, reserved=0.0)
            }
        )
        pricing = aws_like_pricing()
        objective = CostObjective(
            pricing=pricing,
            penalty=LinearSLOPenalty(slo_p95_ttft_s=10.0),
            cloud=free,
        )
        assert objective.compute_cost(res, PROFILE) == pytest.approx(
            res.on_prem_pod_seconds / 3600.0 * pricing.pod_cost(PROFILE)
        )
