"""Tests for autoscaling policies, the elastic fleet and admission control."""

import math

import numpy as np
import pytest

from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import get_llm
from repro.simulation import (
    AdmissionController,
    Autoscaler,
    AutoscaleConfig,
    FleetSimulator,
    FleetView,
    LeastLoadedRouter,
    MetricsCollector,
    NoOpPolicy,
    PoissonTraffic,
    PredictivePolicy,
    RequestSource,
    RoundRobinRouter,
    TargetUtilizationPolicy,
    ThresholdPolicy,
)
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-80GB")
WEIGHT = 20_000


def _factory(seed):
    def make(serial):
        return ContinuousBatchingEngine(
            LLM, PROFILE, max_batch_weight=WEIGHT, seed=spawn_seed(seed, "pod", serial)
        )

    return make


def _fleet(generator, traffic, seed=0, n_pods=1, autoscaler=None, router=None):
    factory = _factory(seed)
    source = RequestSource(generator, derive_rng(seed, "autoscale-test"), WEIGHT)
    return FleetSimulator(
        [factory(i) for i in range(n_pods)],
        traffic,
        router or LeastLoadedRouter(),
        source,
        autoscaler=autoscaler,
        pod_factory=factory,
    )


def _view(**overrides):
    defaults = dict(
        time=100.0,
        pods=2,
        starting=0,
        draining=0,
        queue_depth=0,
        active_requests=4,
        utilization=0.5,
        p95_ttft_s=1.0,
        arrival_times_s=np.array([40.0, 50.0, 60.0, 70.0, 80.0, 90.0]),
        arrival_rates_per_s=np.array([1.0, 1.5, 2.0, 2.5, 3.0, 3.5]),
    )
    defaults.update(overrides)
    return FleetView(**defaults)


class TestPolicies:
    def test_noop_keeps_provisioned(self):
        assert NoOpPolicy().desired_pods(_view(pods=3, starting=2)) == 5

    def test_threshold_scales_up_on_breach(self):
        policy = ThresholdPolicy(slo_p95_ttft_s=2.0)
        assert policy.desired_pods(_view(p95_ttft_s=3.0)) == 3

    def test_threshold_scales_down_when_cold_and_idle(self):
        policy = ThresholdPolicy(slo_p95_ttft_s=2.0)
        # Below half the SLO with nothing queued: one pod fewer.
        assert policy.desired_pods(_view(p95_ttft_s=0.5, queue_depth=0)) == 1
        # Queued work blocks the scale-down even below the low-water mark.
        assert policy.desired_pods(_view(p95_ttft_s=0.5, queue_depth=3)) == 2

    def test_threshold_holds_in_band_and_on_nan(self):
        policy = ThresholdPolicy(slo_p95_ttft_s=2.0)
        assert policy.desired_pods(_view(p95_ttft_s=1.5)) == 2
        # NaN tail with in-flight work: warm-up transient, hold.
        assert policy.desired_pods(_view(p95_ttft_s=float("nan"))) == 2

    def test_threshold_shrinks_idle_fleet(self):
        policy = ThresholdPolicy(slo_p95_ttft_s=2.0)
        idle = _view(p95_ttft_s=float("nan"), queue_depth=0, active_requests=0)
        assert policy.desired_pods(idle) == 1

    def test_target_utilization_hpa_formula(self):
        policy = TargetUtilizationPolicy(target=0.5)
        # 2 pods at 0.9 utilization -> ceil(2 * 0.9/0.5) = 4.
        assert policy.desired_pods(_view(utilization=0.9)) == 4
        # 2 pods at 0.2 -> ceil(2 * 0.4) = 1.
        assert policy.desired_pods(_view(utilization=0.2)) == 1

    def test_target_utilization_dead_band_and_warming_damping(self):
        policy = TargetUtilizationPolicy(target=0.5)  # 10% dead band
        assert policy.desired_pods(_view(utilization=0.53)) == 2
        # Warming pods already cover the ask: no further scale-up.
        assert policy.desired_pods(_view(utilization=0.9, starting=3)) == 5

    def test_predictive_extrapolates_rising_series(self):
        policy = PredictivePolicy(
            requests_per_pod_per_s=2.0, horizon_s=20.0, fit_windows=6
        )
        view = _view()  # rate = 0.05*t - 1.0 on the fitted points
        forecast = policy.forecast_rate(view)
        # Evaluated horizon_s past the decision time: 0.05*(100+20) - 1.
        assert forecast == pytest.approx(5.0, rel=1e-9)
        # 20% head-room over the forecast: 1.2 * 5 / 2 rounds up to 3 pods.
        assert policy.desired_pods(view) == math.ceil(1.2 * forecast / 2.0) == 3

    def test_predictive_empty_and_single_point_series(self):
        policy = PredictivePolicy(requests_per_pod_per_s=2.0)
        # No observed window yet: hold, don't mistake missing data for
        # zero traffic and collapse the fleet.
        empty = _view(arrival_times_s=np.empty(0), arrival_rates_per_s=np.empty(0))
        assert policy.desired_pods(empty) == 2
        single = _view(
            arrival_times_s=np.array([90.0]), arrival_rates_per_s=np.array([5.0])
        )
        assert policy.forecast_rate(single) == 5.0

    def test_autoscaler_clamps_to_bounds(self):
        config = AutoscaleConfig(min_pods=2, max_pods=4)
        scaler = Autoscaler(ThresholdPolicy(slo_p95_ttft_s=2.0), config)
        assert scaler.desired_pods(_view(pods=4, p95_ttft_s=9.0)) == 4
        assert scaler.desired_pods(_view(pods=2, p95_ttft_s=0.1)) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            ThresholdPolicy(slo_p95_ttft_s=0.0)
        with pytest.raises(ValueError):
            TargetUtilizationPolicy(target=0.0)
        with pytest.raises(ValueError):
            PredictivePolicy(requests_per_pod_per_s=0.0)
        with pytest.raises(ValueError):
            PredictivePolicy(requests_per_pod_per_s=1.0, fit_windows=1)
        with pytest.raises(ValueError):
            AutoscaleConfig(decision_interval_s=0.0)
        with pytest.raises(ValueError):
            AutoscaleConfig(min_pods=3, max_pods=2)


class TestElasticFleet:
    def _overload_scaler(self, **config):
        defaults = dict(
            decision_interval_s=10.0, max_pods=4, cold_start_s=5.0,
            metrics_window_s=20.0,
        )
        defaults.update(config)
        return Autoscaler(
            ThresholdPolicy(slo_p95_ttft_s=1.0), AutoscaleConfig(**defaults)
        )

    def test_scales_up_under_overload(self, generator):
        traffic = PoissonTraffic(6.0, rng=derive_rng(0, "overload"))
        fleet = _fleet(generator, traffic, autoscaler=self._overload_scaler())
        res = fleet.run(duration_s=120.0)
        res.verify_conservation()
        assert res.scale_events
        assert all(e.direction == "up" for e in res.scale_events[:1])
        assert res.n_pods > 1
        assert len(res.per_pod) > 1

    def test_cold_start_delays_service(self, generator):
        cold = 8.0
        traffic = PoissonTraffic(6.0, rng=derive_rng(1, "cold"))
        fleet = _fleet(
            generator, traffic, seed=1,
            autoscaler=self._overload_scaler(cold_start_s=cold),
        )
        res = fleet.run(duration_s=90.0)
        first_up = next(e for e in res.scale_events if e.direction == "up")
        late_pods = [p for p in res.per_pod if p.pod >= 1 and p.arrivals_routed]
        assert late_pods, "scale-up never served traffic"
        for pod_stats in late_pods:
            engine = fleet.all_pods[pod_stats.pod]
            first_served = min(r.submitted_at for r in engine.metrics.completed)
            assert first_served >= first_up.time_s + cold

    def test_drains_and_retires_on_scale_down(self, generator):
        # A burst that ends: rate collapses after the first 60s window
        # because the diurnal trough hits, so the fleet must shrink.
        from repro.simulation import DiurnalTraffic

        traffic = DiurnalTraffic(
            2.5, rng=derive_rng(2, "downscale"), amplitude=0.95, period_s=120.0
        )
        fleet = _fleet(generator, traffic, seed=2, autoscaler=self._overload_scaler())
        res = fleet.run(duration_s=240.0)
        res.verify_conservation()
        downs = [e for e in res.scale_events if e.direction == "down"]
        assert downs
        states = [p.state for p in res.per_pod]
        assert "retired" in states
        # Retired pods' tokens are still counted — exactly once.
        assert res.tokens_generated == sum(p.tokens_generated for p in res.per_pod)
        assert res.requests_completed == sum(
            p.requests_completed for p in res.per_pod
        )

    def test_deterministic_event_log(self, generator):
        def run():
            traffic = PoissonTraffic(6.0, rng=derive_rng(3, "det"))
            fleet = _fleet(
                generator, traffic, seed=3, autoscaler=self._overload_scaler()
            )
            return fleet.run(duration_s=90.0)

        a, b = run(), run()
        assert a.scale_events == b.scale_events
        assert a.arrivals == b.arrivals
        assert a.tokens_generated == b.tokens_generated
        assert a.ttft.median_s == b.ttft.median_s
        assert a.pod_seconds == b.pod_seconds

    def test_pod_seconds_accounting(self, generator):
        traffic = PoissonTraffic(6.0, rng=derive_rng(4, "bill"))
        fleet = _fleet(generator, traffic, seed=4, autoscaler=self._overload_scaler())
        res = fleet.run(duration_s=100.0)
        # Never below the always-on floor, never above max_pods flat-out.
        assert res.pod_seconds >= res.time_s
        assert res.pod_seconds <= 4 * res.time_s
        static = _fleet(
            generator, PoissonTraffic(6.0, rng=derive_rng(4, "bill")), seed=4
        ).run(duration_s=100.0)
        assert static.pod_seconds == pytest.approx(static.time_s)

    def test_autoscaler_requires_pod_factory(self, generator):
        source = RequestSource(generator, derive_rng(0, "x"), WEIGHT)
        with pytest.raises(ValueError, match="pod_factory"):
            FleetSimulator(
                [_factory(0)(0)],
                PoissonTraffic(1.0, rng=derive_rng(0, "y")),
                RoundRobinRouter(),
                source,
                autoscaler=self._overload_scaler(),
            )


class _StubPod:
    """A pod exposing only what the admission controller reads."""

    def __init__(self):
        self.metrics = MetricsCollector()


class TestAdmissionController:
    def _controller(self, **kw):
        defaults = dict(slo_p95_ttft_s=1.0, window_s=10.0)
        defaults.update(kw)
        return AdmissionController(RoundRobinRouter(), **defaults)

    def _pods_with_ttft(self, values, now):
        pod = _StubPod()
        for v in values:
            pod.metrics.record_first_token(v, 100, now=now)
        return [pod]

    def _request(self, request_id=0):
        from repro.inference import InferenceRequest

        return InferenceRequest(
            request_id=request_id, input_tokens=10, output_tokens=10
        )

    def test_admits_below_slo(self):
        ctl = self._controller()
        pods = self._pods_with_ttft([0.1] * 10, now=5.0)
        assert ctl.admit(self._request(), 5.0, pods) == "admit"

    def test_sheds_above_slo(self):
        ctl = self._controller()
        pods = self._pods_with_ttft([5.0] * 10, now=5.0)
        assert ctl.admit(self._request(), 5.0, pods) == "shed"

    def test_admits_when_too_few_samples(self):
        ctl = self._controller()
        # 7 breaching samples: one short of the 8 the estimate needs.
        pods = self._pods_with_ttft([5.0] * 7, now=5.0)
        assert ctl.admit(self._request(), 5.0, pods) == "admit"

    def test_p95_cached_within_refresh_quantum(self):
        ctl = self._controller()
        pods = self._pods_with_ttft([5.0] * 10, now=5.0)
        assert ctl.admit(self._request(), 5.0, pods) == "shed"
        # New (fast) samples arrive, but the estimate is < 1 s old.
        pods[0].metrics.reset()
        for _ in range(10):
            pods[0].metrics.record_first_token(0.01, 100, now=5.5)
        assert ctl.admit(self._request(), 5.5, pods) == "shed"
        # Past the quantum the fresh samples are picked up.
        assert ctl.admit(self._request(), 6.0, pods) == "admit"

    def test_windowed_p95_on_merged_collector(self):
        # merged() interleaves per-pod streams, so the trailing-window
        # cut must not assume monotone record times.
        a, b = MetricsCollector(), MetricsCollector()
        for t, v in ((1.0, 9.0), (50.0, 1.0)):
            a.record_first_token(v, 100, now=t)
        for t, v in ((2.0, 9.0), (51.0, 2.0)):
            b.record_first_token(v, 100, now=t)
        merged = MetricsCollector.merged([a, b])
        np.testing.assert_array_equal(sorted(merged.ttft_since(40.0)), [1.0, 2.0])

    def test_old_samples_age_out_of_window(self):
        ctl = self._controller(window_s=10.0)
        pods = self._pods_with_ttft([5.0] * 10, now=5.0)
        # At t=50 the breach at t=5 is ancient history.
        assert ctl.admit(self._request(), 50.0, pods) == "admit"

    def test_defer_then_shed_after_max_defers(self):
        ctl = self._controller(mode="defer", max_defers=2)
        pods = self._pods_with_ttft([5.0] * 10, now=5.0)
        request = self._request(request_id=7)
        assert ctl.admit(request, 5.0, pods) == "defer"
        assert ctl.admit(request, 6.0, pods) == "defer"
        assert ctl.admit(request, 7.0, pods) == "shed"

    def test_routes_via_inner(self):
        ctl = self._controller()
        assert ctl.name == "admission(round-robin)"
        pods = [_StubPod(), _StubPod()]
        assert ctl.route(self._request(), 0.0, pods) == 0
        assert ctl.route(self._request(), 0.0, pods) == 1
        ctl.reset()
        assert ctl.route(self._request(), 0.0, pods) == 0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._controller(slo_p95_ttft_s=0.0)
        with pytest.raises(ValueError):
            self._controller(mode="drop")
        with pytest.raises(ValueError):
            self._controller(retry_delay_s=0.0)

    def test_integration_sheds_under_overload(self, generator):
        traffic = PoissonTraffic(8.0, rng=derive_rng(5, "shed"))
        router = AdmissionController(
            LeastLoadedRouter(), slo_p95_ttft_s=0.5, window_s=20.0
        )
        fleet = _fleet(generator, traffic, seed=5, router=router)
        res = fleet.run(duration_s=120.0)
        res.verify_conservation()
        assert res.shed > 0
        assert res.admitted + res.shed == res.arrivals
        assert res.admitted == sum(fleet.routed_counts)

    def test_integration_defer_retries(self, generator):
        traffic = PoissonTraffic(8.0, rng=derive_rng(6, "defer"))
        router = AdmissionController(
            LeastLoadedRouter(),
            slo_p95_ttft_s=0.5,
            window_s=20.0,
            mode="defer",
            retry_delay_s=3.0,
        )
        fleet = _fleet(generator, traffic, seed=6, router=router)
        res = fleet.run(duration_s=120.0)
        res.verify_conservation()
        assert res.deferrals > 0

    def test_defer_exhaustion_sheds_at_fleet_level(self, generator):
        """Persistent overload drains the retry budget: max_defers
        exhausted turns into fleet-level shed, and arrivals are still
        conserved (a deferred request is counted as one arrival no
        matter how many times it is re-offered)."""
        traffic = PoissonTraffic(10.0, rng=derive_rng(7, "defer-exhaust"))
        router = AdmissionController(
            LeastLoadedRouter(),
            slo_p95_ttft_s=0.2,
            window_s=30.0,
            mode="defer",
            retry_delay_s=2.0,
            max_defers=2,
        )
        fleet = _fleet(generator, traffic, seed=7, router=router)
        res = fleet.run(duration_s=120.0)
        res.verify_conservation()
        assert res.deferrals > 0
        assert res.shed > 0
        # Re-offers never inflate the arrival count.
        assert res.arrivals == res.admitted + res.shed
        assert res.admitted == sum(fleet.routed_counts)

    def test_defer_with_autoscaler_end_to_end(self, generator):
        """Defer mode rides the elastic fleet: deferred arrivals retry
        while the autoscaler adds capacity, so deferrals convert into
        served work instead of rejections once pods arrive."""
        traffic = PoissonTraffic(6.0, rng=derive_rng(8, "defer-scale"))
        router = AdmissionController(
            LeastLoadedRouter(),
            slo_p95_ttft_s=0.5,
            window_s=20.0,
            mode="defer",
            retry_delay_s=3.0,
            max_defers=5,
        )
        fleet = _fleet(
            generator, traffic, seed=8, router=router,
            autoscaler=self._overload_autoscaler(),
        )
        res = fleet.run(duration_s=120.0)
        res.verify_conservation()
        assert res.deferrals > 0
        assert res.scale_events, "overload must trigger scale-ups"
        assert res.n_pods > 1
        assert res.requests_completed > 0

    def _overload_autoscaler(self):
        return Autoscaler(
            ThresholdPolicy(slo_p95_ttft_s=1.0),
            AutoscaleConfig(
                decision_interval_s=10.0, max_pods=4,
                cold_start_s=5.0, metrics_window_s=20.0,
            ),
        )

    def test_defer_mode_in_cluster_co_simulation(self, generator):
        """Defer mode at the cluster layer: deferred retries cross the
        shared clock without breaking tenant conservation or the
        inventory ledger."""
        from repro.simulation import (
            ClusterInventory, ClusterSimulator, TenantGroup,
        )

        def tenant(name, seed, rate):
            router = AdmissionController(
                LeastLoadedRouter(),
                slo_p95_ttft_s=0.5,
                window_s=20.0,
                mode="defer",
                retry_delay_s=2.0,
            )
            fleet = _fleet(
                generator,
                PoissonTraffic(rate, rng=derive_rng(seed, "cluster-defer", name)),
                seed=seed,
                router=router,
                autoscaler=self._overload_autoscaler(),
            )
            return TenantGroup(name, fleet, PROFILE.name)

        sim = ClusterSimulator(
            [tenant("a", 10, 6.0), tenant("b", 11, 6.0)],
            ClusterInventory(capacity={PROFILE.gpu.name: 3}),
        )
        res = sim.run(duration_s=90.0)
        res.verify_conservation()
        assert sum(r.deferrals for r in res.results.values()) > 0
        assert res.contended_scale_events(), "capacity 3 must contend"
