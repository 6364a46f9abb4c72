"""Tests for declarative scenario specs and their CLI entry points."""

import json
import math

import pytest

from repro.cli import main
from repro.simulation import (
    AdmissionController,
    BurstyTraffic,
    ClosedLoopTraffic,
    ClusterSimulator,
    DiurnalTraffic,
    FleetSimulator,
    PoissonTraffic,
    ReplayTraffic,
    ScenarioSpec,
)

REPLAY_ARRIVALS = [[0.0, 16, 8], [0.5, 64, 32], [1.0, 2048, 256], [2.0, 32, 8]]


def fleet_spec(**overrides):
    spec = {
        "name": "fleet-test",
        "duration_s": 15.0,
        "llm": "Llama-2-7b",
        "profile": "1xA10-24GB",
        "pods": 2,
        "workload": {"requests": 3000},
        "traffic": {"kind": "replay", "arrivals": REPLAY_ARRIVALS},
        "router": "weight-aware",
    }
    spec.update(overrides)
    return spec


def cluster_spec(**overrides):
    spec = {
        "name": "cluster-test",
        "duration_s": 15.0,
        "llm": "Llama-2-7b",
        "profile": "1xA10-24GB",
        "pods": 1,
        "workload": {"requests": 3000},
        "capacity": {"A10-24GB": 3},
        "tenants": [
            {"name": "chat", "traffic": {"kind": "poisson", "rate_per_s": 1.0}},
            {
                "name": "batch",
                "traffic": {"kind": "replay", "arrivals": REPLAY_ARRIVALS},
            },
        ],
    }
    spec.update(overrides)
    return spec


class TestValidation:
    def test_requires_duration(self):
        with pytest.raises(ValueError, match="duration_s"):
            ScenarioSpec.from_dict({"name": "x", "traffic": {"kind": "poisson"}})

    def test_rejects_unknown_top_level_key(self):
        with pytest.raises(ValueError, match="unknown key.*frobnicate"):
            ScenarioSpec.from_dict(fleet_spec(frobnicate=1))

    def test_rejects_non_mapping(self):
        with pytest.raises(ValueError, match="mapping"):
            ScenarioSpec.from_dict([1, 2, 3])

    def test_requires_traffic_kind(self):
        with pytest.raises(ValueError, match="traffic needs 'kind'"):
            ScenarioSpec.from_dict(fleet_spec(traffic={"rate_per_s": 1.0}))

    def test_rejects_unknown_traffic_kind(self):
        with pytest.raises(ValueError, match="unknown traffic kind"):
            ScenarioSpec.from_dict(fleet_spec(traffic={"kind": "warp-drive"}))

    def test_rejects_unknown_traffic_key(self):
        with pytest.raises(ValueError, match="traffic\\[poisson\\]"):
            ScenarioSpec.from_dict(
                fleet_spec(traffic={"kind": "poisson", "rate_per_s": 1, "users": 2})
            )

    def test_closed_needs_users(self):
        with pytest.raises(ValueError, match="needs 'users'"):
            ScenarioSpec.from_dict(fleet_spec(traffic={"kind": "closed"}))

    def test_rate_traffic_needs_rate(self):
        with pytest.raises(ValueError, match="needs 'rate_per_s'"):
            ScenarioSpec.from_dict(fleet_spec(traffic={"kind": "bursty"}))

    def test_replay_needs_exactly_one_source(self):
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioSpec.from_dict(fleet_spec(traffic={"kind": "replay"}))
        with pytest.raises(ValueError, match="exactly one"):
            ScenarioSpec.from_dict(
                fleet_spec(
                    traffic={
                        "kind": "replay",
                        "path": "x.csv",
                        "arrivals": REPLAY_ARRIVALS,
                    }
                )
            )

    def test_rejects_unknown_router(self):
        with pytest.raises(ValueError, match="unknown router"):
            ScenarioSpec.from_dict(fleet_spec(router="random"))

    def test_rejects_unknown_router_kwargs(self):
        with pytest.raises(ValueError, match="router\\[weight-aware\\].*warmupp"):
            ScenarioSpec.from_dict(
                fleet_spec(router={"kind": "weight-aware", "warmupp": 10})
            )
        # Valid constructor kwargs pass and reach the router.
        spec = ScenarioSpec.from_dict(
            fleet_spec(router={"kind": "weight-aware", "warmup": 10})
        )
        assert spec.build_fleet().router.warmup == 10

    def test_rejects_unknown_autoscaler_policy(self):
        with pytest.raises(ValueError, match="unknown autoscaler policy"):
            ScenarioSpec.from_dict(fleet_spec(autoscaler={"policy": "psychic"}))

    def test_replay_llm_key_requires_trace_source(self):
        with pytest.raises(ValueError, match="only applies to a 'trace'"):
            ScenarioSpec.from_dict(
                fleet_spec(
                    traffic={
                        "kind": "replay",
                        "arrivals": REPLAY_ARRIVALS,
                        "llm": "Llama-2-7b",
                    }
                )
            )

    def test_cluster_needs_capacity(self):
        spec = cluster_spec()
        del spec["capacity"]
        with pytest.raises(ValueError, match="capacity"):
            ScenarioSpec.from_dict(spec)

    def test_cluster_rejects_duplicate_tenants(self):
        spec = cluster_spec()
        spec["tenants"].append(dict(spec["tenants"][0]))
        with pytest.raises(ValueError, match="duplicate tenant names"):
            ScenarioSpec.from_dict(spec)

    def test_tenant_needs_name(self):
        spec = cluster_spec()
        del spec["tenants"][0]["name"]
        with pytest.raises(ValueError, match=r"tenant\[0\] needs 'name'"):
            ScenarioSpec.from_dict(spec)

    def test_reports_all_errors_at_once(self):
        spec = fleet_spec(
            duration_s=-1.0,
            traffic={"kind": "poisson"},
            router="nope",
        )
        with pytest.raises(ValueError) as exc_info:
            ScenarioSpec.from_dict(spec)
        msg = str(exc_info.value)
        assert "duration_s must be positive" in msg
        assert "needs 'rate_per_s'" in msg
        assert "unknown router" in msg
        assert msg.count(";") >= 2

    def test_numeric_fields_reject_strings_and_bools(self):
        spec = cluster_spec(
            duration_s="30",
            warmup_s=False,
            seed="1",
            pods=True,
            max_batch_weight="9000",
            slo_ttft_ms="500",
            capacity={"A10-24GB": "3"},
            router="nope",
        )
        spec["tenants"][0].update(pods="2", slo_ttft_ms=True)
        spec["tenants"][1]["max_batch_weight"] = "100"
        with pytest.raises(ValueError) as exc_info:
            ScenarioSpec.from_dict(spec)
        errors = str(exc_info.value).split("; ")
        # One error per bad field, each naming the field (and tenant),
        # joined with the spec's other problems into one ValueError.
        assert errors[:10] == [
            "duration_s must be a number, got '30'",
            "warmup_s must be a number, got False",
            "seed must be a number, got '1'",
            "pods must be a number, got True",
            "max_batch_weight must be a number, got '9000'",
            "slo_ttft_ms must be a number, got '500'",
            "capacity[A10-24GB] must be a number, got '3'",
            "tenant 'chat' pods must be a number, got '2'",
            "tenant 'chat' slo_ttft_ms must be a number, got True",
            "tenant 'batch' max_batch_weight must be a number, got '100'",
        ]
        assert any("unknown router" in e for e in errors[10:])
        with pytest.raises(ValueError, match="duration_s must be a number"):
            ScenarioSpec.from_dict(fleet_spec(duration_s="abc"))

    def test_int_too_large_for_a_float_is_not_finite(self):
        with pytest.raises(ValueError, match="^duration_s must be finite, got 1000"):
            ScenarioSpec.from_dict(fleet_spec(duration_s=10**400))

    def test_null_slo_means_no_slo(self):
        spec = ScenarioSpec.from_dict(fleet_spec(slo_ttft_ms=None))
        assert spec.slo_ttft_ms is None

    @pytest.mark.parametrize(
        "spec, error",
        [
            (fleet_spec(duration_s=math.inf), "duration_s must be finite, got inf"),
            (fleet_spec(warmup_s=math.nan), "warmup_s must be finite, got nan"),
            (fleet_spec(slo_ttft_ms=math.inf), "slo_ttft_ms must be finite, got inf"),
            (
                fleet_spec(traffic={"kind": "closed", "users": [4]}),
                "traffic[closed] users must be a number, got [4]",
            ),
            (
                fleet_spec(traffic={"kind": "poisson", "rate_per_s": math.nan}),
                "traffic[poisson] rate_per_s must be finite, got nan",
            ),
            (
                fleet_spec(traffic={"kind": "poisson", "rate_per_s": "2"}),
                "traffic[poisson] rate_per_s must be a number, got '2'",
            ),
            (
                fleet_spec(
                    traffic={
                        "kind": "replay",
                        "arrivals": REPLAY_ARRIVALS,
                        "speedup": True,
                        "bootstrap": {"n": "50", "seed": math.inf},
                    }
                ),
                "traffic[replay] speedup must be a number, got True; "
                "traffic[replay] bootstrap n must be a number, got '50'; "
                "traffic[replay] bootstrap seed must be finite, got inf",
            ),
            (
                fleet_spec(admission={"mode": "shed", "window_s": "30"}),
                "admission window_s must be a number, got '30'",
            ),
            (
                fleet_spec(autoscaler={"min_pods": "abc"}),
                "autoscaler min_pods must be a number, got 'abc'",
            ),
            (
                fleet_spec(autoscaler={"min_pods": "2"}),
                "autoscaler min_pods must be a number, got '2'",
            ),
            (
                fleet_spec(workload={"requests": math.inf}),
                "workload requests must be finite, got inf",
            ),
            (
                fleet_spec(faults={"zones": [2]}),
                "faults zones must be a number, got [2]",
            ),
            (
                fleet_spec(faults={"zones": True}),
                "faults zones must be a number, got True",
            ),
            (fleet_spec(faults={"seed": "3"}), "faults seed must be a number, got '3'"),
            (
                fleet_spec(
                    faults={
                        "events": [
                            {
                                "kind": "crash",
                                "time_s": "abc",
                                "restart_delay_s": math.inf,
                            }
                        ]
                    }
                ),
                "faults event[0] time_s must be a number, got 'abc'; "
                "faults event[0] restart_delay_s must be finite, got inf",
            ),
            (
                cluster_spec(
                    tenants=[
                        {
                            "name": "chat",
                            "traffic": {"kind": "poisson", "rate_per_s": math.inf},
                            "autoscaler": {"max_pods": True},
                            "faults": {"zones": "2"},
                        }
                    ]
                ),
                "tenant 'chat' traffic[poisson] rate_per_s must be finite, got inf; "
                "tenant 'chat' autoscaler max_pods must be a number, got True; "
                "tenant 'chat' faults zones must be a number, got '2'",
            ),
            (
                cluster_spec(
                    cloud={
                        "max_cloud_pods": "abc",
                        "seed": math.nan,
                        "quota": {"A10-24GB": "3"},
                        "catalog": {
                            "A10-24GB": {
                                "on_demand": 1.0,
                                "spot": "x",
                                "reserved": None,
                            }
                        },
                    }
                ),
                "cloud max_cloud_pods must be a number, got 'abc'; "
                "cloud seed must be finite, got nan; "
                "cloud quota[A10-24GB] must be a number, got '3'; "
                "cloud catalog[A10-24GB] spot must be a number, got 'x'; "
                "cloud catalog[A10-24GB] reserved must be a number, got None",
            ),
            (
                fleet_spec(
                    router={"kind": "weight-aware", "heavy_pod_fraction": "0.5"}
                ),
                "router[weight-aware] heavy_pod_fraction must be a number, got '0.5'",
            ),
            (
                fleet_spec(router={"kind": "weight-aware", "window": 1e400}),
                "router[weight-aware] window must be finite, got inf",
            ),
            (
                cluster_spec(
                    tenants=[
                        {
                            "name": "chat",
                            "traffic": {"kind": "poisson", "rate_per_s": 1.0},
                            "router": {"kind": "weight-aware", "warmup": True},
                        }
                    ]
                ),
                "tenant 'chat' router[weight-aware] warmup must be a number, got True",
            ),
            (
                fleet_spec(expectations={"min_completed": math.inf}),
                "expectations min_completed must be finite, got inf",
            ),
            (
                fleet_spec(expectations={"p95_ttft_ms_max": math.nan}),
                "expectations p95_ttft_ms_max must be finite, got nan",
            ),
            (
                fleet_spec(
                    slo_ttft_ms=500.0,
                    expectations={"slo_attainment_min": "0.9", "max_lost": -1},
                ),
                "expectations slo_attainment_min must be a number, got '0.9'; "
                "expectations max_lost must be >= 0, got -1",
            ),
        ],
    )
    def test_section_numbers_must_be_finite(self, spec, error):
        # One error per bad field, naming its section, tenant and key.
        with pytest.raises(ValueError) as exc_info:
            ScenarioSpec.from_dict(spec)
        assert str(exc_info.value) == error

    def test_null_still_means_absent(self):
        traffic = {
            "kind": "replay",
            "arrivals": REPLAY_ARRIVALS,
            "rate_per_s": None,
            "horizon_s": None,
            "bootstrap": {"n": 8, "rate_per_s": None},
        }
        faults = {"events": [{"kind": "crash", "time_s": 1.0, "pod": None}]}
        ScenarioSpec.from_dict(fleet_spec(traffic=traffic, faults=faults)).run()
        cloud = {
            "max_cloud_pods": None,
            "price_cap_per_pod_hour": None,
            "spot_interruptions_per_hour": None,
        }
        _, policy = ScenarioSpec.from_dict(cluster_spec(cloud=cloud)).build_cloud()
        assert policy.max_cloud_pods is None
        assert policy.price_cap_per_pod_hour is None


FAULTS_SECTION = {
    "seed": 3,
    "zones": 2,
    "events": [
        {"kind": "crash", "time_s": 4.0, "restart_delay_s": 2.0},
        {"kind": "slowdown", "time_s": 6.0, "duration_s": 3.0, "factor": 2.0},
    ],
}


class TestFaultsSection:
    def test_rejects_unknown_faults_key(self):
        with pytest.raises(
            ValueError, match=r"unknown key\(s\) in faults: \['bogus'\]"
        ):
            ScenarioSpec.from_dict(
                fleet_spec(faults={"events": [], "bogus": 1})
            )

    def test_rejects_unknown_fault_kind(self):
        with pytest.raises(
            ValueError, match=r"unknown faults event\[0\] kind 'meteor'"
        ):
            ScenarioSpec.from_dict(
                fleet_spec(faults={"events": [{"kind": "meteor", "time_s": 1}]})
            )

    def test_rejects_kind_mismatched_keys(self):
        # 'factor' belongs to slowdown events, not crashes.
        with pytest.raises(ValueError, match="event\\[0\\].*factor"):
            ScenarioSpec.from_dict(
                fleet_spec(
                    faults={
                        "events": [{"kind": "crash", "time_s": 1, "factor": 2}]
                    }
                )
            )

    def test_event_needs_time(self):
        with pytest.raises(ValueError, match="time_s"):
            ScenarioSpec.from_dict(
                fleet_spec(faults={"events": [{"kind": "crash"}]})
            )

    def test_bad_event_flows_through_multi_error(self):
        spec = fleet_spec(
            duration_s=-2.0,
            faults={"events": [{"kind": "crash", "time_s": 1, "mode": "warp"}]},
        )
        with pytest.raises(ValueError) as exc_info:
            ScenarioSpec.from_dict(spec)
        msg = str(exc_info.value)
        assert "duration_s must be positive" in msg
        assert "unknown faults event[0] mode 'warp'" in msg

    def test_build_fleet_arms_injector(self):
        spec = ScenarioSpec.from_dict(fleet_spec(faults=FAULTS_SECTION))
        fleet = spec.build_fleet()
        injector = fleet.faults
        assert injector is not None
        kinds = [s.kind for s in injector.specs]
        assert kinds == ["crash", "slowdown"]
        # Zones thread through to the fleet's serial → zone mapping.
        assert {fleet.pod_zone(i) for i in range(len(fleet.pods))} == {
            "zone-0",
            "zone-1",
        }

    def test_fleet_run_records_fault_events(self):
        spec = ScenarioSpec.from_dict(fleet_spec(faults=FAULTS_SECTION))
        res = spec.run()
        assert [e.kind for e in res.fault_events[:1]] == ["crash"]
        res.verify_conservation()  # raises on any leaked request

    def test_scenario_seed_drives_injection(self):
        base = ScenarioSpec.from_dict(fleet_spec(faults=FAULTS_SECTION))
        again = ScenarioSpec.from_dict(fleet_spec(faults=FAULTS_SECTION))
        a = [(e.time_s, e.kind, e.pod) for e in base.run().fault_events]
        b = [(e.time_s, e.kind, e.pod) for e in again.run().fault_events]
        assert a == b

    def test_tenants_inherit_top_level_faults(self):
        spec = ScenarioSpec.from_dict(cluster_spec(faults=FAULTS_SECTION))
        sim = spec.build_cluster()
        for group in sim.tenants:
            assert group.fleet.faults is not None
            zones = {
                group.fleet.pod_zone(i) for i in range(len(group.fleet.pods))
            }
            assert zones <= {"zone-0", "zone-1"}

    def test_tenant_override_beats_top_level(self):
        spec_dict = cluster_spec(faults=FAULTS_SECTION)
        spec_dict["tenants"][0]["faults"] = {"events": []}
        sim = ScenarioSpec.from_dict(spec_dict).build_cluster()
        by_name = {g.name: g for g in sim.tenants}
        assert by_name["chat"].fleet.faults is None
        assert by_name["batch"].fleet.faults is not None

    def test_bad_tenant_faults_names_tenant(self):
        spec_dict = cluster_spec()
        spec_dict["tenants"][0]["faults"] = {
            "events": [{"kind": "crash", "time_s": -1}]
        }
        with pytest.raises(ValueError, match="tenant 'chat' faults"):
            ScenarioSpec.from_dict(spec_dict)


class TestBuildTraffic:
    @pytest.mark.parametrize(
        "traffic, expected",
        [
            ({"kind": "closed", "users": 4}, ClosedLoopTraffic),
            ({"kind": "poisson", "rate_per_s": 1.0}, PoissonTraffic),
            ({"kind": "diurnal", "rate_per_s": 1.0, "period_s": 60}, DiurnalTraffic),
            ({"kind": "bursty", "rate_per_s": 2.0, "mean_on_s": 5}, BurstyTraffic),
            ({"kind": "replay", "arrivals": REPLAY_ARRIVALS}, ReplayTraffic),
        ],
    )
    def test_kinds(self, traffic, expected):
        spec = ScenarioSpec.from_dict(fleet_spec(traffic=traffic))
        assert isinstance(spec.build_traffic(), expected)

    def test_replay_transforms(self):
        spec = ScenarioSpec.from_dict(
            fleet_spec(
                traffic={
                    "kind": "replay",
                    "arrivals": REPLAY_ARRIVALS,
                    "bootstrap": {"n": 50, "rate_per_s": 2.0, "seed": 5},
                }
            )
        )
        traffic = spec.build_traffic()
        assert len(traffic.log) == 50
        # Seeded: building twice replays the identical resample.
        again = spec.build_traffic()
        assert traffic.log.times_s.tolist() == again.log.times_s.tolist()


class TestBuildAndRun:
    def test_build_fleet(self):
        spec = ScenarioSpec.from_dict(
            fleet_spec(
                admission={"mode": "shed", "slo_ttft_ms": 2000},
                autoscaler={"policy": "threshold", "max_pods": 4},
            )
        )
        fleet = spec.build_fleet()
        assert isinstance(fleet, FleetSimulator)
        assert len(fleet.pods) == 2
        assert isinstance(fleet.router, AdmissionController)
        assert fleet.autoscaler is not None

    def test_spec_slo_inherited_by_admission_and_threshold(self):
        # One spec-level SLO drives shedding, threshold scaling and
        # reporting — like the CLI's single --slo-ttft-ms.
        spec = ScenarioSpec.from_dict(
            fleet_spec(
                slo_ttft_ms=500,
                admission={"mode": "shed"},
                autoscaler={"policy": "threshold"},
            )
        )
        fleet = spec.build_fleet()
        assert fleet.router.slo_p95_ttft_s == pytest.approx(0.5)
        assert fleet.autoscaler.policy.slo_p95_ttft_s == pytest.approx(0.5)
        # An explicit section value still wins.
        spec = ScenarioSpec.from_dict(
            fleet_spec(slo_ttft_ms=500, admission={"mode": "shed",
                                                   "slo_ttft_ms": 900})
        )
        assert spec.build_fleet().router.slo_p95_ttft_s == pytest.approx(0.9)
        with pytest.raises(ValueError, match="build_cluster"):
            ScenarioSpec.from_dict(cluster_spec()).build_fleet()

    def test_build_cluster_inherits_defaults(self):
        spec = ScenarioSpec.from_dict(cluster_spec(router="join-shortest-queue"))
        sim = spec.build_cluster()
        assert isinstance(sim, ClusterSimulator)
        assert [g.name for g in sim.tenants] == ["chat", "batch"]
        for group in sim.tenants:
            assert group.profile == "1xA10-24GB"
            assert group.fleet.router.name == "join-shortest-queue"
        with pytest.raises(ValueError, match="build_fleet"):
            ScenarioSpec.from_dict(fleet_spec()).build_cluster()

    def test_run_fleet_deterministic(self):
        spec = ScenarioSpec.from_dict(fleet_spec())
        a = spec.run()
        b = spec.run()
        assert a.arrivals == len(REPLAY_ARRIVALS)
        assert a.router == "weight-aware"
        assert a.requests_completed == b.requests_completed
        assert a.ttft.median_s == b.ttft.median_s

    def test_run_cluster(self):
        res = ScenarioSpec.from_dict(cluster_spec()).run()
        assert res.tenants == ["chat", "batch"]
        assert res.results["batch"].arrivals == len(REPLAY_ARRIVALS)


class TestCloudSection:
    def test_cloud_needs_tenants(self):
        with pytest.raises(ValueError, match="a cloud section needs tenants"):
            ScenarioSpec.from_dict(fleet_spec(cloud={"mode": "spot"}))

    def test_rejects_unknown_cloud_key(self):
        with pytest.raises(ValueError, match="unknown key.*cloud.*modez"):
            ScenarioSpec.from_dict(cluster_spec(cloud={"modez": "spot"}))

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="unknown cloud mode"):
            ScenarioSpec.from_dict(cluster_spec(cloud={"mode": "prepaid"}))

    def test_rejects_negative_limits(self):
        with pytest.raises(ValueError, match="max_cloud_pods must be >= 0"):
            ScenarioSpec.from_dict(cluster_spec(cloud={"max_cloud_pods": -1}))
        with pytest.raises(ValueError, match=r"quota\[A10-24GB\] must be >= 0"):
            ScenarioSpec.from_dict(
                cluster_spec(cloud={"quota": {"A10-24GB": -2}})
            )

    def test_catalog_entry_needs_every_price(self):
        with pytest.raises(
            ValueError, match="cloud catalog\\[A10-24GB\\] needs 'spot'"
        ):
            ScenarioSpec.from_dict(
                cluster_spec(
                    cloud={
                        "catalog": {
                            "A10-24GB": {"on_demand": 1.0, "reserved": 0.5}
                        }
                    }
                )
            )

    def test_build_cloud_defaults(self):
        spec = ScenarioSpec.from_dict(cluster_spec())
        assert spec.build_cloud() is None

    def test_build_cloud_applies_quota_and_mode(self):
        spec = ScenarioSpec.from_dict(
            cluster_spec(
                cloud={
                    "mode": "spot",
                    "max_cloud_pods": 4,
                    "quota": {"A10-24GB": 2},
                    "seed": 7,
                }
            )
        )
        ledger, policy = spec.build_cloud()
        assert policy.mode == "spot"
        assert policy.max_cloud_pods == 4
        assert ledger.seed == 7
        assert ledger.rented.available("A10-24GB") == 2

    def test_custom_catalog_prices_win(self):
        spec = ScenarioSpec.from_dict(
            cluster_spec(
                cloud={
                    "catalog": {
                        "A10-24GB": {
                            "on_demand": 2.0, "spot": 0.0, "reserved": 1.0
                        }
                    }
                }
            )
        )
        ledger, _ = spec.build_cloud()
        profile = ledger.catalog.instances["A10-24GB"]
        assert profile.on_demand == 2.0
        assert profile.spot == 0.0  # zero-price entries are legal

    def test_run_cluster_with_cloud(self):
        spec_dict = cluster_spec(
            capacity={"A10-24GB": 2},
            cloud={"mode": "on-demand", "max_cloud_pods": 2},
        )
        for tenant in spec_dict["tenants"]:
            tenant["autoscaler"] = {"max_pods": 3}
        res = ScenarioSpec.from_dict(spec_dict).run()
        assert res.cloud_catalog is not None
        # Identical spec, identical bill: the ledger seed comes from the
        # scenario seed so repeated runs are deterministic.
        again = ScenarioSpec.from_dict(spec_dict).run()
        assert [e.__dict__ for e in res.cloud_events] == [
            e.__dict__ for e in again.cloud_events
        ]


class TestLoad:
    def test_load_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(fleet_spec()))
        spec = ScenarioSpec.load(str(path))
        assert spec.name == "fleet-test"
        assert not spec.is_cluster

    def test_load_yaml(self, tmp_path):
        yaml = pytest.importorskip("yaml")
        path = tmp_path / "scenario.yaml"
        path.write_text(yaml.safe_dump(fleet_spec()))
        spec = ScenarioSpec.load(str(path))
        assert spec.name == "fleet-test"
        assert spec.traffic["kind"] == "replay"

    def test_load_bad_json(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text("{not json")
        with pytest.raises(ValueError):
            ScenarioSpec.load(str(path))

    def test_load_error_names_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(fleet_spec(duration_s=-5.0)))
        with pytest.raises(ValueError, match="broken.json.*duration_s"):
            ScenarioSpec.load(str(path))


class TestScenarioCLI:
    def test_simulate_scenario(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet_spec()))
        rc = main(["simulate", "--scenario", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "replay traffic, weight-aware routing" in out
        assert "Llama-2-7b on 2x 1xA10-24GB" in out

    def test_simulate_scenario_rejects_cluster_spec(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(cluster_spec()))
        rc = main(["simulate", "--scenario", str(path)])
        assert rc == 2
        assert "cluster-sim --scenario" in capsys.readouterr().err

    def test_simulate_scenario_missing_file(self, capsys):
        rc = main(["simulate", "--scenario", "no-such-scenario.json"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_cluster_sim_scenario(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(cluster_spec()))
        rc = main(["cluster-sim", "--scenario", str(path)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 tenants on one clock" in out
        assert "Peak GPU occupancy" in out

    def test_cluster_sim_scenario_json_output(self, tmp_path, capsys):
        path = tmp_path / "cluster.json"
        path.write_text(json.dumps(cluster_spec()))
        rc = main(["cluster-sim", "--scenario", str(path), "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert [t["name"] for t in data["tenants"]] == ["chat", "batch"]
        assert data["capacity"] == {"A10-24GB": 3}

    def test_cluster_sim_scenario_rejects_fleet_spec(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps(fleet_spec()))
        rc = main(["cluster-sim", "--scenario", str(path)])
        assert rc == 2
        assert "simulate --scenario" in capsys.readouterr().err
