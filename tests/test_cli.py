"""Tests for the repro-pilot command-line interface."""

import json

import pytest

from repro.characterization import PerfDataset
from repro.cli import build_parser, main
from repro.traces import TraceDataset


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_traces_args(self):
        args = build_parser().parse_args(
            ["traces", "--requests", "500", "--out", "x.npz"]
        )
        assert args.command == "traces"
        assert args.requests == 500

    def test_recommend_defaults(self):
        args = build_parser().parse_args(
            ["recommend", "--dataset", "d.npz", "--llm", "Llama-2-7b"]
        )
        assert args.users == 200
        assert args.nttft_ms == 100.0
        assert args.itl_ms == 50.0

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.traffic == "poisson"
        assert args.router == "least-loaded"
        assert args.pods == 2

    def test_simulate_rejects_unknown_router(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["simulate", "--router", "random"])

    def test_recommend_elastic_defaults(self):
        args = build_parser().parse_args(["recommend-elastic"])
        assert args.command == "recommend-elastic"
        assert args.penalty == "linear"
        assert args.static_pods == 0
        assert args.headroom == 2
        assert not args.json

    def test_recommend_elastic_rejects_unknown_penalty(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["recommend-elastic", "--penalty", "cubic"])

    def test_cluster_sim_requires_tenant_and_capacity(self, capsys):
        # Tenants/capacity moved to runtime validation so that
        # --scenario FILE can replace them wholesale.
        rc = main(["cluster-sim"])
        assert rc == 2
        assert "--tenant and --capacity" in capsys.readouterr().err
        rc = main(
            ["cluster-sim", "--tenant", "a:Llama-2-7b:1xT4-16GB:1:poisson:1"]
        )
        assert rc == 2
        assert "--tenant and --capacity" in capsys.readouterr().err

    def test_simulate_replay_requires_arrivals(self, capsys):
        rc = main(["simulate", "--traffic", "replay", "--requests", "3000"])
        assert rc == 2
        assert "--arrivals" in capsys.readouterr().err


class TestCommands:
    def test_traces_command(self, tmp_path, capsys):
        out = str(tmp_path / "traces.npz")
        rc = main(["traces", "--requests", "2000", "--seed", "1", "--out", out])
        assert rc == 0
        loaded = TraceDataset.load(out)
        assert len(loaded) == 2000
        assert "Wrote 2,000 requests" in capsys.readouterr().out

    def test_characterize_command(self, tmp_path, capsys):
        out = str(tmp_path / "dataset.npz")
        rc = main(
            [
                "characterize",
                "--requests", "5000",
                "--llm", "google/flan-t5-xl",
                "--llm", "Llama-2-7b",
                "--duration", "5",
                "--out", out,
            ]
        )
        assert rc == 0
        ds = PerfDataset.load(out)
        assert set(ds.llms()) == {"google/flan-t5-xl", "Llama-2-7b"}
        assert "Characterized" in capsys.readouterr().out

    def test_characterize_unknown_llm(self, tmp_path, capsys):
        rc = main(
            [
                "characterize",
                "--requests", "2000",
                "--llm", "not-a-model",
                "--out", str(tmp_path / "x.npz"),
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_recommend_command(self, tmp_path, capsys):
        dataset_path = str(tmp_path / "dataset.npz")
        rc = main(
            [
                "characterize",
                "--requests", "5000",
                "--llm", "google/flan-t5-xl",
                "--llm", "google/flan-t5-xxl",
                "--llm", "Llama-2-7b",
                "--duration", "5",
                "--out", dataset_path,
            ]
        )
        assert rc == 0
        rc = main(
            [
                "recommend",
                "--dataset", dataset_path,
                "--llm", "Llama-2-13b",
                "--users", "50",
                "--requests", "5000",
                "--itl-ms", "80",
            ]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)  # recommendation or honest infeasibility
        assert "Assessments for Llama-2-13b" in out

    def test_recommend_excludes_own_rows(self, tmp_path, capsys):
        dataset_path = str(tmp_path / "dataset.npz")
        main(
            [
                "characterize",
                "--requests", "5000",
                "--llm", "google/flan-t5-xl",
                "--llm", "Llama-2-7b",
                "--duration", "5",
                "--out", dataset_path,
            ]
        )
        rc = main(
            [
                "recommend",
                "--dataset", dataset_path,
                "--llm", "Llama-2-7b",
                "--users", "20",
                "--requests", "5000",
            ]
        )
        out = capsys.readouterr().out
        assert "excluded Llama-2-7b's own rows" in out
        assert rc in (0, 1)

    def test_info_command(self, capsys):
        rc = main(["info", "--requests", "3000"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "LLM catalog" in out
        assert "Workload generator" in out

    def test_simulate_command(self, capsys):
        rc = main(
            [
                "simulate",
                "--requests", "3000",
                "--pods", "2",
                "--traffic", "bursty",
                "--rate", "4",
                "--duration", "10",
                "--router", "join-shortest-queue",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "bursty traffic, join-shortest-queue routing" in out
        assert "TTFT p50/p95/p99" in out

    def test_simulate_closed_loop_command(self, capsys):
        rc = main(
            [
                "simulate",
                "--requests", "3000",
                "--traffic", "closed",
                "--users", "4",
                "--duration", "10",
            ]
        )
        assert rc == 0
        assert "closed-loop traffic" in capsys.readouterr().out

    def test_simulate_unknown_llm(self, capsys):
        rc = main(["simulate", "--requests", "3000", "--llm", "not-a-model"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_simulate_json_schema(self, capsys):
        rc = main(
            ["simulate", "--requests", "3000", "--duration", "10", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "fleet"
        assert data["fault_events"] == []
        assert data["lost"] == 0
        assert data["arrivals"] == data["admitted"] + data["shed"]
        assert {"ttft", "itl", "e2e", "per_pod", "scale_events"} <= set(data)
        assert all(p["zone"] == "zone-0" for p in data["per_pod"])

    def test_simulate_fault_flag(self, capsys):
        rc = main(
            [
                "simulate",
                "--requests", "3000",
                "--duration", "20",
                "--rate", "4",
                "--fault", "crash@5:restart=5",
                "--fault", "slowdown@8:duration=4,factor=3",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        kinds = [e["kind"] for e in data["fault_events"]]
        assert "crash" in kinds
        assert "slowdown-start" in kinds and "slowdown-end" in kinds
        assert data["admitted"] == (
            data["completed_total"] + data["in_flight_end"] + data["lost"]
        )

    def test_simulate_zone_outage_zones_flag(self, capsys):
        rc = main(
            [
                "simulate",
                "--requests", "3000",
                "--pods", "4",
                "--zones", "2",
                "--duration", "20",
                "--fault", "zone-outage@6:zone=zone-1,restart=5",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert {p["zone"] for p in data["per_pod"]} == {"zone-0", "zone-1"}
        assert any(e["kind"] == "zone-outage" for e in data["fault_events"])

    def test_simulate_bad_fault_spec_exits_2(self, capsys):
        rc = main(["simulate", "--requests", "3000", "--fault", "crash"])
        assert rc == 2
        assert "KIND@TIME" in capsys.readouterr().err

    def test_simulate_bad_fault_time_names_flag_and_field(self, capsys):
        rc = main(["simulate", "--requests", "3000", "--fault", "crash@abc"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "--fault 'crash@abc'" in err and "TIME" in err

    def test_simulate_fault_with_scenario_exits_2(self, tmp_path, capsys):
        spec = tmp_path / "s.json"
        spec.write_text(
            json.dumps(
                {
                    "duration_s": 5.0,
                    "workload": {"requests": 3000},
                    "traffic": {"kind": "poisson", "rate_per_s": 1.0},
                }
            )
        )
        rc = main(
            ["simulate", "--scenario", str(spec), "--fault", "crash@1"]
        )
        assert rc == 2
        assert "faults" in capsys.readouterr().err


POISSON = "traffic: {kind: poisson, rate_per_s: 1.0}\n"

CLUSTER_ARGS = [
    "cluster-sim",
    "--tenant", "chat:Llama-2-13b:1xA100-80GB:1:poisson:4.0",
    "--tenant", "code:Llama-2-13b:1xA100-80GB:1:poisson:4.0",
    "--capacity", "A100-80GB=3",
    "--max-batch-weight", "20000",
    "--duration", "30",
    "--requests", "3000",
]


class TestClusterSimCommand:
    def test_runs_and_reports(self, capsys):
        rc = main(CLUSTER_ARGS)
        assert rc == 0
        out = capsys.readouterr().out
        assert "2 tenants on one clock" in out
        assert "Peak GPU occupancy" in out

    def test_json_output_schema(self, capsys):
        rc = main(CLUSTER_ARGS + ["--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "kind", "duration_s", "capacity", "total_cost", "peak_occupancy",
            "cloud", "tenants", "contended_scale_events", "fault_events",
            "series",
        }
        assert data["kind"] == "cluster"
        assert data["capacity"] == {"A100-80GB": 3}
        assert data["cloud"] is None
        assert data["fault_events"] == []
        assert [t["name"] for t in data["tenants"]] == ["chat", "code"]
        for tenant in data["tenants"]:
            assert tenant["arrivals"] >= 0
            assert tenant["pod_seconds"] >= 0
            assert tenant["cost"] >= 0
            assert tenant["lost"] == 0
            assert tenant["requeued"] == 0
        for event in data["contended_scale_events"]:
            assert event["constraint"] in ("denied", "clipped")
            assert event["tenant"] in ("chat", "code")
        assert data["peak_occupancy"]["A100-80GB"] <= 3

    def test_policy_none_and_admission(self, capsys):
        rc = main(CLUSTER_ARGS + ["--policy", "none", "--admission", "shed"])
        assert rc == 0
        assert "tenants on one clock" in capsys.readouterr().out

    def test_fault_flag_hits_every_tenant(self, capsys):
        rc = main(CLUSTER_ARGS + ["--fault", "crash@10:restart=5", "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        # The same fault schedule is injected per tenant (independent
        # victim draws), so each tenant records one crash.
        assert sorted(e["tenant"] for e in data["fault_events"]) == [
            "chat", "code",
        ]
        assert all(e["kind"] == "crash" for e in data["fault_events"])

    def test_autoscale_json_has_recovery_block(self, capsys):
        rc = main(
            [
                "simulate",
                "--requests", "3000",
                "--duration", "40",
                "--rate", "4",
                "--policy", "threshold",
                "--fault", "crash@10:restart=8",
                "--json",
            ]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "fleet"
        assert "recovery" in data
        assert data["recovery"]["slo_p95_ttft_s"] == pytest.approx(2.0)

    def test_bad_tenant_spec_exits_2(self, capsys):
        rc = main(
            [
                "cluster-sim",
                "--tenant", "broken-spec",
                "--capacity", "A100-80GB=2",
                "--requests", "3000",
            ]
        )
        assert rc == 2
        assert "tenant spec" in capsys.readouterr().err

    def test_bad_capacity_spec_exits_2(self, capsys):
        rc = main(
            [
                "cluster-sim",
                "--tenant", "a:Llama-2-13b:1xA100-80GB:1:poisson:1.0",
                "--capacity", "A100-80GB",
                "--requests", "3000",
            ]
        )
        assert rc == 2
        assert "capacity spec" in capsys.readouterr().err

    def test_unknown_llm_in_tenant_exits_2(self, capsys):
        rc = main(
            [
                "cluster-sim",
                "--tenant", "a:not-a-model:1xA100-80GB:1:poisson:1.0",
                "--capacity", "A100-80GB=2",
                "--requests", "3000",
            ]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_initial_allocation_too_big_exits_2(self, capsys):
        rc = main(
            [
                "cluster-sim",
                "--tenant", "a:Llama-2-13b:1xA100-80GB:4:poisson:1.0",
                "--capacity", "A100-80GB=2",
                "--duration", "10",
                "--requests", "3000",
            ]
        )
        assert rc == 2
        assert "initial allocation" in capsys.readouterr().err


ELASTIC_ARGS = [
    "recommend-elastic",
    "--llm", "Llama-2-13b",
    "--profile", "1xA100-80GB",
    "--max-batch-weight", "20000",
    "--traffic", "poisson",
    "--rate", "2.0",
    "--duration", "30",
    "--slo-ttft-ms", "20000",
    "--requests", "3000",
]


class TestRecommendElasticCommand:
    def test_runs_and_reports_curve(self, capsys):
        rc = main(ELASTIC_ARGS + ["--static-pods", "1"])
        assert rc in (0, 1)  # recommendation or honest infeasibility
        out = capsys.readouterr().out
        assert "Trade curve for Llama-2-13b" in out
        assert "Recommendation:" in out
        assert "static[1]" in out

    def test_json_output_schema(self, capsys):
        rc = main(ELASTIC_ARGS + ["--static-pods", "2", "--json"])
        assert rc in (0, 1)
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {
            "profile", "slo_p95_ttft_s", "chosen", "static", "curve",
            "pruned", "savings", "savings_fraction", "meets_slo",
        }
        assert data["profile"] == "1xA100-80GB"
        assert data["static"]["policy"] == "static"
        assert data["static"]["min_pods"] == 2
        assert len(data["curve"]) >= 4  # baseline + three default policies
        policies = {p["policy"] for p in data["curve"]}
        assert {"static", "threshold", "target-utilization",
                "predictive"} <= policies
        for point in data["curve"]:
            assert point["total_cost"] == pytest.approx(
                point["compute_cost"] + point["slo_penalty"]
            )
        # Exit code mirrors SLO attainment of the chosen config.
        assert rc == (0 if data["meets_slo"] else 1)

    def test_sizing_ladder_without_static_pods(self, capsys):
        rc = main(ELASTIC_ARGS + ["--search-max", "3"])
        assert rc in (0, 1)
        data_out = capsys.readouterr().out
        assert "static[1]" in data_out

    def test_unknown_llm_exits_2(self, capsys):
        rc = main(
            ["recommend-elastic", "--llm", "not-a-model", "--requests", "3000"]
        )
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_bad_static_pods_exits_2(self, capsys):
        rc = main(ELASTIC_ARGS + ["--static-pods", "-1"])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    def test_closed_loop_traffic_rejected(self, capsys):
        rc = main(
            [
                "recommend-elastic",
                "--traffic", "closed",
                "--users", "8",
                "--requests", "3000",
            ]
        )
        assert rc == 2
        assert "open-loop" in capsys.readouterr().err


class TestScenarioNameFlag:
    """--scenario-name resolves through the curated scenarios/ library,
    and scenario errors always name the offending file."""

    def test_simulate_runs_library_scenario_by_name(self, capsys):
        rc = main(
            ["simulate", "--scenario-name", "steady-poisson-baseline", "--json"]
        )
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["kind"] == "fleet"
        assert data["arrivals"] > 0

    def test_scenario_name_miss_lists_available_names(self, capsys):
        rc = main(["simulate", "--scenario-name", "no-such-scenario"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario name 'no-such-scenario'" in err
        # The miss is actionable: every curated name is listed.
        assert "steady-poisson-baseline" in err
        assert "noisy-neighbor" in err

    def test_cluster_sim_scenario_name_miss_lists_available_names(self, capsys):
        rc = main(["cluster-sim", "--scenario-name", "no-such-scenario"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario name" in err
        assert "available:" in err

    def test_scenario_name_and_file_are_mutually_exclusive(self, capsys):
        rc = main(
            [
                "simulate",
                "--scenario", "x.yaml",
                "--scenario-name", "steady-poisson-baseline",
            ]
        )
        assert rc == 2
        assert "mutually exclusive" in capsys.readouterr().err

    def test_malformed_yaml_error_names_the_file(self, tmp_path, capsys):
        spec = tmp_path / "broken.yaml"
        spec.write_text("name: [unclosed\n")
        rc = main(["simulate", "--scenario", str(spec)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "broken.yaml" in err
        assert "invalid YAML" in err

    def test_invalid_spec_error_names_the_file(self, tmp_path, capsys):
        spec = tmp_path / "bad-keys.json"
        spec.write_text(json.dumps({"durations": 5.0}))
        rc = main(["simulate", "--scenario", str(spec)])
        assert rc == 2
        err = capsys.readouterr().err
        assert "bad-keys.json" in err

    @pytest.mark.parametrize(
        "line, error",
        [
            # A list where a count belongs used to escape as a TypeError
            # traceback; an infinite duration used to run forever.
            (
                "traffic: {kind: closed, users: [4]}\nduration_s: 10\n",
                "traffic[closed] users must be a number, got [4]",
            ),
            (
                "traffic: {kind: poisson, rate_per_s: 1.0}\nduration_s: .inf\n",
                "duration_s must be finite, got inf",
            ),
            # A string router parameter used to escape as a TypeError.
            (
                "traffic: {kind: poisson, rate_per_s: 1.0}\nduration_s: 10\n"
                "router: {kind: weight-aware, heavy_pod_fraction: '0.5'}\n",
                "router[weight-aware] heavy_pod_fraction must be a number, got '0.5'",
            ),
        ],
        ids=["list-count", "infinite-duration", "string-router"],
    )
    def test_bad_section_number_names_file_and_field(
        self, tmp_path, capsys, line, error
    ):
        spec = tmp_path / "bad-number.yaml"
        spec.write_text("name: bad\nllm: Llama-2-7b\nprofile: 1xA10-24GB\n" + line)
        rc = main(["simulate", "--scenario", str(spec)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"error: {spec}: {error}\n"

    @pytest.mark.parametrize(
        "command, body, error",
        [
            # Each used to escape as a traceback (exit 1) or as an error
            # naming no field.
            (
                "cluster-sim",
                POISSON + "capacity: [1]\ntenants: [{name: a}]\n",
                "capacity must be a mapping, got [1]",
            ),
            (
                "simulate",
                "traffic: {kind: replay, arrivals: abc}\n",
                "traffic[replay] arrivals must be a list, got 'abc'",
            ),
            (
                "simulate",
                POISSON + "router: {kind: least-loaded, args: 1}\n",
                "unknown key(s) in router[least-loaded]: ['args'] (allowed: none)",
            ),
            (
                "simulate",
                POISSON + "router: [x]\n",
                "router must be a mapping, got ['x']",
            ),
            (
                "simulate",
                POISSON + "autoscaler: 5\n",
                "autoscaler must be a mapping, got 5",
            ),
            (
                "simulate",
                "traffic: {kind: replay, arrivals: [[0.0, 16, 8], [1.0, x, 4]]}\n",
                "traffic[replay] arrival[1] input_tokens must be a number, "
                "got 'x'",
            ),
            (
                "cluster-sim",
                POISSON + "capacity: {A10-24GB: 2}\n"
                "tenants: [{name: chat, autoscaler: {maxpods: 3}}]\n",
                "unknown key(s) in tenant 'chat' autoscaler: ['maxpods'] "
                "(allowed: policy, min_pods, max_pods, interval_s, "
                "cold_start_s, metrics_window_s, slo_ttft_ms, target, "
                "requests_per_pod_per_s)",
            ),
            # Each used to run silently changed: a string is not a
            # boolean, and a pod count is an integer.
            (
                "simulate",
                "traffic: {kind: closed, users: 2, sticky: 'false'}\n",
                "traffic[closed] sticky must be a boolean, got 'false'",
            ),
            (
                "simulate",
                "traffic: {kind: bursty, rate_per_s: 1.0, start_on: 'false'}\n",
                "traffic[bursty] start_on must be a boolean, got 'false'",
            ),
            ("simulate", POISSON + "pods: 2.5\n", "pods must be an integer, got 2.5"),
        ],
        ids=[
            "capacity-list",
            "arrivals-string",
            "router-args",
            "router-list",
            "autoscaler-int",
            "arrival-row",
            "tenant-autoscaler-key",
            "sticky-string",
            "start-on-string",
            "fractional-pods",
        ],
    )
    def test_bad_input_exits_2_naming_file_and_field(
        self, tmp_path, capsys, command, body, error
    ):
        spec = tmp_path / "bad-input.yaml"
        spec.write_text(
            "name: bad\nllm: Llama-2-7b\nprofile: 1xA10-24GB\nduration_s: 5\n"
            "workload: {requests: 2000}\n" + body
        )
        rc = main([command, "--scenario", str(spec)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: {spec}: {error}\n"

    def test_integral_float_pod_count_runs(self, tmp_path, capsys):
        spec = tmp_path / "float-pods.yaml"
        spec.write_text(
            "name: ok\nllm: Llama-2-7b\nprofile: 1xA10-24GB\nduration_s: 5\n"
            "workload: {requests: 2000}\n" + POISSON + "pods: 2.0\n"
        )
        rc = main(["simulate", "--scenario", str(spec), "--json"])
        assert rc == 0
        assert json.loads(capsys.readouterr().out)["n_pods"] == 2

    def test_missing_scenario_file_error_names_the_file(self, capsys):
        rc = main(["simulate", "--scenario", "does-not-exist.yaml"])
        assert rc == 2
        assert "does-not-exist.yaml" in capsys.readouterr().err
