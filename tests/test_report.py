"""HTML run reports: self-contained output, stable section anchors, and
identical rendering for live results and replayed ``--json`` files."""

import json

import pytest

from repro.cli import main
from repro.hardware import aws_like_pricing
from repro.report import render_report
from repro.simulation import load_by_name

FLEET_ANCHORS = [
    "overview",
    "latency",
    "throughput",
    "scale-events",
    "faults",
    "pods",
]
CLUSTER_ANCHORS = [
    "overview",
    "occupancy",
    "tenants",
    "contention",
    "billing",
    "faults",
]


def _assert_self_contained(html):
    # The whole point of the report: it must open from file:// on an
    # air-gapped machine. No URL of any scheme may appear — this also
    # forbids the conventional SVG xmlns attribute, which HTML5 inline
    # SVG does not need.
    assert "http://" not in html
    assert "https://" not in html
    assert "<script" not in html
    assert "<link" not in html
    assert html.startswith("<!DOCTYPE html>")


def _anchored(html, anchor):
    return f'id="{anchor}"' in html


@pytest.fixture(scope="module")
def fleet_fault_result():
    spec = load_by_name("pod-crash-recovery")
    result = spec.run(keep_samples=True)
    result.verify_conservation()
    return spec, result


@pytest.fixture(scope="module")
def cluster_cloud_result():
    spec = load_by_name("spot-burst-hybrid")
    result = spec.run(keep_samples=True)
    result.verify_conservation()
    return spec, result


class TestFleetReport:
    def test_self_contained_with_all_sections(self, fleet_fault_result):
        spec, result = fleet_fault_result
        html = render_report(
            result.to_dict(slo_p95_ttft_s=spec.slo_ttft_ms / 1e3)
        )
        _assert_self_contained(html)
        for anchor in FLEET_ANCHORS:
            assert _anchored(html, anchor), anchor

    def test_fault_annotations_present(self, fleet_fault_result):
        _, result = fleet_fault_result
        html = render_report(result.to_dict())
        # Fault events are drawn as chart rules and tabled in #faults.
        assert "event-fault" in html
        assert "crash" in html
        assert "slowdown" in html

    def test_renders_live_result_object(self, fleet_fault_result):
        # A SimResult (not just its payload dict) flows through the
        # same path.
        _, result = fleet_fault_result
        html = render_report(result)
        _assert_self_contained(html)
        assert _anchored(html, "overview")

    def test_custom_title_is_escaped(self, fleet_fault_result):
        _, result = fleet_fault_result
        html = render_report(result.to_dict(), title="<crash> & burn")
        assert "<title>&lt;crash&gt; &amp; burn</title>" in html


class TestClusterReport:
    def test_self_contained_with_all_sections(self, cluster_cloud_result):
        spec, result = cluster_cloud_result
        html = render_report(result.to_dict(pricing=aws_like_pricing()))
        _assert_self_contained(html)
        for anchor in CLUSTER_ANCHORS + ["cloud"]:
            assert _anchored(html, anchor), anchor
        # Per-tenant drill-down sections exist for every tenant.
        for tenant in ("api", "background"):
            assert _anchored(html, f"tenant-{tenant}"), tenant

    def test_billing_populated_with_pricing(self, cluster_cloud_result):
        _, result = cluster_cloud_result
        html = render_report(result.to_dict(pricing=aws_like_pricing()))
        assert "tier breakdown" in html
        assert "total cost ($)" in html

    def test_billing_absent_without_pricing(self, cluster_cloud_result):
        _, result = cluster_cloud_result
        html = render_report(result.to_dict())
        assert "No pricing table was supplied" in html

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind 'mystery'"):
            render_report({"kind": "mystery"})


def _section(html, anchor, next_anchor):
    start = html.index(f'id="{anchor}"')
    return html[start : html.index(f'id="{next_anchor}"', start)]


def _table_rows(section):
    """Body rows of the section's table, one string of cells per row."""
    body = section[section.index("<tbody>") : section.index("</tbody>")]
    return body.split("<tr>")[1:]


class TestEventFlags:
    """A cell is marked bad, and a fault row gets ⚠, by the same rule
    the result types state: ``ScaleEvent.constraint`` and
    ``FaultEvent.disruptive``."""

    def test_unconstrained_scale_events_not_flagged(self):
        result = load_by_name("diurnal-retail").run()
        assert result.scale_events
        assert not any(e.constraint for e in result.scale_events)
        html = render_report(result.to_dict())
        assert 'class="bad"' not in _section(html, "scale-events", "faults")

    def test_constrained_scale_events_flagged(self):
        cluster = load_by_name("contended-elastic-cluster").run()
        fleet = cluster.results["search"]
        constrained = sum(1 for e in fleet.scale_events if e.constraint)
        assert 0 < constrained < len(fleet.scale_events)
        html = render_report(fleet.to_dict())
        section = _section(html, "scale-events", "faults")
        assert section.count('class="bad"') == constrained

    def test_factor_only_on_slowdown_start(self, fleet_fault_result):
        _, result = fleet_fault_result
        html = render_report(result.to_dict())
        rows = _table_rows(_section(html, "faults", "pods"))
        kinds = [e.kind for e in result.fault_events]
        assert kinds == ["crash", "slowdown-start", "slowdown-end"]
        crash, start, end = rows
        assert "<td>⚠ crash</td>" in crash
        assert "slowdown" not in crash
        assert "restart 37s" in crash
        assert "<td>⚠ slowdown-start</td>" in start
        assert "×3 slowdown" in start
        assert "<td>slowdown-end</td>" in end
        assert "×" not in end

    @pytest.mark.parametrize(
        "kind",
        ["crash", "zone-outage", "spot-preempt", "slowdown-start", "slowdown-end"],
    )
    def test_warning_marker_follows_fault_event(self, fleet_fault_result, kind):
        from repro.simulation.faults import FaultEvent
        from repro.simulation.results import fault_event_dict

        _, result = fleet_fault_result
        payload = result.to_dict()
        event = FaultEvent(time_s=1.0, kind=kind, zone="zone-0")
        payload["fault_events"] = [fault_event_dict(event)]
        html = render_report(payload)
        (row,) = _table_rows(_section(html, "faults", "pods"))
        assert (f"<td>⚠ {kind}</td>" in row) is event.disruptive


class TestReportCommand:
    def test_roundtrip_from_json_file(self, tmp_path, capsys):
        # simulate --json | report must render the same document the
        # live path produces (same payload, same renderer).
        rc = main(
            ["simulate", "--scenario-name", "pod-crash-recovery", "--json"]
        )
        assert rc == 0
        payload_text = capsys.readouterr().out
        src = tmp_path / "run.json"
        src.write_text(payload_text)
        out = tmp_path / "run.html"
        rc = main(["report", str(src), "--out", str(out)])
        assert rc == 0
        assert f"wrote {out}" in capsys.readouterr().out
        html = out.read_text()
        _assert_self_contained(html)
        for anchor in FLEET_ANCHORS:
            assert _anchored(html, anchor), anchor
        assert html == render_report(json.loads(payload_text))

    def test_live_scenario_by_name(self, tmp_path, capsys):
        out = tmp_path / "live.html"
        rc = main(
            [
                "report",
                "--scenario-name", "steady-poisson-baseline",
                "--out", str(out),
            ]
        )
        assert rc == 0
        html = out.read_text()
        _assert_self_contained(html)
        assert _anchored(html, "latency")

    def test_live_cluster_scenario_has_billing(self, tmp_path, capsys):
        out = tmp_path / "cluster.html"
        rc = main(
            ["report", "--scenario-name", "noisy-neighbor", "--out", str(out)]
        )
        assert rc == 0
        html = out.read_text()
        _assert_self_contained(html)
        for anchor in CLUSTER_ANCHORS:
            assert _anchored(html, anchor), anchor
        assert "tier breakdown" in html  # live cluster runs are priced

    def test_default_output_name_derives_from_input(
        self, tmp_path, capsys, monkeypatch
    ):
        rc = main(
            ["simulate", "--scenario-name", "closed-loop-chat", "--json"]
        )
        assert rc == 0
        (tmp_path / "chat.json").write_text(capsys.readouterr().out)
        monkeypatch.chdir(tmp_path)
        rc = main(["report", "chat.json"])
        assert rc == 0
        assert (tmp_path / "chat-report.html").exists()

    def test_requires_exactly_one_input(self, tmp_path, capsys):
        rc = main(["report"])
        assert rc == 2
        assert "exactly one input" in capsys.readouterr().err
        rc = main(
            [
                "report", "x.json",
                "--scenario-name", "noisy-neighbor",
            ]
        )
        assert rc == 2
        assert "exactly one input" in capsys.readouterr().err

    def test_batch_array_rejected(self, tmp_path, capsys):
        src = tmp_path / "batch.json"
        src.write_text(json.dumps([{"kind": "cluster"}, {"kind": "cluster"}]))
        rc = main(["report", str(src)])
        assert rc == 2
        assert "batch array" in capsys.readouterr().err

    def test_unknown_kind_exits_2(self, tmp_path, capsys):
        src = tmp_path / "odd.json"
        src.write_text(json.dumps({"kind": "recommendation"}))
        rc = main(["report", str(src)])
        assert rc == 2
        assert "kind" in capsys.readouterr().err

    def test_missing_file_exits_2(self, capsys):
        rc = main(["report", "no-such-file.json"])
        assert rc == 2
        assert "no-such-file.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "case, needle",
        [
            pytest.param("truncated", "invalid JSON", id="truncated"),
            pytest.param("no-ttft", "'ttft'", id="missing-field"),
            pytest.param(
                "tenant-no-arrivals", "'arrivals'", id="tenant-missing-field"
            ),
            pytest.param("per-pod-string", None, id="per-pod-not-a-list"),
            pytest.param("ttft-null", None, id="ttft-null"),
        ],
    )
    def test_malformed_json_error_names_the_file(
        self, tmp_path, capsys, fleet_fault_result, cluster_cloud_result,
        case, needle,
    ):
        payload = fleet_fault_result[1].to_dict()
        if case == "no-ttft":
            del payload["ttft"]
        elif case == "tenant-no-arrivals":
            payload = cluster_cloud_result[1].to_dict()
            del payload["tenants"][0]["arrivals"]
        elif case == "per-pod-string":
            payload["per_pod"] = "x"
        elif case == "ttft-null":
            payload["ttft"] = None
        text = json.dumps(payload)
        if case == "truncated":
            text = '{"kind": "fleet", "arrivals": '
        src = tmp_path / f"{case}.json"
        src.write_text(text)
        rc = main(["report", str(src)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert f"{case}.json" in err
        if needle is not None:
            assert needle in err

    def test_scenario_name_miss_lists_names(self, capsys):
        rc = main(["report", "--scenario-name", "nope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown scenario name" in err
        assert "available:" in err

    @pytest.mark.parametrize(
        "spec, error",
        [
            (
                {
                    "name": "overcommitted",
                    "duration_s": 10.0,
                    "llm": "Llama-2-7b",
                    "profile": "1xA10-24GB",
                    "workload": {"requests": 2000},
                    "capacity": {"A10-24GB": 1},
                    "tenants": [
                        {
                            "name": "chat",
                            "pods": 2,
                            "traffic": {"kind": "poisson", "rate_per_s": 1.0},
                        }
                    ],
                },
                "does not fit the inventory",
            ),
            (
                {
                    "name": "dead-fleet",
                    "duration_s": 10.0,
                    "llm": "Llama-2-7b",
                    "profile": "1xA10-24GB",
                    "pods": 1,
                    "workload": {"requests": 2000},
                    "traffic": {"kind": "poisson", "rate_per_s": 1.0},
                    "faults": {"events": [{"kind": "crash", "time_s": 2.0}]},
                },
                "a fault killed the whole fleet",
            ),
        ],
    )
    def test_unrunnable_scenario_exits_2(self, tmp_path, capsys, spec, error):
        # Same contract as simulate/cluster-sim --scenario: a spec that
        # cannot be built or run is user input, not a simulator bug.
        src = tmp_path / "spec.json"
        src.write_text(json.dumps(spec))
        out = tmp_path / "report.html"
        rc = main(["report", "--scenario", str(src), "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert error in err
        assert not out.exists()
