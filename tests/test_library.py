"""The curated scenario library: every scenarios/ file loads, runs, and
meets the expectations it declares, with golden-pinned headline metrics.

These tests are the per-scenario test matrix the library is pinned by:
a change that silently shifts a scenario's behaviour fails the golden
pin here before it ships, and a change that breaks an expectation bound
names the scenario and the failed check.
"""

import json

import pytest

from repro.simulation import (
    DEFAULT_SCENARIO_DIR,
    ScenarioSpec,
    evaluate_expectations,
    list_scenarios,
    load_by_name,
    scenario_path,
)
from repro.simulation.reference import run_scenario

CURATED = [
    "bursty-agent-traffic",
    "closed-loop-chat",
    "contended-elastic-cluster",
    "diurnal-retail",
    "heavy-tail-replay",
    "noisy-neighbor",
    "pod-crash-recovery",
    "spot-burst-hybrid",
    "steady-poisson-baseline",
    "zone-outage-chaos",
]

# Seed-stable headline metrics per scenario (observed values behind the
# expectation checks). These pin determinism, not just the bounds: any
# drift in the simulator's arithmetic or event ordering shows up here.
GOLDEN = {
    "bursty-agent-traffic": {"completed": 83, "lost": 0, "p95_ttft_ms": 8026.872163},
    "closed-loop-chat": {"completed": 71, "lost": 0, "p95_ttft_ms": 570.995118},
    "contended-elastic-cluster": {"completed": 267, "lost": 0, "p95_ttft_ms": 40283.168267},
    "diurnal-retail": {"completed": 114, "lost": 0, "p95_ttft_ms": 18676.296816},
    "heavy-tail-replay": {"completed": 90, "lost": 0, "p95_ttft_ms": 16474.672628},
    "noisy-neighbor": {"completed": 257, "lost": 0, "p95_ttft_ms": 46064.555517},
    "pod-crash-recovery": {"completed": 90, "lost": 0, "p95_ttft_ms": 1018.570817},
    "spot-burst-hybrid": {"completed": 190, "lost": 0, "p95_ttft_ms": 12511.890466},
    "steady-poisson-baseline": {"completed": 77, "lost": 0, "p95_ttft_ms": 1006.639061},
    "zone-outage-chaos": {"completed": 140, "lost": 0, "p95_ttft_ms": 17392.082519},
}


def _run_and_evaluate(name):
    spec = load_by_name(name)
    result = spec.run(keep_samples=True)
    result.verify_conservation()
    return spec, result, evaluate_expectations(spec, result)


class TestLoader:
    def test_library_lists_every_curated_scenario(self):
        assert list_scenarios() == CURATED  # sorted by name

    def test_scenario_path_points_into_the_library(self):
        path = scenario_path("noisy-neighbor")
        assert path.parent == DEFAULT_SCENARIO_DIR
        assert path.name == "noisy-neighbor.yaml"

    def test_unknown_name_lists_available_names(self):
        with pytest.raises(ValueError) as err:
            scenario_path("nope")
        message = str(err.value)
        assert "unknown scenario name 'nope'" in message
        for name in CURATED:
            assert name in message

    def test_load_by_name_roundtrips_the_file(self):
        spec = load_by_name("steady-poisson-baseline")
        direct = ScenarioSpec.load(str(scenario_path("steady-poisson-baseline")))
        assert spec == direct

    def test_custom_directory(self, tmp_path):
        (tmp_path / "tiny.json").write_text(
            json.dumps(
                {
                    "duration_s": 5.0,
                    "workload": {"requests": 3000},
                    "traffic": {"kind": "poisson", "rate_per_s": 0.5},
                }
            )
        )
        assert list_scenarios(tmp_path) == ["tiny"]
        assert load_by_name("tiny", tmp_path).duration_s == 5.0

    def test_missing_directory_is_empty_not_an_error(self, tmp_path):
        assert list_scenarios(tmp_path / "absent") == []

    @pytest.mark.parametrize("name", CURATED)
    def test_every_scenario_loads_and_declares_expectations(self, name):
        spec = load_by_name(name)
        assert spec.name == name  # file stem and spec name agree
        assert spec.expectations, f"{name} has no expectations block"


class TestScenarioMatrix:
    @pytest.mark.parametrize("name", CURATED)
    def test_scenario_meets_its_expectations(self, name):
        spec, result, report = _run_and_evaluate(name)
        assert report.passed, report.summary()
        # Every declared bound was actually evaluated — a skipped check
        # (e.g. missing metrics) must not silently count as a pass.
        assert all(c.passed is not None for c in report.checks), report.summary()

    @pytest.mark.parametrize("name", sorted(GOLDEN))
    def test_golden_headline_metrics(self, name):
        _, _, report = _run_and_evaluate(name)
        observed = {c.name: c.observed for c in report.checks}
        golden = GOLDEN[name]
        assert int(observed["min_completed"]) == golden["completed"]
        assert int(observed["max_lost"]) == golden["lost"]
        assert observed["p95_ttft_ms_max"] == pytest.approx(
            golden["p95_ttft_ms"], rel=1e-6
        )


class TestChaosParity:
    def test_pod_crash_recovery_fast_matches_oracle(self):
        # The library's designated parity scenario: a chaos run (crash +
        # slowdown faults) must be bit-identical between the production
        # simulator and the reference one.
        spec = load_by_name("pod-crash-recovery")
        assert spec.expectations.get("fast_oracle_parity") is True
        fast = spec.run(keep_samples=True)
        oracle = run_scenario(spec, keep_samples=True)
        for field in (
            "arrivals",
            "admitted",
            "shed",
            "requests_completed",
            "completed_total",
            "lost",
            "requeued",
            "tokens_generated",
        ):
            assert getattr(fast, field) == getattr(oracle, field), field
        assert fast.ttft.p95_s == oracle.ttft.p95_s
        assert fast.itl.p95_s == oracle.itl.p95_s
        assert [e.time_s for e in fast.fault_events] == [
            e.time_s for e in oracle.fault_events
        ]
