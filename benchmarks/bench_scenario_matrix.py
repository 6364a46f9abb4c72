"""Scenario-matrix benchmark: the curated library, end to end, gated.

Every scenario in the top-level ``scenarios/`` directory is loaded,
run, conservation-checked and scored against the ``expectations:``
block it declares — all hard-asserted, smoke and full scale alike (the
curated scenarios are already sized to run in seconds, so smoke mode
changes nothing about them). Scenarios that declare
``fast_oracle_parity`` are additionally replayed through the reference
simulator (``repro.simulation.reference``) and must match the
production run bit for bit.

The run writes ``BENCH_scenario_matrix.json`` (uploaded as a CI
artifact) with per-scenario pass/fail, every expectation check and the
headline metrics, plus one rendered sample HTML report
(``BENCH_scenario_report.html``) proving the report pipeline works on a
real library result.
"""

import json
import os

from benchmarks.conftest import write_report
from repro.report import render_report
from repro.simulation import evaluate_expectations, list_scenarios, load_by_name
from repro.simulation.reference import run_scenario

#: The scenario whose rendered report ships as the sample CI artifact —
#: a chaos run, so the artifact shows fault annotations, not just the
#: happy path.
SAMPLE_REPORT_SCENARIO = "pod-crash-recovery"

PARITY_FIELDS = (
    "arrivals",
    "admitted",
    "shed",
    "requests_completed",
    "completed_total",
    "lost",
    "requeued",
    "tokens_generated",
)


def _run_one(name):
    spec = load_by_name(name)
    result = spec.run(keep_samples=True)
    result.verify_conservation()
    report = evaluate_expectations(spec, result)
    entry = {
        "passed": report.passed,
        "checks": [
            {
                "name": check.name,
                "bound": check.bound,
                "observed": check.observed,
                "passed": check.passed,
            }
            for check in report.checks
        ],
        "summary": result.summary(),
    }
    parity = bool((spec.expectations or {}).get("fast_oracle_parity"))
    if parity:
        oracle = run_scenario(spec, keep_samples=True)
        mismatches = [
            field
            for field in PARITY_FIELDS
            if getattr_chain(result, field) != getattr_chain(oracle, field)
        ]
        if result.kind == "fleet" and result.ttft.p95_s != oracle.ttft.p95_s:
            mismatches.append("ttft.p95_s")
        entry["fast_oracle_parity"] = {"mismatches": mismatches}
    return spec, result, report, entry


def getattr_chain(result, field):
    if result.kind == "cluster":
        return sum(getattr(r, field) for r in result.results.values())
    return getattr(result, field)


def test_scenario_matrix(benchmark, results_dir):
    names = list_scenarios()
    assert names, "the scenarios/ library is empty"

    def run():
        matrix = {}
        sample_html = None
        for name in names:
            spec, result, report, entry = _run_one(name)
            matrix[name] = entry
            if name == SAMPLE_REPORT_SCENARIO:
                slo_s = (
                    spec.slo_ttft_ms / 1e3
                    if spec.slo_ttft_ms is not None and result.kind == "fleet"
                    else None
                )
                payload = (
                    result.to_dict(slo_p95_ttft_s=slo_s)
                    if result.kind == "fleet"
                    else result.to_dict()
                )
                sample_html = render_report(
                    payload, title=f"Scenario: {name}"
                )
        return matrix, sample_html

    matrix, sample_html = benchmark.pedantic(run, rounds=1, iterations=1)

    write_report(
        results_dir,
        "BENCH_scenario_matrix.json",
        json.dumps({"scenarios": matrix}, indent=2),
    )
    if sample_html is not None:
        path = os.path.join(results_dir, "BENCH_scenario_report.html")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(sample_html)
        print(f"[sample report written to {path}]")

    # Hard gates: every curated scenario passes every bound it declares,
    # no check is silently skipped, and every declared parity holds.
    failures = {
        name: [c["name"] for c in entry["checks"] if c["passed"] is not True]
        for name, entry in matrix.items()
        if not entry["passed"]
        or any(c["passed"] is not True for c in entry["checks"])
    }
    assert not failures, f"scenario expectations failed: {failures}"
    parity_breaks = {
        name: entry["fast_oracle_parity"]["mismatches"]
        for name, entry in matrix.items()
        if entry.get("fast_oracle_parity", {}).get("mismatches")
    }
    assert not parity_breaks, f"fast/oracle divergence: {parity_breaks}"
    assert sample_html is not None and "http" not in sample_html
