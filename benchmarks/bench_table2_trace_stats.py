"""Table II: characteristics of the production traces.

Our trace collection is synthetic (the paper's 17.3M-request IBM traces
are proprietary — see docs/architecture.md), so the claim reproduced
here is the *structure*: months-long collection window, thousands of
users, 24 LLMs spanning 3B-176B parameters, clipped token ranges (input
1-4093, output 1-1500), client batch sizes 1-5 and a long tail of
additional request parameters.
"""

from benchmarks.conftest import write_report
from repro.utils.tables import format_table


def test_table2_trace_characteristics(benchmark, traces, results_dir):
    summary = benchmark.pedantic(traces.summary, rounds=1, iterations=1)

    assert 5.0 <= summary["time_period_months"] <= 6.0
    assert summary["n_llms"] == 24
    assert summary["n_users"] > 1000
    assert summary["input_tokens_range"][0] >= 1
    assert summary["input_tokens_range"][1] <= 4093
    assert summary["output_tokens_range"][1] <= 1500
    assert summary["batch_size_range"] == (1, 5)
    assert summary["n_additional_params"] >= 20

    rows = [
        ["Time period", f"{summary['time_period_months']:.1f} months (paper: 5.5)"],
        ["Number of requests", f"{summary['n_requests']:,} (paper: 17.3M; scaled down)"],
        ["Number of users", f"{summary['n_users']:,} (paper: ~2500)"],
        ["Number of LLMs", f"{summary['n_llms']} with 3B-176B params (paper: same)"],
        [
            "Range of tokens",
            f"input {summary['input_tokens_range']}, "
            f"output {summary['output_tokens_range']} "
            "(paper: 1-4093 / 1-1500)",
        ],
        ["Batch sizes", f"{summary['batch_size_range']} (paper: 1-5)"],
        [
            "Additional parameters",
            f"{summary['n_additional_params']} (paper: 33)",
        ],
    ]
    report = format_table(
        ["characteristic", "value"],
        rows,
        title="Table II — synthetic production-trace characteristics:",
    )
    write_report(results_dir, "table2_trace_stats.txt", report)
