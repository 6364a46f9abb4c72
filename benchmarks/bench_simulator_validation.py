"""Cross-validation of the inference-server simulator.

Not a paper artifact — this benchmark validates the substitution at the
heart of the reproduction (docs/architecture.md): the discrete-event
engine and the closed-form steady-state estimator are two independent
derivations from the same roofline assumptions, and must agree on
throughput and ITL within a factor of two across LLMs, GPU profiles and
load levels.
"""

from benchmarks.conftest import BENCH_SEED, write_report
from repro.characterization import BatchWeightTuner, run_load_test
from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine, SteadyStateEstimator
from repro.models import get_llm
from repro.utils.rng import spawn_seed
from repro.utils.tables import format_table

CASES = [
    ("Llama-2-13b", "1xA100-40GB"),
    ("google/flan-t5-xxl", "1xH100-80GB"),
    ("Llama-2-7b", "2xA10-24GB"),
    ("bigcode/starcoder", "2xA100-40GB"),
]
USERS = (4, 32, 128)


def test_simulator_vs_steady_state(benchmark, generator, results_dir):
    def run():
        rows = []
        for llm_name, prof_name in CASES:
            llm = get_llm(llm_name)
            profile = parse_profile(prof_name)
            tuned = BatchWeightTuner(llm, profile).tune()
            assert tuned.feasible, (llm_name, prof_name)
            est = SteadyStateEstimator(
                llm, profile, tuned.max_batch_weight, generator, seed=BENCH_SEED
            )
            for users in USERS:
                seed = spawn_seed(BENCH_SEED, "simval", llm_name, prof_name, users)
                engine = ContinuousBatchingEngine(
                    llm, profile, max_batch_weight=tuned.max_batch_weight, seed=seed
                )
                sim = run_load_test(
                    engine, generator, users, duration_s=60.0, warmup_s=10.0, seed=seed
                )
                ana = est.estimate(users)
                rows.append(
                    [
                        f"{llm_name.split('/')[-1]}@{prof_name}",
                        users,
                        sim.throughput_tokens_per_s,
                        ana.throughput_tokens_per_s,
                        sim.itl_median_s * 1e3,
                        ana.itl_s * 1e3,
                    ]
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    ratios = []
    for row in rows:
        _, _, sim_t, ana_t, sim_i, ana_i = row
        ratios.append(ana_t / sim_t)
        assert 0.4 < ana_t / sim_t < 2.5, f"throughput disagreement: {row}"
        assert 0.4 < ana_i / sim_i < 2.5, f"ITL disagreement: {row}"

    report = format_table(
        ["case", "users", "tput sim", "tput analytic", "ITL sim (ms)",
         "ITL analytic (ms)"],
        rows,
        floatfmt=".1f",
        title=(
            "Simulator validation — event engine vs closed-form steady state "
            "(all within 2.5x; two independent derivations of the same roofline)"
        ),
    )
    write_report(results_dir, "simulator_validation.txt", report)
