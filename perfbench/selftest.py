"""Self-test of the benchmark: every workload at tiny scale.

Run from the repository root::

    python3 perfbench/selftest.py

For each workload it runs ``perfbench/run.py --scale tiny`` once
untraced and twice traced, each in a fresh process, and checks that

* every metric ``BENCHMARK.json`` names is emitted, with its unit;
* every count metric (and every ratio of counts) repeats exactly across
  the two traced runs;
* the traced and untraced runs report the same output fingerprint, and
  every run is correct.

Exits 0 when every check holds, 1 otherwise.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench.run import COUNT_UNITS  # noqa: E402

SEED = 7


def run(workload: str, trace: int) -> tuple[dict, str]:
    """One tiny run in a fresh process: (result line, fingerprint)."""
    proc = subprocess.run(
        [
            sys.executable, os.path.join("perfbench", "run.py"),
            "--workload", workload, "--seed", str(SEED), "--seconds", "1",
            "--trace", str(trace), "--scale", "tiny",
        ],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} --trace {trace} failed:\n{proc.stderr}")
    fingerprint = next(
        line.split()[1] for line in lines if line.startswith("fingerprint ")
    )
    return json.loads(lines[-1]), fingerprint


def check(workload: str, spec: dict) -> list[str]:
    problems = []
    plain, plain_fp = run(workload, 0)
    traced = [run(workload, 1) for _ in range(2)]
    for trace, section, result in (
        (0, "end_to_end", plain),
        (1, "per_layer", traced[0][0]),
    ):
        if not result["correct"] or result["failed"]:
            problems.append(f"--trace {trace} run was not correct")
        emitted = result["metrics"]
        for metric in spec[section]:
            name, unit = metric["name"], metric["unit"]
            if name not in emitted:
                problems.append(f"--trace {trace} does not emit {name}")
            elif emitted[name]["unit"] != unit:
                problems.append(
                    f"{name} has unit {emitted[name]['unit']!r}, "
                    f"BENCHMARK.json says {unit!r}"
                )
    first, second = (result["metrics"] for result, _ in traced)
    for name, metric in first.items():
        if metric["unit"] in COUNT_UNITS and metric["value"] != second[name]["value"]:
            problems.append(
                f"count {name} differs across runs: "
                f"{metric['value']} != {second[name]['value']}"
            )
    for _, fingerprint in traced:
        if fingerprint != plain_fp:
            problems.append(
                f"traced fingerprint {fingerprint} != untraced {plain_fp}"
            )
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    failed = False
    for workload in (w["name"] for w in spec["workloads"]):
        problems = check(workload, spec)
        failed = failed or bool(problems)
        print(f"{workload}: {'ok' if not problems else 'FAILED'}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
