"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload pilot-pipeline --seed 1 --seconds 35 --trace 0

The process sets up and measures the workload repeatedly, one pass at a
time, until ``--seconds`` of wall time since its start are used (at
least one pass), checks every pass's output, and prints a table of every
metric with its unit. The last line of standard output is one JSON
object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones: medians over the
passes, and the peak RSS after the first pass. With ``--trace 1``
untraced and traced passes alternate and the metrics are the per-layer
split of the traced passes. A pass fails
when it raises, fails a ``verify()``/conservation check, or produces an
output fingerprint that differs from the run's other passes or from the
one pinned in ``perfbench/fingerprints.json`` for this workload and seed.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PINS = os.path.join(ROOT, "perfbench", "fingerprints.json")

#: name -> unit of every end-to-end metric (``--trace 0``).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim_tokens_per_s": "1/s",
}

#: Units of the per-layer metrics (``--trace 1``) that are not seconds.
#: Counts, and ratios of counts, must repeat exactly for a given seed.
COUNT_UNITS = ("count", "ratio", "steps", "tokens/step", "ops/step")


def per_layer_units(names) -> dict[str, str]:
    """Unit of each per-layer metric, from its name."""
    units = {}
    for name in names:
        leaf = name.split(".", 1)[1]
        if leaf.startswith("decode_run_len"):
            units[name] = "steps"
        elif leaf == "tokens_per_decode_step":
            units[name] = "tokens/step"
        elif leaf == "ops_per_step":
            units[name] = "ops/step"
        elif leaf in ("grant_ratio", "sim_share"):
            units[name] = "ratio"
        elif leaf == "unattributed_share":
            units[name] = "share"
        elif leaf.endswith("_ms_p50") or leaf.endswith("_ms_p98"):
            units[name] = "ms"
        elif leaf.endswith("_s"):
            units[name] = "s"
        else:
            units[name] = "count"
    return units


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the self-test",
    )
    return parser.parse_args(argv)


def load_library():
    """Import the library from this checkout's ``src/``; exit 2 if absent."""
    src = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(src, "repro")):
        print(f"error: no library sources under {src}", file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [src, ROOT]
    from perfbench import tracer, workloads

    return tracer, workloads


def pinned_fingerprint(workload: str, seed: int, scale: str) -> str | None:
    if scale != "full" or not os.path.exists(PINS):
        return None
    with open(PINS) as fh:
        return json.load(fh).get(workload, {}).get(str(seed))


class Run:
    """The passes of one process, and the checks on their outputs."""

    def __init__(self, workload_cls, seed: int, tiny: bool, pin: str | None) -> None:
        self.workload_cls = workload_cls
        self.seed = seed
        self.tiny = tiny
        self.pin = pin
        self.reference: str | None = None
        self.attempted = 0
        self.failed = 0

    def one_pass(self, tracer=None):
        """Set up, measure and check once; ``(setup_s, outcome)`` or None."""
        self.attempted += 1
        try:
            if tracer is not None:
                tracer.install()
            try:
                t0 = time.perf_counter()
                workload = self.workload_cls(self.seed, self.tiny)
                workload.setup()
                setup_s = time.perf_counter() - t0
                if tracer is not None:
                    tracer.end_setup()
                # Collect the set-up's garbage now, not inside the timing.
                gc.collect()
                outcome = workload.measure()
            finally:
                if tracer is not None:
                    tracer.uninstall()
        except Exception:
            traceback.print_exc()
            self.failed += 1
            return None
        expected = self.reference or self.pin
        if expected is not None and outcome.fingerprint != expected:
            print(
                f"error: output fingerprint {outcome.fingerprint} != {expected}",
                file=sys.stderr,
            )
            self.failed += 1
            return None
        self.reference = outcome.fingerprint
        return setup_s, outcome


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(import_s: float, rss_mb: float, passes) -> dict[str, float]:
    return {
        "wall_s": statistics.median(o.wall_s for _, o in passes),
        "setup_s": import_s + statistics.median(s for s, _ in passes),
        "peak_rss_mb": rss_mb,
        "sim_tokens_per_s": statistics.median(o.tokens / o.wall_s for _, o in passes),
    }


def phase_metrics(passes) -> dict[str, float]:
    """The pilot pipeline's two waits and its per-load-test wall times.

    Zero on workloads without those phases.
    """
    out = {
        "characterization.characterize_s": 0.0,
        "characterization.loadtest_ms_p50": 0.0,
        "characterization.loadtest_ms_p98": 0.0,
        "recommendation.recommend_s": 0.0,
    }
    outcomes = [o for _, o in passes if o.loadtest_s]
    if outcomes:
        import numpy as np

        out["characterization.characterize_s"] = statistics.median(
            o.phases["characterize_s"] for o in outcomes
        )
        out["recommendation.recommend_s"] = statistics.median(
            o.phases["recommend_s"] for o in outcomes
        )
        for q in (50, 98):
            out[f"characterization.loadtest_ms_p{q}"] = statistics.median(
                float(np.percentile(o.loadtest_s, q)) * 1e3 for o in outcomes
            )
    return out


def main(argv=None) -> int:
    args = parse_args(argv)
    tracer_mod, workloads = load_library()
    import_s = time.perf_counter() - T0
    if args.workload not in workloads.WORKLOADS:
        print(
            f"error: unknown --workload {args.workload!r}; choose from "
            f"{', '.join(workloads.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    run = Run(
        workloads.WORKLOADS[args.workload],
        args.seed,
        args.scale == "tiny",
        pinned_fingerprint(args.workload, args.seed, args.scale),
    )
    deadline = T0 + args.seconds
    plain, traced, layer_runs = [], [], []
    rss_mb = 0.0
    while True:
        start = time.perf_counter()
        result = run.one_pass()
        if result is None:
            break
        plain.append(result)
        if len(plain) == 1:
            # The peak of one set-up and measured phase. Later passes
            # only add allocator fragmentation, and how many passes fit
            # depends on the machine's speed.
            rss_mb = peak_rss_mb()
        if args.trace:
            tracer = tracer_mod.Tracer()
            result = run.one_pass(tracer)
            if result is None:
                break
            traced.append(result)
            layer_runs.append(tracer.metrics(result[1].wall_s))
        # Stop when the next pass would end more than half a pass late.
        now = time.perf_counter()
        if now + 0.5 * (now - start) > deadline:
            break

    metrics: dict[str, float] = {}
    units: dict[str, str] = {}
    if plain and (traced or not args.trace):
        if args.trace:
            metrics = median_layers(layer_runs, run)
            metrics["trace.overhead_s"] = statistics.median(
                o.wall_s for _, o in traced
            ) - statistics.median(o.wall_s for _, o in plain)
            metrics.update(phase_metrics(plain))
            units = per_layer_units(metrics)
        else:
            metrics = end_to_end(import_s, rss_mb, plain)
            units = dict(END_TO_END)
            extra = phase_metrics(plain)
            print_table(extra, per_layer_units(extra))

    print_table(metrics, units)
    if plain:
        walls = [o.wall_s for _, o in plain]
        spread = f"(wall_s {min(walls):.4g}..{max(walls):.4g})"
        print(f"{'passes':<40} {len(walls):>16} {spread}")
    error_rate = run.failed / run.attempted
    print(f"{'error_rate':<40} {error_rate:>16.6g} ratio")
    print(f"{'fingerprint':<40} {run.reference or '-'}")
    print(f"{'fingerprint pinned':<40} {'yes' if run.pin else 'no'}")
    print(
        json.dumps(
            {
                "correct": run.failed == 0,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {
                    name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()
                },
            }
        )
    )
    return 0 if run.failed == 0 else 1


def median_layers(layer_runs, run) -> dict[str, float]:
    """Median of each per-layer metric; counts must agree across passes."""
    units = per_layer_units(layer_runs[0])
    out = {}
    for name, unit in units.items():
        values = [layer[name] for layer in layer_runs]
        if unit in COUNT_UNITS and len(set(values)) != 1:
            print(
                f"error: count {name} differs across passes: {values}",
                file=sys.stderr,
            )
            run.failed += 1
        out[name] = statistics.median(values)
    return out


def print_table(metrics, units) -> None:
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {units[name]}")


if __name__ == "__main__":
    sys.exit(main())
