"""Command-line interface: ``repro-pilot``.

Subcommands mirror the two roles the paper defines (§I):

* cluster administrator (offline):
  - ``traces``        synthesize a production-like trace collection;
  - ``characterize``  run the characterization campaign, save the dataset;
* cluster user (online):
  - ``recommend``     recommend (GPU profile, pods) for an unseen LLM;
* utility:
  - ``info``          workload-generator and catalog statistics;
  - ``simulate``      fleet-level what-if simulation: N pods on a shared
    virtual clock under closed-loop / Poisson / diurnal / bursty traffic
    — or a recorded arrival log replayed via ``--traffic replay`` — with
    a pluggable front-end router, an optional autoscaling policy
    (threshold / target-utilization / predictive) and optional SLO-aware
    admission control; ``--scenario FILE`` instead runs a declarative
    scenario spec (see ``docs/scenarios.md``) end to end;
  - ``cluster-sim``   multi-tenant co-simulation: N tenants, each with
    its own traffic, router/admission and autoscaler, contending for one
    finite GPU inventory on one shared virtual clock — reports per-tenant
    outcomes, denied/clipped scale-ups and per-GPU-type occupancy;
    accepts ``--scenario FILE`` for declarative cluster specs;
  - ``report``        render any ``--json`` result file — or a scenario
    run live — into one self-contained HTML report (inline SVG charts,
    no network references); ``simulate``, ``cluster-sim`` and ``report``
    also take ``--scenario-name`` to run a curated scenario from the
    repository's ``scenarios/`` library by name;
  - ``recommend-elastic``  autoscaler-in-the-loop sizing: sweep
    (policy, min_pods, max_pods) candidates under a traffic model, score
    each by pod-second bill + SLO penalty, and report the trade curve,
    the chosen config and its savings vs the peak-sized static fleet.

The quick flags of ``simulate`` and ``cluster-sim`` compile to the
scenario mapping a spec file would hold and run through the same
:class:`~repro.simulation.scenario.ScenarioSpec` builders as
``--scenario``, so a flag run and its equivalent spec file are one
simulation.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from repro.characterization import (
    CharacterizationConfig,
    CharacterizationTool,
    PerfDataset,
)
from repro.hardware import (
    CLOUD_PRICING_MODES,
    aws_like_cloud_catalog,
    aws_like_pricing,
    default_profiles,
    list_gpus,
    parse_profile,
)
from repro.models import LLM_CATALOG, get_llm, list_llms
from repro.recommendation import (
    CostObjective,
    ElasticRecommender,
    GPURecommendationTool,
    LatencyConstraints,
    LinearSLOPenalty,
    PerfModelHyperparams,
    StepSLOPenalty,
)
from repro.cluster import Deployment
from repro.recommendation.pilot import LLMPilotRecommender
from repro.report import render_report
from repro.simulation import (
    AUTOSCALE_POLICIES,
    ROUTERS,
    BurstPolicy,
    ScenarioSpec,
    scenario_path,
    to_json,
)
from repro.simulation.scenario import SCHEMA, fault_event_spec
from repro.traces import TraceConfig, TraceDataset, TraceSynthesizer
from repro.utils.parallel import fork_map
from repro.utils.tables import format_table
from repro.workload import WorkloadGenerator

__all__ = ["main", "build_parser"]

#: Traffic kinds of the ``--traffic`` flag and the ``--tenant`` grammar.
_TRAFFIC_KINDS = tuple(SCHEMA["traffic"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-pilot",
        description="LLM-Pilot reproduction: characterize and recommend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_traces = sub.add_parser("traces", help="synthesize a trace collection")
    p_traces.add_argument("--requests", type=int, default=100_000)
    p_traces.add_argument("--seed", type=int, default=0)
    p_traces.add_argument("--out", required=True, help="output .npz path")

    p_char = sub.add_parser("characterize", help="run a characterization campaign")
    p_char.add_argument("--traces", help=".npz trace collection (else synthesized)")
    p_char.add_argument("--requests", type=int, default=100_000)
    p_char.add_argument(
        "--llm",
        action="append",
        dest="llms",
        help="LLM name (repeatable; default: full catalog)",
    )
    p_char.add_argument("--duration", type=float, default=120.0)
    p_char.add_argument("--seed", type=int, default=0)
    p_char.add_argument("--out", required=True, help="output dataset .npz path")

    p_rec = sub.add_parser("recommend", help="recommend hardware for an unseen LLM")
    p_rec.add_argument("--dataset", required=True, help="characterization .npz")
    p_rec.add_argument("--llm", required=True)
    p_rec.add_argument("--users", type=int, default=200)
    p_rec.add_argument("--nttft-ms", type=float, default=100.0)
    p_rec.add_argument("--itl-ms", type=float, default=50.0)
    p_rec.add_argument("--requests", type=int, default=100_000)
    p_rec.add_argument("--seed", type=int, default=0)
    p_rec.add_argument("--tune", action="store_true", help="tune HPs (slow)")

    p_info = sub.add_parser("info", help="catalog and generator statistics")
    p_info.add_argument("--requests", type=int, default=50_000)
    p_info.add_argument("--seed", type=int, default=0)

    p_sim = sub.add_parser("simulate", help="fleet-level traffic simulation")
    p_sim.add_argument(
        "--scenario",
        help="declarative scenario spec (.json/.yaml); overrides other flags",
    )
    p_sim.add_argument(
        "--scenario-name",
        metavar="NAME",
        help="run a curated scenario from the repository's scenarios/ "
        "library by name (see docs/scenarios.md)",
    )
    _add_fleet_args(p_sim)
    _add_policy_args(p_sim, default="none")
    _add_fault_args(p_sim)
    _add_json_arg(p_sim)

    p_cluster = sub.add_parser(
        "cluster-sim",
        help="multi-tenant co-simulation on a finite GPU inventory",
    )
    p_cluster.add_argument(
        "--scenario",
        action="append",
        dest="scenarios",
        metavar="FILE",
        help="declarative cluster scenario spec (.json/.yaml); replaces "
        "--tenant/--capacity; repeatable — several scenarios run as a "
        "batch (see --jobs)",
    )
    p_cluster.add_argument(
        "--scenario-name",
        action="append",
        dest="scenario_names",
        metavar="NAME",
        help="curated scenario from the scenarios/ library by name "
        "(repeatable; appended to --scenario files as one batch)",
    )
    p_cluster.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for a multi-scenario batch; results are "
        "printed in scenario order and identical to --jobs 1",
    )
    p_cluster.add_argument(
        "--tenant",
        action="append",
        dest="tenants",
        metavar="NAME:LLM:PROFILE:PODS:TRAFFIC:PARAM",
        help=(
            "one tenant (repeatable), e.g. "
            "'chat:Llama-2-13b:1xA100-40GB:2:poisson:2.0'; TRAFFIC is "
            "closed/poisson/diurnal/bursty, PARAM the user count (closed) "
            "or arrival rate/s"
        ),
    )
    p_cluster.add_argument(
        "--capacity",
        action="append",
        dest="capacity",
        metavar="GPU=N",
        help="GPU inventory (repeatable), e.g. 'A100-40GB=8'",
    )
    _add_policy_args(p_cluster, default="threshold")
    p_cluster.add_argument("--router", choices=sorted(ROUTERS), default="least-loaded")
    p_cluster.add_argument("--max-batch-weight", type=int, default=12_000)
    _add_shape_args(p_cluster)
    p_cluster.add_argument("--duration", type=float, default=120.0)
    p_cluster.add_argument("--warmup", type=float, default=0.0)
    _add_workload_args(p_cluster)
    _add_fault_args(p_cluster)
    p_cluster.add_argument(
        "--cloud",
        action="store_true",
        help="enable the elastic cloud capacity tier: scale-ups the "
        "inventory denies or clips burst into a priced cloud catalog "
        "instead of queueing on-prem",
    )
    _add_cloud_args(p_cluster)
    p_cluster.add_argument(
        "--cloud-spot-rate",
        type=float,
        default=0.05,
        metavar="PER_HOUR",
        help="spot-interruption rate per rented instance-hour (spot mode "
        "injects seeded spot-preempt faults at this rate)",
    )
    p_cluster.add_argument(
        "--cloud-seed",
        type=int,
        default=0,
        help="seed for the cloud ledger's spot-preemption schedules",
    )
    _add_json_arg(p_cluster)

    p_report = sub.add_parser(
        "report",
        help="render a simulation result to a self-contained HTML report",
    )
    p_report.add_argument(
        "input",
        nargs="?",
        metavar="RESULT.json",
        help="a JSON result file written by simulate/cluster-sim "
        "--json (omit to run a scenario live instead)",
    )
    p_report.add_argument(
        "--scenario",
        metavar="FILE",
        help="run this scenario spec live and report its result",
    )
    p_report.add_argument(
        "--scenario-name",
        metavar="NAME",
        help="run a curated scenario from the scenarios/ library by name",
    )
    p_report.add_argument(
        "--out",
        metavar="FILE.html",
        help="output path (default: derived from the input file or "
        "scenario name, in the working directory)",
    )
    p_report.add_argument("--title", help="report title (default: derived)")

    p_elastic = sub.add_parser(
        "recommend-elastic",
        help="autoscaler-in-the-loop (policy, min_pods, max_pods) recommendation",
    )
    _add_fleet_args(p_elastic, pods=False)
    p_elastic.add_argument(
        "--slo-ttft-ms",
        type=float,
        default=10_000.0,
        help="end-to-end p95 TTFT SLO for the whole run, ms",
    )
    p_elastic.add_argument(
        "--penalty",
        choices=["linear", "step"],
        default="linear",
        help="SLO-penalty shape on the run's p95 TTFT",
    )
    p_elastic.add_argument(
        "--penalty-per-hour",
        type=float,
        default=50.0,
        help="$/h charged by the SLO penalty when breached",
    )
    p_elastic.add_argument(
        "--penalty-per-shed",
        type=float,
        default=0.0,
        help="$ charged per request rejected by admission control",
    )
    p_elastic.add_argument(
        "--static-pods",
        type=int,
        default=0,
        help="peak-sized static baseline (0: find it by simulation)",
    )
    p_elastic.add_argument(
        "--search-max",
        type=int,
        default=8,
        help="largest static fleet the sizing ladder tries",
    )
    p_elastic.add_argument(
        "--headroom",
        type=int,
        default=2,
        help="candidate max_pods above the static baseline",
    )
    _add_autoscaler_mechanics(p_elastic)
    p_elastic.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the candidate sweep; the "
        "recommendation is byte-identical to --jobs 1",
    )
    p_elastic.add_argument(
        "--prune",
        action="store_true",
        help="skip candidates whose compute-bill floor already exceeds an "
        "SLO-meeting incumbent's total cost (each skip is logged and "
        "reported)",
    )
    p_elastic.add_argument(
        "--on-prem-pods",
        type=int,
        default=0,
        metavar="N",
        help="hybrid sweep: the first N provisioned pods are owned "
        "hardware, overflow rents from the cloud catalog and candidates "
        "are scored against the mixed bill (0: purely on-prem)",
    )
    _add_cloud_args(p_elastic)
    _add_json_arg(p_elastic)

    return parser


def _add_fleet_args(p: argparse.ArgumentParser, pods: bool = True) -> None:
    """Flags shared by the fleet-simulation subcommands.

    ``recommend-elastic`` opts out of ``--pods``: the sweep itself owns
    the pod count per candidate (``--static-pods`` pins the baseline),
    so accepting the flag would silently ignore it.
    """
    p.add_argument("--llm", default="Llama-2-13b")
    p.add_argument("--profile", default="1xA100-40GB")
    if pods:
        p.add_argument("--pods", type=int, default=2)
    p.add_argument("--max-batch-weight", type=int, default=12_000)
    p.add_argument("--router", choices=sorted(ROUTERS), default="least-loaded")
    p.add_argument("--traffic", choices=_TRAFFIC_KINDS, default="poisson")
    p.add_argument("--users", type=int, default=16, help="closed-loop population")
    p.add_argument(
        "--rate",
        type=float,
        default=2.0,
        help="arrival rate/s (base rate for diurnal, burst rate for bursty)",
    )
    _add_shape_args(p)
    p.add_argument(
        "--arrivals",
        help="recorded arrival log (.csv/.jsonl) for --traffic replay",
    )
    p.add_argument(
        "--speedup",
        type=float,
        default=1.0,
        help="replay time-warp factor (>1 compresses the log)",
    )
    p.add_argument(
        "--horizon",
        type=float,
        default=None,
        help="clip the replayed log to its first HORIZON seconds",
    )
    p.add_argument("--duration", type=float, default=60.0)
    p.add_argument("--warmup", type=float, default=0.0)
    _add_workload_args(p)


def _add_shape_args(p: argparse.ArgumentParser) -> None:
    """Shape knobs of the non-stationary synthetic traffic models."""
    p.add_argument("--amplitude", type=float, default=0.8, help="diurnal swing")
    p.add_argument("--period", type=float, default=300.0, help="diurnal period s")
    p.add_argument("--mean-on", type=float, default=20.0, help="bursty ON dwell s")
    p.add_argument("--mean-off", type=float, default=40.0, help="bursty OFF dwell s")


def _add_workload_args(p: argparse.ArgumentParser) -> None:
    """Where synthetic request bodies come from (shared by every sim)."""
    p.add_argument("--traces", help=".npz trace collection (else synthesized)")
    p.add_argument("--requests", type=int, default=50_000)
    p.add_argument("--seed", type=int, default=0)


def _add_autoscaler_mechanics(p: argparse.ArgumentParser) -> None:
    """Timing knobs every autoscaled simulation shares."""
    p.add_argument(
        "--interval", type=float, default=15.0, help="decision interval s"
    )
    p.add_argument(
        "--cold-start", type=float, default=10.0, help="pod cold-start delay s"
    )
    p.add_argument(
        "--metrics-window",
        type=float,
        default=30.0,
        help="trailing window for windowed tails and arrival rates, s",
    )


def _add_policy_args(p: argparse.ArgumentParser, default: str) -> None:
    """Autoscaling policy + admission flags (simulate, cluster-sim)."""
    p.add_argument(
        "--policy",
        choices=["none", *sorted(AUTOSCALE_POLICIES)],
        default=default,
        help="autoscaling policy of the fleet (of every tenant in "
        "cluster-sim); 'none': static fleets",
    )
    p.add_argument("--min-pods", type=int, default=1)
    p.add_argument("--max-pods", type=int, default=16)
    _add_autoscaler_mechanics(p)
    p.add_argument(
        "--slo-ttft-ms",
        type=float,
        default=2000.0,
        help="p95 TTFT target: the SLO the run reports against (recovery "
        "time, SLO attainment) and the one the threshold policy and "
        "admission control protect",
    )
    p.add_argument(
        "--target-util",
        type=float,
        default=0.6,
        help="batch-weight utilization target (target-utilization policy)",
    )
    p.add_argument(
        "--pod-rate",
        type=float,
        default=2.0,
        help="per-pod request capacity /s (predictive policy)",
    )
    p.add_argument(
        "--admission",
        choices=["off", "shed", "defer"],
        default="off",
        help="SLO-aware admission control in front of the router",
    )


def _add_fault_args(p: argparse.ArgumentParser) -> None:
    """Quick fault-injection flags (the declarative form lives in
    scenario files; combining both is rejected at runtime)."""
    p.add_argument(
        "--fault",
        action="append",
        dest="faults",
        metavar="KIND@TIME[:K=V,...]",
        help="inject one fault (repeatable): KIND is crash / slowdown / "
        "zone-outage / spot-preempt, TIME is seconds into the run; "
        "options after ':' "
        "are comma-separated key=value pairs from pod, zone, mode "
        "(requeue/lose), restart, duration, factor — e.g. "
        "'crash@30:restart=10', 'slowdown@20:duration=30,factor=4', "
        "'zone-outage@60:zone=zone-1,restart=15'",
    )
    p.add_argument(
        "--zones",
        type=int,
        default=1,
        help="spread pods round-robin over N availability zones",
    )


def _add_cloud_args(p: argparse.ArgumentParser) -> None:
    """Cloud-tier flags shared by cluster-sim and recommend-elastic.

    (``--fault spot-preempt@T`` rides the ordinary ``--fault`` flag.)
    """
    p.add_argument(
        "--cloud-mode",
        choices=list(CLOUD_PRICING_MODES),
        default="on-demand",
        help="purchasing mode for every cloud rental",
    )
    p.add_argument(
        "--cloud-quota",
        action="append",
        dest="cloud_quota",
        metavar="GPU=N",
        help="account quota in GPUs for one cloud instance type "
        "(repeatable; unlisted types are unmetered)",
    )
    p.add_argument(
        "--max-cloud-pods",
        type=int,
        default=None,
        metavar="N",
        help="cap on the cloud pods one tenant may hold at once",
    )


def _add_json_arg(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--json", action="store_true", help="machine-readable JSON output"
    )


def _load_or_make_traces(args) -> TraceDataset:
    if getattr(args, "traces", None):
        return TraceDataset.load(args.traces)
    config = TraceConfig(n_requests=args.requests)
    return TraceSynthesizer(config=config, seed=args.seed).generate()


def _cmd_traces(args) -> int:
    config = TraceConfig(n_requests=args.requests)
    traces = TraceSynthesizer(config=config, seed=args.seed).generate()
    traces.save(args.out)
    s = traces.summary()
    print(
        f"Wrote {s['n_requests']:,} requests ({s['n_users']:,} users, "
        f"{s['n_llms']} LLMs, {s['time_period_months']:.1f} months) to {args.out}"
    )
    return 0


def _cmd_characterize(args) -> int:
    traces = _load_or_make_traces(args)
    generator = WorkloadGenerator.fit(traces)
    llm_names = args.llms or list_llms()
    try:
        llms = [get_llm(name) for name in llm_names]
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    tool = CharacterizationTool(
        generator,
        CharacterizationConfig(duration_s=args.duration, seed=args.seed),
    )
    outcome = tool.run(llms)
    outcome.dataset.save(args.out)
    print(
        f"Characterized {len(outcome.tuned_weights)} feasible pairs "
        f"({len(outcome.dataset)} measurements) -> {args.out}; "
        f"estimated cluster overhead {outcome.total_overhead_s / 3600:.1f}h "
        "(parallelized)"
    )
    return 0


def _cmd_recommend(args) -> int:
    dataset = PerfDataset.load(args.dataset)
    try:
        llm = get_llm(args.llm)
    except KeyError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.llm in dataset.llms():
        dataset = dataset.exclude_llm(args.llm)
        print(f"note: excluded {args.llm}'s own rows from the training data")
    if not dataset.llms():
        print("error: no training LLMs left in the dataset", file=sys.stderr)
        return 2
    constraints = LatencyConstraints(
        nttft_s=args.nttft_ms / 1e3, itl_s=args.itl_ms / 1e3
    )
    traces = _load_or_make_traces(args)
    generator = WorkloadGenerator.fit(traces)

    pilot = LLMPilotRecommender(
        constraints=constraints,
        hyperparams=PerfModelHyperparams(),
        tune=args.tune,
    )
    pilot.fit(dataset, dict(LLM_CATALOG))
    tool = GPURecommendationTool(
        perf_model=pilot.model_,
        pricing=aws_like_pricing(),
        constraints=constraints,
        max_request_weight=generator.max_request_weight(),
    )
    rec = tool.recommend(llm, default_profiles(), total_users=args.users)
    rows = [
        [a.profile, a.umax, a.n_pods, a.total_cost]
        for a in sorted(rec.assessments, key=lambda a: a.total_cost)
    ]
    print(
        format_table(
            ["profile", "pred. umax", "pods", "$/h"],
            rows,
            floatfmt=".2f",
            title=(
                f"Assessments for {llm.name} (U={args.users}, "
                f"nTTFT<={args.nttft_ms:.0f}ms, ITL<={args.itl_ms:.0f}ms):"
            ),
        )
    )
    if rec.feasible:
        print(
            f"Recommendation: {rec.n_pods} pod(s) on {rec.profile} "
            f"(${rec.total_cost:.2f}/h)"
        )
        return 0
    print("No profile satisfies the constraints.")
    return 1


def _cmd_info(args) -> int:
    config = TraceConfig(n_requests=args.requests)
    traces = TraceSynthesizer(config=config, seed=args.seed).generate()
    generator = WorkloadGenerator.fit(traces)
    model = generator.model
    print(f"LLM catalog ({len(list_llms())}): " + ", ".join(list_llms()))
    print(f"GPU types ({len(list_gpus())}): " + ", ".join(list_gpus()))
    print(f"GPU profiles: {len(default_profiles())}")
    print(
        f"Workload generator: {model.n_nonempty_bins:,} joint bins of "
        f"{model.n_theoretical_bins:.3g} possible "
        f"({generator.nbytes() / 1e6:.2f} MB), "
        f"max request weight {generator.max_request_weight():,} tokens"
    )
    sample = model.sample(10_000, rng=0)
    print(
        "Sampled request means: "
        f"input {np.mean(sample['input_tokens']):.0f}, "
        f"output {np.mean(sample['output_tokens']):.0f} tokens, "
        f"batch {np.mean(sample['batch_size']):.2f}"
    )
    return 0


def _number(cast, text, flag: str, field: str):
    """``cast(text)``, or a ValueError that names the flag and its field."""
    try:
        return cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise ValueError(f"{flag}: {field} must be {kind}, got {text!r}") from None


def _traffic_section(kind: str, param, args, flag: str) -> dict:
    """One scenario ``traffic`` mapping from the traffic flags.

    ``param`` is the user count (closed), the arrival-log path (replay)
    or the rate/s (everything else); ``flag`` names where it came from.
    """
    if kind == "closed":
        return {"kind": kind, "users": _number(int, param, flag, "PARAM")}
    if kind == "replay":
        return {
            "kind": kind,
            "path": param,
            "speedup": getattr(args, "speedup", 1.0),
            "horizon_s": getattr(args, "horizon", None),
        }
    section = {"kind": kind, "rate_per_s": _number(float, param, flag, "PARAM")}
    if kind == "diurnal":
        section.update(amplitude=args.amplitude, period_s=args.period)
    elif kind == "bursty":
        section.update(mean_on_s=args.mean_on, mean_off_s=args.mean_off)
    return section


def _flag_traffic(args) -> dict:
    """The ``traffic`` mapping of the shared fleet flags."""
    if args.traffic == "replay" and not args.arrivals:
        raise ValueError("--traffic replay needs --arrivals FILE")
    param = {"closed": args.users, "replay": args.arrivals}.get(
        args.traffic, args.rate
    )
    return _traffic_section(args.traffic, param, args, "--traffic")


def _workload_section(args) -> dict:
    return {"traces": args.traces} if args.traces else {"requests": args.requests}


#: ``--fault`` option name -> scenario event key.
_FAULT_OPTIONS = {
    "pod": "pod",
    "zone": "zone",
    "mode": "mode",
    "restart": "restart_delay_s",
    "duration": "duration_s",
    "factor": "factor",
}


def _fault_event(text: str) -> dict:
    """``--fault KIND@TIME[:key=value,...]`` -> one scenario fault event.

    An option's value is read as the kind its event key has in the
    scenario schema: an integer, a number, or the text itself.
    """
    flag = f"--fault {text!r}"
    head, _, opts = text.partition(":")
    kind, at, time_s = head.partition("@")
    if not at or not kind or not time_s:
        raise ValueError(f"{flag}: fault spec must be KIND@TIME[:key=value,...]")
    event = {"kind": kind, "time_s": _number(float, time_s, flag, "TIME")}
    kinds = {
        k: key.kind for table in SCHEMA["event"].values() for k, key in table.items()
    }
    for item in opts.split(",") if opts else []:
        key, eq, value = item.partition("=")
        if not eq or not key:
            raise ValueError(f"{flag}: fault option must be key=value, got {item!r}")
        if key not in _FAULT_OPTIONS:
            raise ValueError(
                f"{flag}: unknown fault option {key!r}; "
                f"allowed: {sorted(_FAULT_OPTIONS)}"
            )
        name = _FAULT_OPTIONS[key]
        cast = {"int": int, "number": float}.get(kinds[name])
        event[name] = value if cast is None else _number(cast, value, flag, key)
    fault_event_spec(event, flag)
    return event


def _reject_faults_with_scenario(args) -> None:
    if args.faults or args.zones != 1:
        raise ValueError(
            "--fault/--zones configure the flag-built fleet; a --scenario "
            "file declares faults in its own 'faults' section"
        )


def _flag_spec(args, name: str) -> dict:
    """The scenario fields that simulate and cluster-sim flags share."""
    spec = {
        "name": name,
        "seed": args.seed,
        "duration_s": args.duration,
        "warmup_s": args.warmup,
        "max_batch_weight": args.max_batch_weight,
        "workload": _workload_section(args),
        "router": args.router,
        "slo_ttft_ms": args.slo_ttft_ms,
    }
    if args.admission != "off":
        spec["admission"] = {"mode": args.admission, "window_s": args.metrics_window}
    if args.policy != "none":
        spec["autoscaler"] = {
            "policy": args.policy,
            "min_pods": args.min_pods,
            "max_pods": args.max_pods,
            "interval_s": args.interval,
            "cold_start_s": args.cold_start,
            "metrics_window_s": args.metrics_window,
            "target": args.target_util,
            "requests_per_pod_per_s": args.pod_rate,
        }
    if args.faults or args.zones != 1:
        spec["faults"] = {
            "zones": args.zones,
            "events": [_fault_event(text) for text in args.faults or []],
        }
    return spec


def _fleet_spec(args) -> ScenarioSpec:
    """simulate's quick flags, compiled to the equivalent scenario spec."""
    spec = _flag_spec(args, "simulate")
    spec.update(
        llm=args.llm,
        profile=args.profile,
        pods=args.pods,
        traffic=_flag_traffic(args),
    )
    return ScenarioSpec.from_dict(spec)


def _gpu_counts(items, flag: str) -> dict[str, int]:
    """Repeated ``GPU=N`` flag values -> ``{gpu: n}``."""
    counts: dict[str, int] = {}
    for item in items or []:
        gpu, _, count = item.partition("=")
        if not gpu or not count.lstrip("-").isdigit():
            raise ValueError(f"{flag} spec must be GPU=N, got {item!r}")
        counts[gpu] = int(count)
    return counts


def _tenant_entry(text: str, args) -> dict:
    """``--tenant NAME:LLM:PROFILE:PODS:TRAFFIC:PARAM`` -> one spec tenant."""
    flag = f"--tenant {text!r}"
    parts = text.split(":")
    if len(parts) != 6:
        raise ValueError(
            f"{flag}: tenant spec must be NAME:LLM:PROFILE:PODS:TRAFFIC:PARAM"
        )
    name, llm, profile, pods, kind, param = parts
    if kind not in _TRAFFIC_KINDS:
        raise ValueError(
            f"{flag}: TRAFFIC must be one of {'/'.join(_TRAFFIC_KINDS)}, "
            f"got {kind!r}"
        )
    return {
        "name": name,
        "llm": llm,
        "profile": profile,
        "pods": _number(int, pods, flag, "PODS"),
        "traffic": _traffic_section(kind, param, args, flag),
    }


def _cluster_spec(args) -> ScenarioSpec:
    """cluster-sim's quick flags, compiled to the equivalent cluster spec."""
    if not args.tenants or not args.capacity:
        raise ValueError("cluster-sim needs --tenant and --capacity (or --scenario)")
    spec = _flag_spec(args, "cluster-sim")
    spec["tenants"] = [_tenant_entry(text, args) for text in args.tenants]
    spec["capacity"] = _gpu_counts(args.capacity, "--capacity")
    if args.cloud:
        spec["cloud"] = {
            "mode": args.cloud_mode,
            "quota": _gpu_counts(args.cloud_quota, "--cloud-quota"),
            "spot_interruptions_per_hour": args.cloud_spot_rate,
            "seed": args.cloud_seed,
        }
        if args.max_cloud_pods is not None:
            spec["cloud"]["max_cloud_pods"] = args.max_cloud_pods
    return ScenarioSpec.from_dict(spec)


def _cmd_simulate(args) -> int:
    try:
        if args.scenario_name:
            if args.scenario:
                raise ValueError(
                    "--scenario and --scenario-name are mutually exclusive"
                )
            args.scenario = str(scenario_path(args.scenario_name))
        if args.scenario:
            _reject_faults_with_scenario(args)
            spec = ScenarioSpec.load(args.scenario)
            if spec.is_cluster:
                raise ValueError(
                    f"scenario {spec.name!r} declares tenants; run it with "
                    "cluster-sim --scenario"
                )
        else:
            spec = _fleet_spec(args)
        # Building (spec parsing, unknown LLM/profile, missing log files)
        # and running (a fault that kills the whole fleet) are user input.
        res = spec.build_fleet().run(
            duration_s=spec.duration_s, warmup_s=spec.warmup_s, keep_samples=True
        )
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # A conservation violation is a simulator bug and should surface as a
    # traceback, not "error:".
    res.verify_conservation()
    slo_s = None if spec.slo_ttft_ms is None else spec.slo_ttft_ms / 1e3
    if args.json:
        print(to_json(res, slo_p95_ttft_s=slo_s))
        return 0
    _print_fleet_report(res, spec, slo_s)
    return 0


def _print_fleet_report(res, spec: ScenarioSpec, slo_s: float | None) -> None:
    rows = [
        [
            p.pod,
            p.arrivals_routed,
            p.requests_completed,
            p.tokens_generated,
            p.throughput_tokens_per_s,
            p.ttft.median_s,
            p.itl.median_s,
            p.queue_depth_end,
        ]
        for p in res.per_pod
    ]
    print(
        format_table(
            [
                "pod",
                "arrivals",
                "done",
                "tokens",
                "tok/s",
                "ttft p50",
                "itl p50",
                "queue",
            ],
            rows,
            floatfmt=".3f",
            title=(
                f"{spec.llm} on {spec.pods}x {spec.profile} — "
                f"{res.traffic} traffic, {res.router} routing, "
                f"{res.duration_s:.0f}s window:"
            ),
        )
    )
    print(
        f"Fleet: {res.arrivals} arrivals, {res.requests_completed} completed, "
        f"{res.throughput_tokens_per_s:.1f} tok/s | "
        f"TTFT p50/p95/p99 {res.ttft.median_s:.3f}/{res.ttft.p95_s:.3f}/"
        f"{res.ttft.p99_s:.3f}s | ITL p50/p95/p99 {res.itl.median_s:.4f}/"
        f"{res.itl.p95_s:.4f}/{res.itl.p99_s:.4f}s"
    )
    if spec.admission is not None:
        print(
            f"Admission: {res.admitted} admitted, {res.shed} shed"
            + (f", {res.deferrals} deferrals" if res.deferrals else "")
        )
    if spec.autoscaler is not None:
        policy = spec.autoscaler["policy"]
        if res.scale_events:
            rows = [
                [f"{e.time_s:.0f}", e.direction, e.from_pods, e.to_pods, e.reason]
                for e in res.scale_events
            ]
            print(
                format_table(
                    ["t(s)", "dir", "from", "to", "reason"],
                    rows,
                    title=f"Scale events ({policy} policy):",
                )
            )
        else:
            print(f"No scale events ({policy} policy).")
        states = [p.state for p in res.per_pod]
        print(
            f"Pods: {spec.pods} initial -> {res.n_pods} serving at end "
            f"({len(states)} provisioned overall, "
            f"{states.count('retired')} retired, "
            f"{states.count('draining')} draining); "
            f"{res.pod_seconds:.0f} pod-seconds billed"
        )
    _print_fault_summary(res)
    recovery = None if slo_s is None else res.recovery_time_s(slo_s)
    if recovery is not None:
        print(
            "Recovery after worst disruption: "
            + (f"{recovery:.0f}s" if np.isfinite(recovery) else "never (p95 "
               "did not re-enter the SLO)")
        )


def _print_fault_summary(res) -> None:
    if not res.fault_events:
        return
    shown = ", ".join(
        f"{e.kind}@{e.time_s:.0f}s" for e in res.fault_events[:6]
    ) + (", ..." if len(res.fault_events) > 6 else "")
    print(
        f"Faults: {len(res.fault_events)} event(s) [{shown}] | "
        f"{res.requeued} requests requeued, {res.lost} lost"
    )


def _cmd_cluster_sim(args) -> int:
    try:
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        if args.scenario_names:
            args.scenarios = list(args.scenarios or []) + [
                str(scenario_path(name)) for name in args.scenario_names
            ]
        if args.scenarios:
            _reject_faults_with_scenario(args)
            if args.cloud:
                raise ValueError(
                    "--cloud cannot combine with --scenario; declare the "
                    "cloud tier in the scenario's cloud: section instead"
                )
            specs = []
            for path in args.scenarios:
                spec = ScenarioSpec.load(path)
                if not spec.is_cluster:
                    raise ValueError(
                        f"scenario {spec.name!r} has no tenants; run it with "
                        "simulate --scenario"
                    )
                specs.append(spec)
        else:
            specs = [_cluster_spec(args)]

        # Build + run inside the handler (an initial allocation that does
        # not fit the inventory is a user error); conservation is verified
        # outside it. Worker errors propagate out of fork_map into the
        # same handler.
        def run_spec(spec):
            sim = spec.build_cluster()
            return sim.run(duration_s=spec.duration_s, warmup_s=spec.warmup_s)

        results = fork_map(run_spec, specs, args.jobs)
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # Outside the user-input error handler: a conservation violation is
    # a simulator bug and should surface as a traceback, not "error:".
    for res in results:
        res.verify_conservation()
    names = [spec.name for spec in specs]
    pricing = aws_like_pricing()
    if args.json:
        # One serialization path for every simulation result: the
        # SimResult protocol's to_dict (see docs/cli.md for schemas).
        payloads = [res.to_dict(pricing=pricing) for res in results]
        if len(payloads) == 1:
            print(json.dumps(payloads[0], indent=2))
        else:
            # A multi-scenario batch emits one array, scenarios in
            # --scenario order (identical for any --jobs value).
            for payload, name in zip(payloads, names):
                payload["scenario"] = name
            print(json.dumps(payloads, indent=2))
        return 0
    batch = len(results) > 1
    for i, (res, name) in enumerate(zip(results, names)):
        if batch:
            if i:
                print()
            print(f"=== {name} ===")
        print(_render_cluster_sim(res, pricing), end="")
    return 0


def _render_cluster_sim(res, pricing) -> str:
    """Human-readable report of one cluster co-simulation.

    Returned as one string (not printed) so a multi-scenario batch can
    render results in scenario order regardless of completion order.
    """
    cost = res.cost(pricing)
    out = []
    rows = []
    for tenant in res.tenants:
        r = res.results[tenant]
        ok = res.meets_slo(tenant)
        rows.append(
            [
                tenant,
                res.profiles[tenant],
                r.n_pods,
                r.arrivals,
                r.shed,
                r.requests_completed,
                r.throughput_tokens_per_s,
                r.ttft.p95_s,
                "yes" if ok else "NO" if ok is not None else "-",
                r.pod_seconds,
                cost[tenant],
            ]
        )
    out.append(
        format_table(
            [
                "tenant",
                "profile",
                "pods",
                "arrivals",
                "shed",
                "done",
                "tok/s",
                "ttft p95",
                "slo",
                "pod-sec",
                "$",
            ],
            rows,
            floatfmt=".2f",
            title=(
                f"{len(res.tenants)} tenants on one clock — "
                f"{res.duration_s:.0f}s window, total "
                f"${res.total_cost(pricing):.2f}:"
            ),
        )
    )
    contended = res.contended_scale_events()
    if contended:
        rows = [
            [f"{e.time_s:.0f}", t, e.constraint, e.from_pods, e.requested, e.to_pods]
            for t, e in contended
        ]
        out.append(
            format_table(
                ["t(s)", "tenant", "outcome", "from", "asked", "granted"],
                rows,
                title="\nInventory-constrained scale-ups:",
            )
        )
    else:
        out.append("\nNo denied or clipped scale-ups.")
    peak = res.peak_occupancy()
    out.append(
        "Peak GPU occupancy: "
        + ", ".join(f"{gpu} {peak[gpu]}/{cap}" for gpu, cap in res.capacity.items())
    )
    if res.cloud_catalog is not None:
        cloud_ps = sum(res.results[t].cloud_pod_seconds for t in res.tenants)
        out.append(
            f"Cloud burst: {cloud_ps:.0f} pod-seconds rented "
            f"({len(res.cloud_events)} ledger events)"
        )
    fault_events = res.fault_events()
    if fault_events:
        shown = ", ".join(
            f"{tenant}:{event.kind}@{event.time_s:.0f}s"
            for tenant, event in fault_events[:6]
        ) + (", ..." if len(fault_events) > 6 else "")
        out.append(f"Fault events: {len(fault_events)} [{shown}]")
    return "".join(line + "\n" for line in out)


def _cmd_report(args) -> int:
    """Render one result — replayed from ``--json`` output or run live
    from a scenario — into a self-contained HTML file."""
    try:
        sources = [
            s for s in (args.input, args.scenario, args.scenario_name) if s
        ]
        if len(sources) != 1:
            raise ValueError(
                "report needs exactly one input: a RESULT.json file, "
                "--scenario FILE, or --scenario-name NAME"
            )
        spec = None
        if args.input:
            with open(args.input) as fh:
                try:
                    payload = json.load(fh)
                except json.JSONDecodeError as exc:
                    raise ValueError(f"{args.input}: invalid JSON: {exc}") from exc
            if isinstance(payload, list):
                raise ValueError(
                    f"{args.input} holds a multi-scenario batch array; "
                    "report renders one result — split the batch or "
                    "re-run the scenario alone"
                )
            if not isinstance(payload, dict):
                raise ValueError(
                    f"{args.input} is not a simulation result payload"
                )
            stem = os.path.splitext(os.path.basename(args.input))[0]
            # render inside the handler: an unknown "kind", a missing
            # field or a field of the wrong type in a hand-edited file
            # is user input, not a simulator bug.
            try:
                html = render_report(payload, title=args.title)
            except KeyError as exc:
                raise ValueError(
                    f"{args.input}: result payload has no field {exc.args[0]!r}"
                ) from exc
            except (AttributeError, TypeError, ValueError) as exc:
                raise ValueError(
                    f"{args.input}: malformed result payload ({exc})"
                ) from exc
        else:
            path = (
                str(scenario_path(args.scenario_name))
                if args.scenario_name
                else args.scenario
            )
            spec = ScenarioSpec.load(path)
            stem = spec.name
            # Building (a tenant the inventory cannot place) and running
            # (a fault that kills the whole fleet) are user input too.
            build = spec.build_cluster if spec.is_cluster else spec.build_fleet
            res = build().run(
                duration_s=spec.duration_s,
                warmup_s=spec.warmup_s,
                keep_samples=True,
            )
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if spec is not None:
        # A conservation violation is a simulator bug and should
        # surface as a traceback, not "error:".
        res.verify_conservation()
        if res.kind == "cluster":
            payload = res.to_dict(pricing=aws_like_pricing())
        else:
            slo_s = (
                spec.slo_ttft_ms / 1e3 if spec.slo_ttft_ms is not None else None
            )
            payload = res.to_dict(slo_p95_ttft_s=slo_s)
        html = render_report(payload, title=args.title)
    out = args.out or f"{stem}-report.html"
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"wrote {out}")
    return 0


def _cmd_recommend_elastic(args) -> int:
    slo_s = args.slo_ttft_ms / 1e3
    try:
        # The sweep's traffic and workload, built the way the equivalent
        # scenario file builds them.
        spec = ScenarioSpec.from_dict(
            {
                "name": "recommend-elastic",
                "seed": args.seed,
                "duration_s": args.duration,
                "workload": _workload_section(args),
                "traffic": _flag_traffic(args),
            }
        )
        llm = get_llm(args.llm)
        profile = parse_profile(args.profile)
        deployment = Deployment(
            llm=llm,
            profile=profile,
            n_pods=1,
            max_batch_weight=args.max_batch_weight,
            generator=spec.build_generator(),
            seed=args.seed,
        )
        penalty_cls = LinearSLOPenalty if args.penalty == "linear" else StepSLOPenalty
        if args.on_prem_pods < 0:
            raise ValueError(
                f"--on-prem-pods must be >= 0, got {args.on_prem_pods}"
            )
        hybrid = args.on_prem_pods > 0
        objective = CostObjective(
            pricing=aws_like_pricing(),
            penalty=penalty_cls(
                slo_p95_ttft_s=slo_s,
                penalty_per_hour=args.penalty_per_hour,
                penalty_per_shed=args.penalty_per_shed,
            ),
            cloud=aws_like_cloud_catalog(
                quota_gpus=_gpu_counts(args.cloud_quota, "--cloud-quota")
            )
            if hybrid
            else None,
            cloud_mode=args.cloud_mode,
        )
        recommender = ElasticRecommender(
            deployment,
            # A fresh, identically seeded traffic model per call: the
            # sweep is a controlled experiment over one arrival stream.
            lambda: spec.build_traffic(label=spec.name),
            objective,
            slo_p95_ttft_s=slo_s,
            duration_s=args.duration,
            warmup_s=args.warmup,
            decision_interval_s=args.interval,
            cold_start_s=args.cold_start,
            metrics_window_s=args.metrics_window,
            router_factory=lambda: ROUTERS[args.router](),
            stream_label=args.traffic,
            on_prem_pods=args.on_prem_pods or None,
            burst=BurstPolicy(
                mode=args.cloud_mode, max_cloud_pods=args.max_cloud_pods
            )
            if hybrid
            else None,
        )
        if args.jobs < 1:
            raise ValueError(f"--jobs must be >= 1, got {args.jobs}")
        rec = recommender.recommend(
            static_pods=args.static_pods or None,
            search_max=args.search_max,
            headroom=args.headroom,
            jobs=args.jobs,
            prune=args.prune,
        )
    except (KeyError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(rec.as_dict(), indent=2))
        return 0 if rec.meets_slo else 1
    rows = [
        [
            p.label,
            p.pod_hours,
            p.compute_cost,
            p.slo_penalty,
            p.total_cost,
            p.p95_ttft_s,
            "yes" if p.meets_slo else "NO",
            p.scale_events,
        ]
        for p in rec.curve
    ]
    print(
        format_table(
            ["config", "pod-h", "compute $", "penalty $", "total $",
             "ttft p95", "slo", "events"],
            rows,
            floatfmt=".3f",
            title=(
                f"Trade curve for {llm.name} on {profile.name} — "
                f"{args.traffic} traffic, {args.duration:.0f}s window, "
                f"p95 TTFT SLO {slo_s:.1f}s:"
            ),
        )
    )
    for skipped in rec.pruned:
        print(
            f"Pruned {skipped.label}: compute-bill floor "
            f"${skipped.cost_floor:.3f} exceeds {skipped.incumbent_label} "
            f"total ${skipped.incumbent_cost:.3f}"
        )
    print(
        f"Recommendation: {rec.chosen.label} "
        f"(${rec.chosen.total_cost:.3f} for the window, p95 TTFT "
        f"{rec.chosen.p95_ttft_s:.2f}s) — saves ${rec.savings:.3f} "
        f"({rec.savings_fraction:.0%}) vs the peak-sized static fleet "
        f"({rec.static.label}, ${rec.static.total_cost:.3f})"
    )
    if not rec.meets_slo:
        print("No evaluated configuration met the SLO.")
        return 1
    return 0


_COMMANDS = {
    "traces": _cmd_traces,
    "characterize": _cmd_characterize,
    "recommend": _cmd_recommend,
    "info": _cmd_info,
    "simulate": _cmd_simulate,
    "cluster-sim": _cmd_cluster_sim,
    "report": _cmd_report,
    "recommend-elastic": _cmd_recommend_elastic,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
