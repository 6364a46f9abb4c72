"""Per-layer tracing from outside the library.

A :class:`Tracer` replaces the public entry points of each layer — the
methods and functions listed in :func:`_plain_targets` plus a few that
need a custom wrapper — with timing wrappers for the duration of one
traced pass, and puts the originals back afterwards. Nothing under
``src/`` knows it is being traced; the untraced passes run the library
exactly as a user would.

Every wrapper opens a span. A span's *self* time is its duration minus
the part covered by spans opened inside it, so the self times of all
keys plus the time outside every span add up to the traced wall time.
Counters are taken at the same boundaries from the library's own
result and stats objects, so they repeat exactly for a given seed.
"""

from __future__ import annotations

import time
from collections import defaultdict

#: The closed-loop ladder of the characterization load tests (paper
#: §III-C3); the decode run length is reported once per rung.
LADDER = (1, 2, 4, 8, 16, 32, 64, 128)


class Tracer:
    """Span and counter store plus the patches that feed it."""

    def __init__(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.incl_s: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        #: User count of the load test in progress (None outside one).
        self.rung: int | None = None
        #: Set-up metrics, kept by :meth:`end_setup`.
        self.setup: dict[str, float] = {}
        # One child-time accumulator per open span; index 0 collects the
        # time covered by top-level spans.
        self._stack = [0.0]
        self._patches: list[tuple[object, str, object]] = []

    # ---- lifecycle ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer entry point (see :func:`_plain_targets`)."""
        import repro.characterization.runner as runner
        from repro.inference.engine import ContinuousBatchingEngine
        from repro.recommendation.elastic import ElasticRecommender
        from repro.simulation.fleet import FleetSimulator

        for owner, name, key in _plain_targets():
            self._patch(owner, name, lambda fn, key=key: self._span(fn, key))
        counts = self.counts

        def arrivals(n: int) -> None:
            counts["traffic.arrivals"] += n

        for owner, name, count in _traffic_targets():
            hook = None if count is None else (lambda r, c=count: arrivals(c(r)))
            self._patch(owner, name, lambda fn, h=hook: self._span(fn, "traffic", h))
        self._patch(
            ElasticRecommender, "recommend",
            lambda fn: self._span(fn, "elastic.recommend", self._count_sweep),
        )
        self._patch(ContinuousBatchingEngine, "step", self._step)
        self._patch(runner, "run_load_test", self._load_test)
        self._patch(FleetSimulator, "drain_pending", self._drain)
        self._patch(FleetSimulator, "bind_capacity", self._bind_capacity)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def end_setup(self) -> None:
        """Keep the set-up's metrics, then start recording the measured phase."""
        self.setup = {
            "traces.generate_s": self.incl_s["traces.generate"],
            "workload.fit_s": self.incl_s["workload.fit"],
        }
        for store in (self.self_s, self.incl_s, self.calls, self.counts):
            store.clear()
        self._stack[:] = [0.0]

    def _patch(self, owner, name: str, make) -> None:
        original = owner.__dict__[name]
        if isinstance(original, classmethod):
            replacement = classmethod(make(original.__func__))
        else:
            replacement = make(original)
        setattr(owner, name, replacement)
        self._patches.append((owner, name, original))

    # ---- wrappers ----------------------------------------------------------

    def _span(self, fn, key: str, on_return=None):
        stack, self_s, incl_s, calls = self._stack, self.self_s, self.incl_s, self.calls
        perf = time.perf_counter

        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                inner = stack.pop()
                stack[-1] += dt
                self_s[key] += dt - inner
                incl_s[key] += dt
                calls[key] += 1
            if on_return is not None:
                on_return(result)
            return result

        return span

    def _step(self, fn):
        """Engine step: attributed to prefill or decode by its stats."""
        stack, self_s, counts = self._stack, self.self_s, self.counts
        perf = time.perf_counter
        tracer = self

        def step(engine):
            stats = engine.stats
            prefills, decodes = stats.prefill_steps, stats.decode_steps
            tokens, done = stats.tokens_generated, stats.requests_completed
            stack.append(0.0)
            t0 = perf()
            try:
                return fn(engine)
            finally:
                dt = perf() - t0
                inner = stack.pop()
                stack[-1] += dt
                finished = stats.requests_completed - done
                counts["engine.completions"] += finished
                rung = tracer.rung
                if stats.prefill_steps != prefills:
                    self_s["engine.prefill"] += dt - inner
                    counts["engine.prefill_steps"] += 1
                    if rung is not None:
                        counts[f"events.u{rung}"] += 1 + finished
                else:
                    self_s["engine.decode"] += dt - inner
                    if stats.decode_steps != decodes:
                        counts["engine.decode_steps"] += 1
                        produced = stats.tokens_generated - tokens
                        counts["engine.decode_tokens"] += produced
                        if rung is not None:
                            counts[f"decode.u{rung}"] += 1
                            counts[f"events.u{rung}"] += finished

        return step

    def _load_test(self, fn):
        """``run_load_test``: a span that also tags steps with its rung."""
        span = self._span(fn, "characterization.loadtest")
        tracer = self

        def load_test(*args, **kwargs):
            tracer.rung = kwargs["concurrent_users"]
            try:
                return span(*args, **kwargs)
            finally:
                tracer.rung = None

        return load_test

    def _drain(self, fn):
        """End of a fleet run: count the samples its collectors keep."""
        span = self._span(fn, "fleet.loop")
        counts = self.counts

        def drain_pending(fleet):
            span(fleet)
            for pod in fleet.all_pods:
                collector = pod.metrics
                counts["metrics.samples_kept"] += (
                    collector.itl_samples().size
                    + collector.ttft_samples()[0].size
                    + len(collector.completed)
                )

        return drain_pending

    def _count_sweep(self, rec) -> None:
        """Candidates an elastic sweep scored or pruned."""
        self.counts["elastic.candidates"] += len(rec.curve) + len(rec.pruned)
        self.counts["elastic.pruned"] += len(rec.pruned)

    def _bind_capacity(self, fn):
        """Count the pods a capacity ledger is asked for and grants."""
        counts = self.counts

        def bind_capacity(fleet, acquire, release):
            def counted(want, t):
                granted = acquire(want, t)
                counts["cluster.pods_requested"] += want
                counts["cluster.pods_granted"] += granted
                return granted

            return fn(fleet, counted, release)

        return bind_capacity

    # ---- report ------------------------------------------------------------

    def self_sum(self, prefix: str) -> float:
        """Self time of every key equal to or under ``prefix``."""
        return sum(
            v for k, v in self.self_s.items()
            if k == prefix or k.startswith(prefix + ".")
        )

    def metrics(self, wall_s: float) -> dict[str, float]:
        """The per-layer metrics of a measured phase that took ``wall_s``."""
        c, calls, incl, own = self.counts, self.calls, self.incl_s, self.self_s
        prefills, decodes = c["engine.prefill_steps"], c["engine.decode_steps"]
        steps = prefills + decodes
        out = {
            "engine.steps": steps,
            "engine.prefill_steps": prefills,
            "engine.decode_steps": decodes,
            "engine.prefill_self_s": own["engine.prefill"],
            "engine.decode_self_s": own["engine.decode"],
            "engine.decode_run_len": _ratio(
                decodes, prefills + c["engine.completions"]
            ),
            "engine.tokens_per_decode_step": _ratio(c["engine.decode_tokens"], decodes),
            "costmodel.calls": calls["costmodel"],
            "costmodel.self_s": own["costmodel"],
            "metrics.record_calls": calls["metrics.record"],
            "metrics.record_self_s": own["metrics.record"],
            "metrics.samples_kept": c["metrics.samples_kept"],
            "frontier.ops": calls["frontier"],
            "frontier.self_s": self.self_sum("frontier"),
            "frontier.ops_per_step": _ratio(calls["frontier"], steps),
            "router.routes": calls["router"],
            "router.self_s": own["router"],
            "router.placement_s": incl["fleet.begin"],
            "fleet.runs": calls["fleet.begin"],
            "fleet.build_s": own["fleet.build"],
            "fleet.loop_self_s": own["fleet.loop"] + own["fleet.begin"],
            "traffic.arrivals": c["traffic.arrivals"],
            "traffic.self_s": own["traffic"],
            "workload.requests_drawn": calls["workload.draw"],
            "workload.draw_self_s": own["workload.draw"],
            "results.assemble_s": own["results"],
            "autoscale.decisions": calls["autoscale"],
            "autoscale.self_s": own["autoscale"],
            "faults.applied": calls["faults"],
            "faults.self_s": own["faults"],
            "cluster.loop_self_s": self.self_sum("cluster"),
            "cluster.inventory_ops": calls["cluster.inventory"],
            "cluster.grant_ratio": _ratio(
                c["cluster.pods_granted"], c["cluster.pods_requested"]
            ),
            "characterization.loadtests": calls["characterization.loadtest"],
            "characterization.loadtest_self_s": own["characterization.loadtest"],
            "characterization.feasibility_s": own["characterization.feasibility"],
            "characterization.run_self_s": own["characterization.run"],
            "recommendation.fit_s": incl["recommendation.fit"],
            "recommendation.static_s": own["recommendation.static"],
            "elastic.candidates": c["elastic.candidates"],
            "elastic.simulated": calls["elastic.evaluate"],
            "elastic.pruned": c["elastic.pruned"],
            "elastic.sim_share": _ratio(
                calls["elastic.evaluate"], c["elastic.candidates"]
            ),
            "elastic.self_s": self.self_sum("elastic"),
            "elastic.sweep_s": incl["elastic.sizing"],
            "replay.record_s": incl["replay.record"],
        }
        for users in LADDER:
            out[f"engine.decode_run_len.u{users}"] = _ratio(
                c[f"decode.u{users}"], c[f"events.u{users}"]
            )
        out.update(self.setup)
        # _stack[0] holds the time covered by top-level spans.
        out["trace.unattributed_share"] = (wall_s - self._stack[0]) / wall_s
        return out


def _ratio(num: float, den: float) -> float:
    """``num / den``, or 0.0 when the layer did no work on this workload."""
    return num / den if den else 0.0


def _plain_targets():
    """``(owner, attribute, span key)`` for every plainly wrapped entry point.

    Keys name the layer (the repo module) the span's self time belongs
    to. Keys under one prefix are summed where a metric reports the
    layer as a whole.
    """
    import repro.characterization.runner as runner
    from repro.characterization.runner import CharacterizationTool
    from repro.inference.costmodel import CostModel
    from repro.inference.engine import ContinuousBatchingEngine
    from repro.recommendation.elastic import ElasticRecommender
    from repro.recommendation.pilot import LLMPilotRecommender
    from repro.recommendation.recommender import GPURecommendationTool
    from repro.simulation.autoscale import AdmissionController
    from repro.simulation.cluster import ClusterInventory, ClusterSimulator
    from repro.simulation.fleet import (
        FleetSimulator,
        JoinShortestQueueRouter,
        LeastLoadedRouter,
        RoundRobinRouter,
        WeightAwareRouter,
    )
    from repro.simulation.frontier import ClusterFrontier, EventFrontier
    from repro.simulation.metrics import LatencyStats, MetricsCollector
    from repro.simulation.replay import RecordedTraffic
    from repro.simulation.traffic import RequestSource
    from repro.traces.generator import TraceSynthesizer
    from repro.workload.generator import WorkloadGenerator

    targets = [
        (CostModel, "prefill_time", "costmodel"),
        (CostModel, "decode_step_time", "costmodel"),
        (EventFrontier, "push", "frontier"),
        (EventFrontier, "peek", "frontier"),
        (EventFrontier, "rebuild", "frontier.rebuild"),
        (ClusterFrontier, "push", "frontier"),
        (ClusterFrontier, "peek_pod", "frontier"),
        (ClusterFrontier, "peek_control", "frontier"),
        (ContinuousBatchingEngine, "__init__", "fleet.build"),
        (FleetSimulator, "__init__", "fleet.build"),
        (FleetSimulator, "begin", "fleet.begin"),
        (FleetSimulator, "run", "fleet.loop"),
        (FleetSimulator, "inject_due", "fleet.loop"),
        (FleetSimulator, "step_pod", "fleet.loop"),
        (FleetSimulator, "_result", "results"),
        (FleetSimulator, "autoscale_tick", "autoscale"),
        (FleetSimulator, "fault_tick", "faults"),
        (MetricsCollector, "merged", "results"),
        (LatencyStats, "from_samples", "results"),
        (RequestSource, "next_request", "workload.draw"),
        (TraceSynthesizer, "generate", "traces.generate"),
        (WorkloadGenerator, "fit", "workload.fit"),
        (ClusterSimulator, "run", "cluster"),
        (ClusterInventory, "allocate", "cluster.inventory"),
        (ClusterInventory, "release", "cluster.inventory"),
        (CharacterizationTool, "run", "characterization.run"),
        (runner, "check_feasibility", "characterization.feasibility"),
        (LLMPilotRecommender, "fit", "recommendation.fit"),
        (GPURecommendationTool, "recommend", "recommendation.static"),
        (GPURecommendationTool, "_recommend_elastic", "elastic.sizing"),
        (ElasticRecommender, "evaluate", "elastic.evaluate"),
        (RecordedTraffic, "record", "replay.record"),
    ]
    targets += [
        (MetricsCollector, name, "metrics.record")
        for name in (
            "record_first_token", "record_gaps", "gap_sink",
            "record_tokens", "record_completion",
        )
    ]
    targets += [
        (cls, "route", "router")
        for cls in (
            RoundRobinRouter, LeastLoadedRouter, JoinShortestQueueRouter,
            WeightAwareRouter, AdmissionController,
        )
    ]
    return targets


def _traffic_targets():
    """``(owner, attribute, arrivals count)`` for the traffic models.

    The count maps a call's return value to the requests it emitted.

    Only methods a class defines itself are wrapped, so an inherited
    method is never wrapped twice.
    """
    from repro.simulation.replay import RecordedTraffic, ReplayTraffic
    from repro.simulation import traffic

    counters = {
        "initial_arrivals": len,
        "on_complete": lambda request: request is not None,
        "pop": lambda arrival: 1,
        "peek": None,
    }
    classes = (
        traffic.ClosedLoopTraffic, traffic._ScheduledTraffic,
        traffic.PoissonTraffic, traffic.DiurnalTraffic, traffic.BurstyTraffic,
        RecordedTraffic, ReplayTraffic,
    )
    return [
        (cls, name, counter)
        for cls in classes
        for name, counter in counters.items()
        if name in cls.__dict__
    ]
