"""Load-testing experiments (paper §III-C3).

Each experiment simulates ``u`` concurrent closed-loop users sending
requests from the workload generator to one inference-service pod for a
fixed duration (2 minutes by default). From the logged token timestamps
we extract the paper's four metrics:

* **TTFT** — median time to first output token (queueing + prompt phase),
* **nTTFT** — median of per-request TTFT / input-token count,
* **ITL** — median latency between subsequent output tokens,
* **throughput** — total output tokens generated / experiment duration.

Both entry points are thin wrappers over the event-driven simulation
core (:mod:`repro.simulation`): a single-pod
:class:`~repro.simulation.fleet.FleetSimulator` run under
:class:`~repro.simulation.traffic.ClosedLoopTraffic` or
:class:`~repro.simulation.traffic.PoissonTraffic`. The wrapper keeps the
exact RNG stream layout of the original hand-written driver loops, so
seeded results are bit-for-bit identical to the pre-refactor harness.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.inference.engine import ContinuousBatchingEngine
from repro.inference.request import RequestResult
from repro.simulation.fleet import FleetSimulator, RoundRobinRouter
from repro.simulation.traffic import ClosedLoopTraffic, PoissonTraffic, RequestSource
from repro.utils.rng import derive_rng
from repro.workload.generator import WorkloadGenerator

__all__ = [
    "LoadTestResult",
    "run_load_test",
    "run_open_loop_test",
    "DEFAULT_USER_COUNTS",
]

#: The paper's default load ladder: 1, 2, 4, ..., 128 concurrent users.
DEFAULT_USER_COUNTS: tuple[int, ...] = (1, 2, 4, 8, 16, 32, 64, 128)

#: Lognormal sigma of the client-side measurement noise on every
#: reported metric (what gives no-effect deployment knobs a tiny
#: non-zero MDI in the Fig 4 study, exactly as on a real testbed).
_MEASUREMENT_NOISE_SIGMA = 0.015


@dataclass
class LoadTestResult:
    """Metrics from one (pod, load) load-testing experiment.

    ``concurrent_users`` is the closed-loop population (0 for open-loop
    runs); open-loop runs report the injected ``arrivals`` and the
    ``offered_rate_per_s`` they were driven at instead.
    """

    concurrent_users: int
    duration_s: float
    ttft_median_s: float
    nttft_median_s: float
    itl_median_s: float
    throughput_tokens_per_s: float
    e2e_median_s: float
    requests_completed: int
    first_tokens_served: int
    tokens_generated: int
    queue_depth_end: int
    arrivals: int = 0
    offered_rate_per_s: float = float("nan")
    results: list[RequestResult] = field(default_factory=list, repr=False)

    @classmethod
    def measure(
        cls,
        engine: ContinuousBatchingEngine,
        completed: list[RequestResult],
        elapsed: float,
        noise_rng: np.random.Generator,
        **fields,
    ) -> "LoadTestResult":
        """The metrics of ``engine`` over a measured window of ``elapsed``
        seconds, as a client observes them.

        ``completed`` are the requests the end-to-end latency and the
        completion count cover. Every metric carries lognormal client
        measurement noise from ``noise_rng``; the draw order (ttft,
        nttft, itl, throughput, e2e — each skipped when its sample set
        is empty) is part of the seeded contract, do not reorder.
        ``fields`` are the remaining :class:`LoadTestResult` fields.
        """

        def noisy(value: float) -> float:
            if not np.isfinite(value):
                return value
            return float(value * noise_rng.lognormal(0.0, _MEASUREMENT_NOISE_SIGMA))

        nan = float("nan")
        ttft, ttft_inputs = engine.ttft_samples()
        tokens = engine.stats.tokens_generated
        ttft_median = noisy(float(np.median(ttft))) if ttft.size else nan
        nttft_median = noisy(float(np.median(ttft / ttft_inputs))) if ttft.size else nan
        # NaN without ITL samples, which noisy() passes through undrawn.
        itl_median = noisy(engine.metrics.itl_median())
        throughput = noisy(tokens / elapsed)
        e2e = (
            noisy(float(np.median([r.e2e_latency for r in completed])))
            if completed
            else nan
        )
        return cls(
            duration_s=elapsed,
            ttft_median_s=ttft_median,
            nttft_median_s=nttft_median,
            itl_median_s=itl_median,
            throughput_tokens_per_s=throughput,
            e2e_median_s=e2e,
            requests_completed=len(completed),
            first_tokens_served=int(ttft.size),
            tokens_generated=tokens,
            queue_depth_end=engine.queue_depth,
            **fields,
        )


def run_load_test(
    engine: ContinuousBatchingEngine,
    generator: WorkloadGenerator,
    concurrent_users: int,
    duration_s: float = 120.0,
    seed: int = 0,
    keep_results: bool = False,
    noise_seed: int | None = None,
    warmup_s: float = 0.0,
) -> LoadTestResult:
    """Run one closed-loop load-testing experiment on a fresh engine.

    Users behave as in the paper's harness: each user has exactly one
    request in flight; on completion it immediately submits the next one.
    The reported metrics carry a small lognormal perturbation standing in
    for client-side measurement noise (see :meth:`LoadTestResult.measure`).
    ``noise_seed`` decouples the measurement-noise stream from the
    workload stream — controlled sensitivity studies rerun the same
    workload under fresh noise.

    ``warmup_s`` excludes the initial transient: metric collection
    restarts at the warmup boundary and end-to-end latency counts only
    requests *submitted* after it, avoiding the survivor bias a short
    window introduces for saturated systems with long request cycles.
    ``duration_s`` is the measured (post-warmup) window.
    """
    if concurrent_users < 1:
        raise ValueError(f"concurrent_users must be >= 1, got {concurrent_users}")
    if duration_s <= 0:
        raise ValueError(f"duration_s must be positive, got {duration_s}")
    if warmup_s < 0:
        raise ValueError(f"warmup_s must be >= 0, got {warmup_s}")
    if engine.time > 0 or engine.has_work():
        raise ValueError("run_load_test requires a fresh engine")

    rng = derive_rng(seed, "loadtest", concurrent_users)
    source = RequestSource(generator, rng, engine.max_batch_weight)
    fleet = FleetSimulator(
        [engine], ClosedLoopTraffic(concurrent_users), RoundRobinRouter(), source
    )
    fleet.run(duration_s=duration_s, warmup_s=warmup_s, assemble_result=False)

    completed = [r for r in engine.metrics.completed if r.submitted_at >= warmup_s]
    noise_rng = derive_rng(
        seed if noise_seed is None else noise_seed,
        "measurement-noise",
        concurrent_users,
    )
    return LoadTestResult.measure(
        engine,
        completed,
        max(engine.time, warmup_s + duration_s) - warmup_s,
        noise_rng,
        concurrent_users=concurrent_users,
        arrivals=fleet.arrivals,
        results=completed if keep_results else [],
    )


def run_open_loop_test(
    engine: ContinuousBatchingEngine,
    generator: WorkloadGenerator,
    arrival_rate_per_s: float,
    duration_s: float = 120.0,
    seed: int = 0,
) -> LoadTestResult:
    """Open-loop load test: Poisson arrivals at a fixed rate.

    The paper's harness is closed-loop (a fixed population of users, one
    request in flight each). Production front ends often see open-loop
    traffic instead: requests arrive whether or not earlier ones have
    finished, so overload manifests as unbounded queueing rather than a
    throughput plateau. Useful for stress analysis beyond the paper's
    protocol; metrics match :func:`run_load_test`, with the injected
    arrival count in ``arrivals`` and the driving rate in
    ``offered_rate_per_s`` (``concurrent_users`` is 0 — there is no
    closed-loop population).
    """
    if arrival_rate_per_s <= 0:
        raise ValueError("arrival_rate_per_s must be positive")
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    if engine.time > 0 or engine.has_work():
        raise ValueError("run_open_loop_test requires a fresh engine")

    rng = derive_rng(seed, "open-loop", arrival_rate_per_s)
    arrival_rng = derive_rng(seed, "open-loop-arrivals", arrival_rate_per_s)
    source = RequestSource(generator, rng, engine.max_batch_weight)
    fleet = FleetSimulator(
        [engine],
        PoissonTraffic(arrival_rate_per_s, rng=arrival_rng),
        RoundRobinRouter(),
        source,
    )
    fleet.run(duration_s=duration_s, assemble_result=False)

    return LoadTestResult.measure(
        engine,
        engine.metrics.completed,
        max(engine.time, duration_s),
        derive_rng(seed, "open-loop-noise", arrival_rate_per_s),
        concurrent_users=0,
        arrivals=fleet.arrivals,
        offered_rate_per_s=arrival_rate_per_s,
    )
