"""Fast-core speed gate: heap frontier + finish-mark decoding vs reference.

The fast simulation core (the heap-indexed event frontier in
:class:`FleetSimulator` plus the decode loop of
:class:`ContinuousBatchingEngine`, which keeps finish marks and gap runs
per row segment and draws its noise from a buffer) is only allowed to
exist because it is *bit-identical* to the straight-line reference
simulator (:class:`ReferenceFleetSimulator` over :class:`ReferenceEngine`
pods) — same floating-point expressions, same RNG draw sequence, same
event order. This benchmark enforces both halves of that contract at
fleet scale:

1. every scalar field, latency distribution and per-pod outcome of the
   fast run equals the oracle run exactly (no tolerance), and so does
   the number of requests drawn from the shared request source (the
   fast core's pods leap ahead of one another, so a slip in the order
   of their follow-up draws shows here first), and
2. the fast core clears a hard events/sec floor and a minimum speedup
   over the oracle.

Timings use min-of-N interleaved repeats so a background hiccup on the
CI machine hits both paths equally instead of poisoning the ratio. The
speedup widens with pod count (the oracle's frontier scan is O(pods)
per event), so the gate runs a deliberately large fleet. Smoke mode
keeps the bit-identity assertions at full strength but relaxes the
timing floors — a 2-core CI runner proves correctness, not throughput.

Emits ``BENCH_core_speed.json`` with the measured rates and config.
"""

import json
import os
import time

from benchmarks.conftest import BENCH_SEED, smoke
from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine
from repro.models import get_llm
from repro.simulation import (
    ClosedLoopTraffic,
    FleetSimulator,
    LeastLoadedRouter,
    RequestSource,
)
from repro.simulation.reference import ReferenceEngine, ReferenceFleetSimulator
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-40GB")

PODS = smoke(96, 24)
USERS = smoke(6144, 1536)
WEIGHT = 120_000
DURATION_S = smoke(60.0, 30.0)
REPEATS = smoke(3, 2)

#: Hard floors. On a shared 2-core VM (Python 3.11) the fast core ran
#: full scale's 44,151 events in 0.35 s, about 125k events/s and 10.2x
#: the oracle's 3.6 s, and smoke scale at about 119k events/s and 6.0x.
#: The gates leave headroom for slower hardware while still catching an
#: accidental return to the O(pods) scan or the reference's per-request
#: decode loop. Smoke floors only prove the fast path is not
#: pathologically slower than the oracle.
MIN_EVENTS_PER_S = smoke(10_000.0, 5_000.0)
MIN_SPEEDUP = smoke(3.0, 1.3)

#: FleetResult fields that must match exactly between the two paths.
EXACT_FIELDS = (
    "time_s", "arrivals", "requests_completed", "tokens_generated",
    "throughput_tokens_per_s", "admitted", "shed", "deferrals",
    "completed_total", "in_flight_end", "pod_seconds",
)


def _build_fleet(generator, fast):
    engine_type = ContinuousBatchingEngine if fast else ReferenceEngine
    fleet_type = FleetSimulator if fast else ReferenceFleetSimulator
    pods = [
        engine_type(
            LLM, PROFILE, max_batch_weight=WEIGHT,
            seed=spawn_seed(BENCH_SEED, "pod", i),
        )
        for i in range(PODS)
    ]
    source = RequestSource(
        generator, derive_rng(BENCH_SEED, "core-speed", USERS), WEIGHT
    )
    return fleet_type(pods, ClosedLoopTraffic(USERS), LeastLoadedRouter(), source)


def _timed_run(generator, fast):
    """The run's result, its wall time and the requests its source drew."""
    fleet = _build_fleet(generator, fast)
    t0 = time.perf_counter()
    result = fleet.run(duration_s=DURATION_S)
    return result, time.perf_counter() - t0, fleet.source.drawn


def test_core_speed_gate(generator, results_dir):
    wall_fast = wall_oracle = float("inf")
    res_fast = res_oracle = None
    for _ in range(REPEATS):
        res_fast, wall, drawn_fast = _timed_run(generator, fast=True)
        wall_fast = min(wall_fast, wall)
        res_oracle, wall, drawn_oracle = _timed_run(generator, fast=False)
        wall_oracle = min(wall_oracle, wall)

    # --- bit-identity gate (full strength in every mode) -------------------
    for field in EXACT_FIELDS:
        fast_value = getattr(res_fast, field)
        oracle_value = getattr(res_oracle, field)
        assert fast_value == oracle_value, (
            f"fast core diverged from oracle on {field}: "
            f"{fast_value!r} != {oracle_value!r}"
        )
    for dist in ("ttft", "itl", "e2e"):
        assert getattr(res_fast, dist) == getattr(res_oracle, dist), (
            f"fast core diverged from oracle on the {dist} distribution"
        )
    assert res_fast.sim_events == res_oracle.sim_events
    assert res_fast.per_pod == res_oracle.per_pod, (
        "fast core diverged from oracle on the per-pod outcomes"
    )
    assert drawn_fast == drawn_oracle, (
        f"fast core drew {drawn_fast} requests, oracle {drawn_oracle}"
    )

    # --- throughput gate ---------------------------------------------------
    events_per_s = res_fast.sim_events / wall_fast
    speedup = wall_oracle / wall_fast
    assert res_fast.sim_events > 0
    assert res_fast.events_per_second > 0  # self-timed field is populated
    assert events_per_s >= MIN_EVENTS_PER_S, (
        f"fast core too slow: {events_per_s:,.0f} events/s "
        f"< floor {MIN_EVENTS_PER_S:,.0f}"
    )
    assert speedup >= MIN_SPEEDUP, (
        f"fast core speedup {speedup:.2f}x < floor {MIN_SPEEDUP:.1f}x "
        f"(fast {wall_fast:.3f}s vs oracle {wall_oracle:.3f}s)"
    )

    payload = {
        "config": {
            "llm": LLM.name,
            "profile": PROFILE.name,
            "pods": PODS,
            "users": USERS,
            "max_batch_weight": WEIGHT,
            "duration_s": DURATION_S,
            "repeats": REPEATS,
            "seed": BENCH_SEED,
            "smoke": smoke(False, True),
        },
        "sim_events": res_fast.sim_events,
        "wall_fast_s": wall_fast,
        "wall_oracle_s": wall_oracle,
        "events_per_second": events_per_s,
        "speedup": speedup,
        "floors": {
            "events_per_second": MIN_EVENTS_PER_S,
            "speedup": MIN_SPEEDUP,
        },
        "bit_identical": True,
    }
    path = os.path.join(results_dir, "BENCH_core_speed.json")
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(
        f"\nfast: {wall_fast:.3f}s ({events_per_s:,.0f} events/s)  "
        f"oracle: {wall_oracle:.3f}s  speedup: {speedup:.2f}x"
        f"\n[report written to {path}]"
    )
