"""Tests for the event-driven simulation core (repro.simulation).

The load-test wrappers promise *seed-for-seed identical* output to the
pre-refactor hand-written driver loops; the golden values pinned here
were captured from that original implementation and must never drift.
"""

import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.characterization import run_load_test, run_open_loop_test
from repro.hardware import parse_profile
from repro.inference import ContinuousBatchingEngine, InferenceRequest
from repro.models import get_llm
from repro.simulation import (
    Autoscaler,
    AutoscaleConfig,
    BurstyTraffic,
    ClosedLoopTraffic,
    DiurnalTraffic,
    FleetSimulator,
    JoinShortestQueueRouter,
    LatencyStats,
    LeastLoadedRouter,
    MetricsCollector,
    NoOpPolicy,
    PoissonTraffic,
    RequestSource,
    RoundRobinRouter,
    ThresholdPolicy,
)
from repro.simulation.metrics import window_end
from repro.simulation.reference import ReferenceEngine, ReferenceFleetSimulator
from repro.utils.rng import derive_rng, spawn_seed

LLM = get_llm("Llama-2-13b")
PROFILE = parse_profile("1xA100-40GB")


def _engine(seed=0, weight=12_000):
    return ContinuousBatchingEngine(LLM, PROFILE, max_batch_weight=weight, seed=seed)


@st.composite
def _itl_runs(draw):
    """``(values, counts)`` of ITL runs as the engine emits them: gap
    values that repeat across runs and counts 1-300. Half the draws
    repeat the runs until the total passes 2**17 samples, so the mean's
    pairwise split recurses past one leaf."""
    pool = draw(
        st.lists(st.floats(1e-4, 10.0), min_size=1, max_size=6, unique=True)
    )
    runs = draw(
        st.lists(
            st.tuples(st.sampled_from(pool), st.integers(1, 300)),
            min_size=1,
            max_size=30,
        )
    )
    if draw(st.booleans()):
        total = sum(count for _, count in runs)
        runs = runs * (2**17 // total + 1) + runs[: draw(st.integers(0, 3))]
    values, counts = zip(*runs)
    return list(values), list(counts)


class TestGoldenEquivalence:
    """Wrappers reproduce the pre-refactor driver loops bit-for-bit.

    These exact values were recorded by running the original
    ``loadtest.py`` (two ~130-line hand-written loops) at the fixtures'
    seeds before it was rewritten over FleetSimulator.
    """

    def test_closed_loop_golden(self, generator):
        res = run_load_test(_engine(seed=3), generator, 4, duration_s=20.0, seed=3)
        assert res.concurrent_users == 4
        assert res.duration_s == 20.006395221038623
        assert res.ttft_median_s == 0.08482754441551124
        assert res.nttft_median_s == 0.00034597828527130944
        assert res.itl_median_s == 0.03367198138182016
        assert res.throughput_tokens_per_s == 158.1389295611904
        assert res.e2e_median_s == 5.752671341114865
        assert res.requests_completed == 8
        assert res.first_tokens_served == 12
        assert res.tokens_generated == 3101
        assert res.queue_depth_end == 0

    def test_closed_loop_warmup_golden(self, generator):
        res = run_load_test(
            _engine(seed=7), generator, 16, duration_s=15.0, seed=7, warmup_s=5.0
        )
        assert res.ttft_median_s == 0.5201397873588353
        assert res.itl_median_s == 0.039178609793496626
        assert res.throughput_tokens_per_s == 283.40768066475727
        assert res.requests_completed == 6
        assert res.tokens_generated == 4375
        assert res.queue_depth_end == 3

    def test_open_loop_golden(self, generator):
        res = run_open_loop_test(
            _engine(seed=5), generator, 0.5, duration_s=30.0, seed=7
        )
        assert res.arrivals == 13
        assert res.concurrent_users == 0  # no longer overloaded
        assert res.offered_rate_per_s == 0.5
        assert res.ttft_median_s == 0.11683560163830119
        assert res.itl_median_s == 0.03337550139414597
        assert res.throughput_tokens_per_s == 97.27597382328894
        assert res.requests_completed == 9
        assert res.tokens_generated == 2981


class TestFleetEquivalence:
    def test_one_pod_closed_loop_matches_run_load_test(self, generator):
        """FleetSimulator(1 pod) + ClosedLoopTraffic == run_load_test."""
        users, seed, duration = 4, 3, 20.0
        reference = run_load_test(
            _engine(seed=seed), generator, users, duration_s=duration, seed=seed,
            keep_results=True,
        )

        engine = _engine(seed=seed)
        source = RequestSource(
            generator, derive_rng(seed, "loadtest", users), engine.max_batch_weight
        )
        fleet = FleetSimulator(
            [engine], ClosedLoopTraffic(users), RoundRobinRouter(), source
        )
        fleet.run(duration_s=duration)

        ttft, _inputs = engine.ttft_samples()
        # Raw sample streams are identical...
        assert engine.stats.tokens_generated == reference.tokens_generated
        assert len(engine.metrics.completed) == reference.requests_completed
        assert int(ttft.size) == reference.first_tokens_served
        assert engine.queue_depth == reference.queue_depth_end
        # ...and so are per-request timestamps, not just aggregates.
        for mine, ref in zip(engine.metrics.completed, reference.results):
            assert mine.submitted_at == ref.submitted_at
            assert mine.first_token_at == ref.first_token_at
            assert mine.finished_at == ref.finished_at

    def test_noop_autoscaler_is_golden_identical(self, generator):
        """A no-op-policy autoscaled fleet == the PR-1 static fleet path.

        The autoscaler's decision ticks only *read* windowed metrics;
        with the no-op policy they must not perturb a single engine step,
        RNG draw or timestamp relative to the plain static fleet (whose
        1-pod path is itself golden-pinned against the pre-refactor
        harness in TestGoldenEquivalence).
        """
        users, seed, duration = 4, 3, 20.0
        reference = run_load_test(
            _engine(seed=seed), generator, users, duration_s=duration, seed=seed,
            keep_results=True,
        )

        engine = _engine(seed=seed)
        source = RequestSource(
            generator, derive_rng(seed, "loadtest", users), engine.max_batch_weight
        )
        fleet = FleetSimulator(
            [engine],
            ClosedLoopTraffic(users),
            RoundRobinRouter(),
            source,
            autoscaler=Autoscaler(
                NoOpPolicy(),
                AutoscaleConfig(decision_interval_s=2.0, metrics_window_s=5.0),
            ),
            pod_factory=lambda serial: _engine(seed=spawn_seed(seed, "pod", serial)),
        )
        res = fleet.run(duration_s=duration)
        res.verify_conservation()
        assert res.scale_events == []
        assert res.pod_seconds == pytest.approx(res.time_s)
        assert engine.stats.tokens_generated == reference.tokens_generated
        assert len(engine.metrics.completed) == reference.requests_completed
        assert engine.queue_depth == reference.queue_depth_end
        for mine, ref in zip(engine.metrics.completed, reference.results):
            assert mine.submitted_at == ref.submitted_at
            assert mine.first_token_at == ref.first_token_at
            assert mine.finished_at == ref.finished_at

    def test_round_robin_fleet_conserves_requests_and_tokens(self, generator):
        for n_pods in (2, 3):
            engines = [
                _engine(seed=spawn_seed(9, "pod", i)) for i in range(n_pods)
            ]
            source = RequestSource(generator, derive_rng(9, "fleet"), 12_000)
            fleet = FleetSimulator(
                engines,
                ClosedLoopTraffic(6),
                RoundRobinRouter(),
                source,
            )
            res = fleet.run(duration_s=15.0)
            # Every drawn request was routed exactly once (nothing was
            # shed, drained or double-counted)...
            res.verify_conservation()
            assert res.admitted == res.arrivals
            assert res.shed == 0
            assert sum(fleet.routed_counts) == fleet.arrivals == source.drawn
            assert sum(p.arrivals_routed for p in res.per_pod) == res.arrivals
            # ...token and completion counts add up across pods...
            assert res.tokens_generated == sum(
                e.stats.tokens_generated for e in engines
            )
            assert res.requests_completed == sum(
                len(e.metrics.completed) for e in engines
            )
            # ...and round-robin spreads the *initial* population evenly.
            assert all(p.arrivals_routed >= 6 // n_pods for p in res.per_pod)

    def test_shared_clock_causality(self, generator):
        """No pod's completion precedes its request's arrival time."""
        engines = [_engine(seed=i) for i in range(3)]
        source = RequestSource(generator, derive_rng(1, "causality"), 12_000)
        fleet = FleetSimulator(
            engines,
            PoissonTraffic(3.0, rng=derive_rng(1, "causality-arrivals")),
            JoinShortestQueueRouter(),
            source,
        )
        res = fleet.run(duration_s=20.0)
        assert res.arrivals > 0
        for engine in engines:
            for r in engine.metrics.completed:
                assert r.first_token_at >= r.submitted_at
                assert r.finished_at >= r.first_token_at

    def test_fresh_engine_required(self, generator):
        engine = _engine()
        source = RequestSource(generator, derive_rng(0, "x"), 12_000)
        FleetSimulator(
            [engine], ClosedLoopTraffic(1), RoundRobinRouter(), source
        ).run(duration_s=2.0)
        with pytest.raises(ValueError, match="fresh"):
            FleetSimulator(
                [engine], ClosedLoopTraffic(1), RoundRobinRouter(), source
            ).run(duration_s=2.0)

    def test_validation(self, generator):
        source = RequestSource(generator, derive_rng(0, "x"), 12_000)
        with pytest.raises(ValueError):
            FleetSimulator([], ClosedLoopTraffic(1), RoundRobinRouter(), source)
        with pytest.raises(ValueError):
            FleetSimulator(
                [_engine()], ClosedLoopTraffic(1), RoundRobinRouter(), source
            ).run(duration_s=0.0)


class TestTrafficModels:
    def _drain(self, traffic, source, until):
        times = []
        while True:
            t = traffic.peek()
            if t is None or t >= until:
                return times
            t, _ = traffic.pop(source)
            times.append(t)

    def test_poisson_rate(self, generator):
        source = RequestSource(generator, derive_rng(0, "p"), 12_000)
        traffic = PoissonTraffic(2.0, rng=derive_rng(0, "pa"))
        times = self._drain(traffic, source, 200.0)
        assert 300 <= len(times) <= 500  # 2/s over 200s
        assert all(b > a for a, b in zip(times, times[1:]))

    def test_diurnal_modulates_rate(self, generator):
        source = RequestSource(generator, derive_rng(0, "d"), 12_000)
        period = 100.0
        traffic = DiurnalTraffic(
            2.0, rng=derive_rng(0, "da"), amplitude=0.9, period_s=period
        )
        times = np.array(self._drain(traffic, source, 40 * period))
        phase = (times % period) / period
        # First half-period is the crest (sin>0), second the trough.
        crest = np.sum(phase < 0.5)
        trough = np.sum(phase >= 0.5)
        assert crest > 2 * trough

    def test_bursty_is_burstier_than_poisson(self, generator):
        source = RequestSource(generator, derive_rng(0, "b"), 12_000)
        traffic = BurstyTraffic(
            8.0, rng=derive_rng(0, "ba"), mean_on_s=10.0, mean_off_s=30.0
        )
        times = np.array(self._drain(traffic, source, 2000.0))
        counts, _ = np.histogram(times, bins=np.arange(0.0, 2000.0, 5.0))
        # Index of dispersion >> 1 (Poisson would be ~1).
        fano = counts.var() / counts.mean()
        assert fano > 3.0
        # Mean rate is duty-cycled well below the ON rate.
        assert len(times) < 0.5 * 8.0 * 2000.0

    def test_traffic_validation(self):
        rng = derive_rng(0, "v")
        with pytest.raises(ValueError):
            ClosedLoopTraffic(0)
        with pytest.raises(ValueError):
            PoissonTraffic(0.0, rng=rng)
        with pytest.raises(ValueError):
            DiurnalTraffic(1.0, rng=rng, amplitude=1.5)
        with pytest.raises(ValueError):
            BurstyTraffic(1.0, rng=rng, mean_on_s=0.0)

    def test_source_truncates_overweight_requests(self, generator):
        source = RequestSource(generator, derive_rng(0, "t"), 600)
        for _ in range(200):
            assert source.next_request().weight <= 600


class _StubPod:
    def __init__(self, batch_weight, pending_weight, queue_depth, active):
        self._batch_weight = batch_weight
        self._pending_weight = pending_weight
        self.queue_depth = queue_depth
        self.active_requests = active


class TestRouters:
    def test_round_robin_cycles(self):
        router = RoundRobinRouter()
        pods = [_StubPod(0, 0, 0, 0) for _ in range(3)]
        assert [router.route(None, 0.0, pods) for _ in range(5)] == [0, 1, 2, 0, 1]
        router.reset()
        assert router.route(None, 0.0, pods) == 0

    def test_least_loaded_picks_lightest_committed_weight(self):
        pods = [
            _StubPod(batch_weight=900, pending_weight=0, queue_depth=0, active=1),
            _StubPod(batch_weight=100, pending_weight=200, queue_depth=2, active=1),
            _StubPod(batch_weight=100, pending_weight=900, queue_depth=9, active=1),
        ]
        assert LeastLoadedRouter().route(None, 0.0, pods) == 1

    def test_jsq_counts_requests_not_weight(self):
        pods = [
            _StubPod(batch_weight=10_000, pending_weight=0, queue_depth=0, active=1),
            _StubPod(batch_weight=50, pending_weight=50, queue_depth=3, active=2),
        ]
        assert JoinShortestQueueRouter().route(None, 0.0, pods) == 0


class TestMetricsCollector:
    def test_incremental_matches_concatenation(self):
        collector = MetricsCollector()
        rng = np.random.default_rng(0)
        chunks = [rng.random(n) for n in (3, 1, 7, 2000, 5)]
        for chunk in chunks:
            collector.record_gaps(chunk, now=0.0)
        np.testing.assert_array_equal(
            collector.itl_samples(), np.concatenate(chunks)
        )

    @given(_itl_runs(), st.booleans())
    @example(([0.25], [1]), False)
    @example(([0.25], [2]), True)
    @example(([0.5, 0.25, 0.5], [3, 2, 4]), True)
    # n = 2 with values where np.median (the mean of both) and p50
    # differ in the last bit, and where numpy's two lerp formulas do.
    @example(([0.027652, 0.098328], [1, 1]), False)
    @example(([0.021056, 0.087446], [1, 1]), True)
    @settings(max_examples=60, deadline=None)
    def test_run_stats_match_numpy_on_expansion(self, runs, vector):
        values, counts = runs
        collector = MetricsCollector()
        if vector:
            # The array path: one run of ``count`` per element.
            for value, count in zip(values, counts):
                collector.gap_sink(np.array([value]), count)
        else:
            for value, count in zip(values, counts):
                collector.gap_sink(value, count)
        samples = np.repeat(values, counts)
        assert collector.itl_stats() == LatencyStats.from_samples(samples)
        assert collector.itl_median() == np.median(samples)
        np.testing.assert_array_equal(collector.itl_samples(), samples)

    @given(
        st.lists(st.floats(allow_nan=True), min_size=1, max_size=5),
        st.lists(st.integers(0, 4), max_size=200),
        st.lists(st.integers(0, 200), max_size=3),
    )
    @example([0.0, -0.0], [0, 1, 1, 0], [])
    @settings(max_examples=60, deadline=None)
    def test_record_gaps_round_trips_bits(self, pool, picks, cuts):
        gaps = np.array([pool[i % len(pool)] for i in picks], dtype=float)
        collector = MetricsCollector()
        for chunk in np.split(gaps, sorted(c % (gaps.size + 1) for c in cuts)):
            collector.record_gaps(chunk, now=0.0)
        # Bits, not values: NaN payloads and signed zeros survive too.
        np.testing.assert_array_equal(
            collector.itl_samples().view(np.int64), gaps.view(np.int64)
        )

    def test_load_test_stores_gaps_as_few_runs(self, generator):
        engine = _engine(seed=1, weight=20_000)
        run_load_test(engine, generator, 64, duration_s=15.0, seed=1)
        runs = len(engine.metrics._itl)
        # At most one run per row segment of a decode step: a decode
        # step leaves one segment and each prefill adds one.
        assert 0 < runs <= engine.stats.decode_steps + engine.stats.prefill_steps
        assert engine.itl_samples().size >= 10 * runs

    @given(st.integers(0, 2**48), st.floats(0.0, 1.0, exclude_max=True))
    @example(0, 0.0)
    @example(1, 0.0)
    @settings(max_examples=200, deadline=None)
    def test_window_end_is_the_first_time_of_the_next_window(self, window, frac):
        """record_tokens files ``t`` in window ``int(t / 10)``: every time
        before ``window_end`` shares the window, the end starts the next."""
        now = (window + frac) * 10.0
        end = window_end(now)
        collector = MetricsCollector()
        collector.record_tokens(1, now)
        collector.record_tokens(2, math.nextafter(end, -math.inf))
        collector.record_tokens(4, end)
        starts, rates = collector.throughput_timeseries()
        first = int(now / 10.0)
        assert starts.tolist() == [first * 10.0, (first + 1) * 10.0]
        assert rates.tolist() == [3 / 10.0, 4 / 10.0]

    def test_samples_snapshot_survives_reset(self):
        collector = MetricsCollector()
        collector.record_gaps(np.array([1.0, 2.0, 3.0]), now=0.0)
        snapshot = collector.itl_samples()
        collector.reset()
        collector.record_gaps(np.array([9.0]), now=0.0)
        np.testing.assert_array_equal(snapshot, [1.0, 2.0, 3.0])

    def test_reset_clears_everything(self):
        collector = MetricsCollector()
        collector.record_first_token(0.5, 100, now=1.0)
        collector.record_gaps(np.ones(4), now=1.0)
        collector.record_tokens(4, now=1.0)
        collector.reset()
        assert collector.itl_samples().size == 0
        assert collector.ttft_samples()[0].size == 0
        assert collector.tokens_recorded == 0
        assert collector.throughput_timeseries()[0].size == 0

    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=True),
                st.sampled_from([0.0, -0.0, 1.0, math.inf, -math.inf]),
            ),
            min_size=1,
            max_size=60,
        ),
        st.integers(1, 3_000),
        st.booleans(),
    )
    @example([math.inf], 1, False)
    @example([-math.inf, math.inf], 1, False)
    @example([0.0, -0.0], 1, True)
    @example([0.027652, 0.098328], 1, False)
    @settings(max_examples=150, deadline=None)
    def test_latency_stats_match_numpy(self, pool, size, tied):
        """Scalar interpolation gives np.percentile's and np.mean's bits:
        one sample, ties, signed zeros, infinities, a few thousand."""
        rng = np.random.default_rng(size)
        picks = rng.integers(0, len(pool), size if tied else min(size, len(pool)))
        samples = np.array(pool, dtype=float)[picks] if tied else np.array(pool[:size])
        stats = LatencyStats.from_samples(samples)
        with np.errstate(invalid="ignore"):
            expected = np.percentile(samples, (50.0, 95.0, 99.0)).tolist()
            mean = float(samples.mean())
        got = [stats.median_s, stats.p95_s, stats.p99_s, stats.mean_s]
        assert stats.count == samples.size
        np.testing.assert_array_equal(
            np.array(got).view(np.int64), np.array(expected + [mean]).view(np.int64)
        )

    def test_latency_stats_fall_back_to_numpy_on_nan(self):
        samples = np.array([0.5, np.nan, 0.25])
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 3
        assert all(map(math.isnan, (stats.median_s, stats.p95_s, stats.p99_s)))

    def test_latency_stats_tails(self):
        samples = np.arange(1, 1001, dtype=float)
        stats = LatencyStats.from_samples(samples)
        assert stats.count == 1000
        assert stats.median_s <= stats.p95_s <= stats.p99_s
        assert stats.p99_s > 980
        empty = LatencyStats.from_samples(np.empty(0))
        assert empty.count == 0
        assert np.isnan(empty.median_s)

    def test_windowed_timeseries(self):
        collector = MetricsCollector()  # 10 s throughput windows
        collector.record_tokens(5, now=1.0)
        collector.record_tokens(5, now=9.0)
        collector.record_tokens(20, now=25.0)
        times, rates = collector.throughput_timeseries()
        np.testing.assert_allclose(times, [0.0, 10.0, 20.0])
        np.testing.assert_allclose(rates, [1.0, 0.0, 2.0])

    def test_merged_pools_samples(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.record_gaps(np.array([1.0, 2.0]), now=0.0)
        b.record_gaps(np.array([3.0]), now=0.0)
        a.record_first_token(0.1, 10, now=0.0)
        b.record_tokens(7, now=3.0)
        merged = MetricsCollector.merged([a, b])
        assert merged.itl_samples().size == 3
        assert merged.ttft_samples()[0].size == 1
        assert merged.tokens_recorded == 7

    def test_engine_emits_into_collector(self, generator):
        engine = _engine()
        run_load_test(engine, generator, 2, duration_s=8.0, seed=1)
        assert engine.metrics.itl_samples().size > 0
        assert engine.metrics.ttft_stats().count > 0
        # Completions are recorded by the engine itself, so directly
        # driven engines (no FleetSimulator) get them too.
        assert len(engine.metrics.completed) == engine.stats.requests_completed
        times, rates = engine.metrics.throughput_timeseries()
        total_window_tokens = float(np.sum(rates)) * 10.0  # window width
        assert total_window_tokens == engine.stats.tokens_generated


class TestFastOracleParity:
    """The production core (heap frontier + finish-mark decode loop) must
    be bit-identical to the reference simulator (O(pods) frontier scan +
    per-request decode, ``repro.simulation.reference``) — same floats, same
    RNG draws, same event order. This is the contract that lets the
    golden pins above keep guarding both implementations at once."""

    FIELDS = (
        "time_s", "arrivals", "requests_completed", "tokens_generated",
        "throughput_tokens_per_s", "admitted", "shed", "deferrals",
        "completed_total", "in_flight_end", "pod_seconds", "sim_events",
    )

    def _run(self, generator, fast, autoscaled):
        engine_type = ContinuousBatchingEngine if fast else ReferenceEngine
        fleet_type = FleetSimulator if fast else ReferenceFleetSimulator

        def factory(serial):
            return engine_type(
                LLM, PROFILE, max_batch_weight=12_000,
                seed=spawn_seed(9, "pod", serial),
            )

        autoscaler = None
        if autoscaled:
            autoscaler = Autoscaler(
                ThresholdPolicy(slo_p95_ttft_s=1.0),
                AutoscaleConfig(
                    decision_interval_s=10.0, max_pods=6,
                    cold_start_s=5.0, metrics_window_s=20.0,
                ),
            )
        source = RequestSource(generator, derive_rng(9, "parity"), 12_000)
        fleet = fleet_type(
            [factory(i) for i in range(4)],
            BurstyTraffic(
                6.0, rng=derive_rng(9, "parity-traffic"),
                mean_on_s=10.0, mean_off_s=10.0,
            ),
            LeastLoadedRouter(),
            source,
            autoscaler=autoscaler,
            pod_factory=factory,
        )
        return fleet.run(duration_s=40.0)

    @pytest.mark.parametrize("autoscaled", [False, True])
    def test_fleet_results_bit_identical(self, generator, autoscaled):
        fast = self._run(generator, fast=True, autoscaled=autoscaled)
        oracle = self._run(generator, fast=False, autoscaled=autoscaled)
        for field in self.FIELDS:
            assert getattr(fast, field) == getattr(oracle, field), field
        # Full latency distributions, not just aggregates.
        assert fast.ttft == oracle.ttft
        assert fast.itl == oracle.itl
        assert fast.e2e == oracle.e2e
        assert fast.scale_events == oracle.scale_events

    class _SameWeight:
        """A request stream in which every request weighs 600 tokens,
        split between prompt and output at random."""

        def request_stream(self, rng):
            request_id = 0
            while True:
                output = int(rng.integers(20, 400))
                yield InferenceRequest(request_id, 600 - output, output)
                request_id += 1

    #: Sticky closed-loop fleets that share one request source across
    #: pods: (pods, users, router, pods kept by a scale-down, warmup).
    CLOSED = {
        # Few users per pod: pods sit idle between a completion and its
        # follow-up, and wake again at the follow-up's arrival.
        "few-users": (5, 8, "round-robin", None, 5.0),
        "few-users-least-loaded": (3, 5, "least-loaded", None, 0.0),
        # The threshold policy drains one of five round-robin pods at
        # t=10 s; it retires while its users' follow-ups are pending,
        # and the router places them on the four pods left.
        "scale-down": (5, 12, "round-robin", 4, 0.0),
        # Every request weighs the same, so t=0 placement is all ties.
        "equal-weights": (6, 100, "least-loaded", None, 0.0),
    }

    def _run_closed(self, generator, fast, case):
        """The fleet's result, its request source and its step() calls."""
        n_pods, users, router, keep, warmup_s = self.CLOSED[case]
        engine_type = ContinuousBatchingEngine if fast else ReferenceEngine
        fleet_type = FleetSimulator if fast else ReferenceFleetSimulator
        calls = [0]

        class Counted(engine_type):
            def step(self):
                calls[0] += 1
                return super().step()

        def factory(serial):
            return Counted(
                LLM, PROFILE, max_batch_weight=12_000,
                seed=spawn_seed(9, "pod", serial),
            )

        autoscaler = None
        if keep is not None:
            autoscaler = Autoscaler(
                ThresholdPolicy(slo_p95_ttft_s=1.0),
                AutoscaleConfig(
                    decision_interval_s=10.0, min_pods=keep, max_pods=n_pods,
                    cold_start_s=5.0, metrics_window_s=10.0,
                ),
            )
        if case == "equal-weights":
            generator = self._SameWeight()
        source = RequestSource(
            generator, derive_rng(9, "closed-parity", users), 12_000
        )
        fleet = fleet_type(
            [factory(i) for i in range(n_pods)],
            ClosedLoopTraffic(users),
            LeastLoadedRouter() if router == "least-loaded" else RoundRobinRouter(),
            source,
            autoscaler=autoscaler,
            pod_factory=factory,
        )
        return fleet.run(duration_s=40.0, warmup_s=warmup_s), source, calls[0]

    @pytest.mark.parametrize("case", list(CLOSED))
    def test_closed_loop_fleets_bit_identical(self, generator, case):
        fast, fast_source, fast_calls = self._run_closed(generator, True, case)
        oracle, oracle_source, oracle_calls = self._run_closed(generator, False, case)
        for field in dataclasses.fields(fast):
            if field.name not in ("metrics", "wall_time_s"):
                assert getattr(fast, field.name) == getattr(oracle, field.name), (
                    field.name
                )
        np.testing.assert_array_equal(
            fast.metrics.itl_samples(), oracle.metrics.itl_samples()
        )
        assert fast_source.drawn == oracle_source.drawn
        # The production pods leapt; the reference stepped one at a time.
        assert fast_calls < fast.sim_events
        assert oracle_calls == oracle.sim_events
        if case == "scale-down":
            assert [p.state for p in fast.per_pod].count("retired") == 1

    def test_fast_run_times_itself(self, generator):
        result = self._run(generator, fast=True, autoscaled=False)
        assert result.sim_events > 0
        assert result.wall_time_s > 0.0
        assert result.events_per_second == result.sim_events / result.wall_time_s

    @staticmethod
    def _assert_load_tests_equal(mine, ref):
        (engine, result), (ref_engine, ref_result) = mine, ref
        np.testing.assert_array_equal(engine.itl_samples(), ref_engine.itl_samples())
        assert engine.stats == ref_engine.stats
        assert engine.time == ref_engine.time
        # Every LoadTestResult field, per-request results included; the
        # JSON rendering makes NaN compare equal to NaN.
        assert json.dumps(dataclasses.asdict(result)) == json.dumps(
            dataclasses.asdict(ref_result)
        )

    @pytest.mark.parametrize("warmup_s", [0.0, 5.0])
    @pytest.mark.parametrize("users", [1, 8, 128])
    def test_load_test_leaps_match_reference_engine(
        self, generator, users, warmup_s
    ):
        """A one-pod load test leaps to each completion, cut short only at
        the warmup boundary and the end of the window; the reference
        engine takes one decode step per event."""

        def run(engine_type):
            engine = engine_type(LLM, PROFILE, max_batch_weight=12_000, seed=users)
            result = run_load_test(
                engine, generator, users, duration_s=20.0, seed=users,
                keep_results=True, warmup_s=warmup_s,
            )
            return engine, result

        self._assert_load_tests_equal(
            run(ContinuousBatchingEngine), run(ReferenceEngine)
        )

    def test_open_loop_leaps_match_reference_engine(self, generator):
        """At 4 arrivals/s an arrival cuts about three leaps in four
        short, and the queue grows behind blocked admission."""

        def run(engine_type):
            engine = engine_type(LLM, PROFILE, max_batch_weight=12_000, seed=4)
            return engine, run_open_loop_test(
                engine, generator, 4.0, duration_s=30.0, seed=4
            )

        self._assert_load_tests_equal(
            run(ContinuousBatchingEngine), run(ReferenceEngine)
        )
