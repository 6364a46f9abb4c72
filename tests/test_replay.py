"""Tests for the traces <-> simulation bridge: arrival logs and replay."""

import warnings

import numpy as np
import pytest

from repro.cluster import Deployment
from repro.hardware import parse_profile
from repro.models import get_llm
from repro.simulation import (
    ArrivalLog,
    LeastLoadedRouter,
    ReplayTraffic,
    RequestSource,
    WeightAwareRouter,
)
from repro.traces import TraceConfig, TraceSynthesizer


@pytest.fixture(scope="module")
def small_traces():
    """A tiny trace collection, separate from the session fixture's seed."""
    return TraceSynthesizer(TraceConfig(n_requests=4000), seed=7).generate()


@pytest.fixture(scope="module")
def log(small_traces):
    return ArrivalLog.from_trace(small_traces)


def make_log(times, inp=None, out=None, **kwargs):
    n = len(times)
    return ArrivalLog(
        times_s=np.asarray(times, dtype=float),
        input_tokens=np.asarray(inp if inp is not None else [32] * n),
        output_tokens=np.asarray(out if out is not None else [16] * n),
        **kwargs,
    )


class TestArrivalLog:
    def test_basic_accessors(self):
        log = make_log([0.0, 1.0, 3.0], inp=[10, 20, 30], out=[5, 5, 5])
        assert len(log) == 3
        assert log.duration_s == 3.0
        assert log.mean_rate_per_s == pytest.approx(2 / 3)
        np.testing.assert_array_equal(log.weights, [15, 25, 35])

    def test_rejects_unsorted_times(self):
        with pytest.raises(ValueError, match="sorted"):
            make_log([1.0, 0.5])

    def test_rejects_negative_time(self):
        with pytest.raises(ValueError, match=">= 0"):
            make_log([-1.0, 0.5])

    def test_rejects_zero_tokens(self):
        with pytest.raises(ValueError, match="input_tokens"):
            make_log([0.0], inp=[0], out=[4])

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError, match="ragged"):
            make_log([0.0, 1.0], inp=[1], out=[1, 1])

    def test_from_columns_sorts_and_rebases(self):
        log = ArrivalLog.from_columns(
            {
                "timestamp": [105.0, 100.0, 102.0],
                "input_tokens": [3, 1, 2],
                "output_tokens": [30, 10, 20],
            }
        )
        np.testing.assert_allclose(log.times_s, [0.0, 2.0, 5.0])
        np.testing.assert_array_equal(log.input_tokens, [1, 2, 3])

    def test_warp_compresses_times_only(self):
        log = make_log([0.0, 10.0, 20.0])
        fast = log.warp(10.0)
        np.testing.assert_allclose(fast.times_s, [0.0, 1.0, 2.0])
        np.testing.assert_array_equal(fast.input_tokens, log.input_tokens)
        with pytest.raises(ValueError, match="positive"):
            log.warp(0.0)

    def test_warp_to_rate(self):
        log = make_log([0.0, 1.0, 2.0, 3.0])
        assert log.warp_to_rate(5.0).mean_rate_per_s == pytest.approx(5.0)

    def test_warp_to_rate_error_names_the_real_condition(self):
        # A single arrival has no rate...
        with pytest.raises(ValueError, match="mean arrival rate.*1 arrival"):
            make_log([0.0]).warp_to_rate(1.0)
        # ...and so does a log with many arrivals all at the same instant:
        # the old message blamed "fewer than 2 arrivals", which is wrong
        # here. The error must report the computed rate and the span.
        with pytest.raises(ValueError, match=r"3 arrival\(s\) spanning 0s"):
            make_log([0.0, 0.0, 0.0]).warp_to_rate(1.0)

    def test_clip_keeps_horizon(self):
        log = make_log([0.0, 1.0, 5.0, 9.0])
        assert len(log.clip(6.0)) == 3
        with pytest.raises(ValueError, match="positive"):
            log.clip(-1.0)

    def test_clip_is_half_open_at_the_horizon(self):
        # The simulation horizon is [0, horizon): an arrival stamped
        # exactly at the horizon belongs to the next window. Keeping it
        # would double-count it in clip-then-replay flows.
        log = make_log([0.0, 1.0, 5.0, 9.0])
        clipped = log.clip(5.0)
        assert len(clipped) == 2
        np.testing.assert_allclose(clipped.times_s, [0.0, 1.0])

    def test_for_tenant_filters_and_rebases(self):
        log = make_log(
            [0.0, 1.0, 2.0, 3.0],
            tenant=np.array(["a", "b", "a", "b"]),
        )
        sub = log.for_tenant("b")
        assert len(sub) == 2
        np.testing.assert_allclose(sub.times_s, [0.0, 2.0])
        with pytest.raises(ValueError, match="tenant column"):
            make_log([0.0]).for_tenant("a")

    def test_bootstrap_deterministic_and_scaled(self, log):
        a = log.bootstrap(500, rng=5, rate_per_s=4.0)
        b = log.bootstrap(500, rng=5, rate_per_s=4.0)
        assert len(a) == 500
        np.testing.assert_array_equal(a.times_s, b.times_s)
        np.testing.assert_array_equal(a.input_tokens, b.input_tokens)
        assert a.mean_rate_per_s == pytest.approx(4.0)
        # A different seed draws a different resample.
        c = log.bootstrap(500, rng=6, rate_per_s=4.0)
        assert not np.array_equal(a.input_tokens, c.input_tokens)

    def test_bootstrap_preserves_marginals(self, log):
        boot = log.bootstrap(4000, rng=1)
        assert abs(float(np.median(boot.weights)) - float(np.median(log.weights))) < (
            0.25 * float(np.median(log.weights)) + 1.0
        )

    def test_bootstrap_rejects_bad_n(self, log):
        with pytest.raises(ValueError, match=">= 1"):
            log.bootstrap(0)


class TestPersistence:
    @pytest.mark.parametrize("ext", ["csv", "jsonl"])
    def test_round_trip(self, tmp_path, ext):
        log = make_log(
            [0.0, 0.25, 1.5],
            inp=[10, 20, 30],
            out=[1, 2, 3],
            batch_size=np.array([1, 2, 1]),
            tenant=np.array(["chat", "batch", "chat"]),
            session=np.array([7, 8, 7]),
        )
        path = str(tmp_path / f"arrivals.{ext}")
        log.save(path)
        loaded = ArrivalLog.load(path)
        np.testing.assert_allclose(loaded.times_s, log.times_s)
        np.testing.assert_array_equal(loaded.input_tokens, log.input_tokens)
        np.testing.assert_array_equal(loaded.output_tokens, log.output_tokens)
        np.testing.assert_array_equal(loaded.batch_size, log.batch_size)
        np.testing.assert_array_equal(loaded.tenant.astype(str), log.tenant)
        assert [str(s) for s in loaded.session] == ["7", "8", "7"]

    def test_round_trip_without_optional_columns(self, tmp_path):
        log = make_log([0.0, 1.0])
        path = str(tmp_path / "arrivals.csv")
        log.save(path)
        loaded = ArrivalLog.load(path)
        assert loaded.tenant is None and loaded.session is None
        np.testing.assert_array_equal(loaded.batch_size, [1, 1])

    def test_unsupported_extension(self, tmp_path):
        log = make_log([0.0])
        with pytest.raises(ValueError, match="extension"):
            log.save(str(tmp_path / "arrivals.parquet"))
        with pytest.raises(ValueError, match="extension"):
            ArrivalLog.load(str(tmp_path / "arrivals.parquet"))

    def test_load_heterogeneous_jsonl_rows(self, tmp_path):
        # Optional columns may be present on only some rows: keep the
        # column, defaulting absent values, instead of crashing or
        # silently dropping it based on the first row.
        path = tmp_path / "mixed.jsonl"
        path.write_text(
            '{"timestamp": 0.0, "input_tokens": 4, "output_tokens": 2}\n'
            '{"timestamp": 1.0, "input_tokens": 8, "output_tokens": 2,'
            ' "session": "u1", "batch_size": 2}\n'
        )
        log = ArrivalLog.load(str(path))
        assert [str(s) for s in log.session] == ["", "u1"]
        np.testing.assert_array_equal(log.batch_size, [1, 2])

    def test_load_rejects_empty_and_missing_columns(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("")
        with pytest.raises(ValueError, match="empty"):
            ArrivalLog.load(str(empty))
        bad = tmp_path / "bad.csv"
        bad.write_text("timestamp,input_tokens\n0.0,5\n")
        with pytest.raises(ValueError, match="output_tokens"):
            ArrivalLog.load(str(bad))


    @pytest.mark.parametrize(
        "name, text, column, row",
        [
            pytest.param(
                "nan-times.csv",
                "timestamp,input_tokens,output_tokens\n"
                "0.0,50,20\n1.0,60,20\nnan,70,20\n",
                "timestamp", 2, id="nan-time",
            ),
            pytest.param(
                "not-an-object.jsonl",
                '{"timestamp": 0.0, "input_tokens": 50, "output_tokens": 20}\n'
                "5\n",
                "timestamp", 1, id="row-not-an-object",
            ),
            pytest.param(
                "zero-batch.csv",
                "timestamp,input_tokens,output_tokens,batch_size\n"
                "0.0,50,20,1\n1.0,60,20,0\n",
                "batch_size", 1, id="zero-batch-size",
            ),
            pytest.param(
                "negative-tokens.csv",
                "timestamp,input_tokens,output_tokens\n0.0,50,20\n1.0,60,-5\n",
                "output_tokens", 1, id="negative-tokens",
            ),
            pytest.param(
                "huge-count.csv",
                "timestamp,input_tokens,output_tokens\n0.0,50,20\n1.0,1e30,20\n",
                "input_tokens", 1, id="count-past-int64",
            ),
        ],
    )
    def test_nan_timestamp_exits_2_naming_file_column_and_row(
        self, tmp_path, capsys, name, text, column, row
    ):
        from repro.cli import main

        path = tmp_path / name
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rc = main(
                [
                    "simulate", "--traffic", "replay", "--arrivals", str(path),
                    "--requests", "3000", "--duration", "5",
                ]
            )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert name in err
        assert f"'{column}'" in err and f"row {row}" in err


class TestTraceBridge:
    def test_to_arrivals_rebases_and_sorts(self, small_traces):
        cols = small_traces.to_arrivals()
        assert cols["timestamp"][0] == 0.0
        assert np.all(np.diff(cols["timestamp"]) >= 0)
        assert cols["input_tokens"].size == len(small_traces)
        assert "user_id" in cols

    def test_to_arrivals_llm_selection(self, small_traces):
        name = small_traces.llm_names[0]
        by_name = small_traces.to_arrivals(llm=name)
        by_index = small_traces.to_arrivals(llm=0)
        np.testing.assert_array_equal(by_name["timestamp"], by_index["timestamp"])
        assert by_name["timestamp"].size < len(small_traces)
        with pytest.raises(KeyError, match="unknown LLM"):
            small_traces.to_arrivals(llm="not-a-model")

    def test_to_arrivals_window(self, small_traces):
        span = small_traces.time_span_days() * 86_400.0
        windowed = small_traces.to_arrivals(start_s=0.0, duration_s=span / 2)
        assert 0 < windowed["timestamp"].size < len(small_traces)

    def test_from_trace_carries_sessions(self, small_traces, log):
        assert len(log) == len(small_traces)
        assert log.session is not None
        assert log.session.size == len(log)


def small_deployment(generator, n_pods=1, router=None):
    return Deployment(
        llm=get_llm("Llama-2-7b"),
        profile=parse_profile("1xA10-24GB"),
        n_pods=n_pods,
        max_batch_weight=12_000,
        generator=generator,
        seed=0,
    )


class TestReplayTraffic:
    def test_pops_in_log_order(self, generator):
        log = make_log([0.0, 0.5, 2.0], inp=[10, 20, 30], out=[4, 5, 6])
        traffic = ReplayTraffic(log)
        source = RequestSource(generator, np.random.default_rng(0), 12_000)
        seen = []
        while traffic.peek() is not None:
            t, req = traffic.pop(source)
            seen.append((t, req.input_tokens, req.output_tokens))
        assert seen == [(0.0, 10, 4), (0.5, 20, 5), (2.0, 30, 6)]
        assert traffic.peek() is None
        with pytest.raises(RuntimeError, match="exhausted"):
            traffic.pop(source)

    def test_truncates_to_max_weight(self, generator):
        log = make_log([0.0], inp=[8000], out=[8000])
        traffic = ReplayTraffic(log)
        source = RequestSource(generator, np.random.default_rng(0), 4000)
        _, req = traffic.pop(source)
        assert req.weight <= 4000
        # Proportional: the recorded 50/50 input/output shape survives.
        assert req.input_tokens == req.output_tokens

    def test_truncates_batch_dominated_weight(self, generator):
        # A huge client batch of tiny requests: the token floors cannot
        # absorb the clamp, so the batch itself must shrink too.
        log = make_log(
            [0.0, 1.0],
            inp=[10, 50],
            out=[10, 30],
            batch_size=np.array([10_000, 200]),
        )
        traffic = ReplayTraffic(log)
        source = RequestSource(generator, np.random.default_rng(0), 12_000)
        for _ in range(2):
            _, req = traffic.pop(source)
            assert req.weight <= 12_000

    def test_speedup_and_horizon(self):
        log = make_log([0.0, 10.0, 20.0, 30.0])
        traffic = ReplayTraffic(log, speedup=10.0, horizon_s=2.5)
        assert len(traffic.log) == 3  # 0, 1, 2s survive the clipped horizon
        with pytest.raises(ValueError, match="no arrivals"):
            ReplayTraffic(make_log([]))

    def test_fleet_replay_conserves_arrivals(self, generator, log):
        replay_log = log.bootstrap(120, rng=2, rate_per_s=4.0)
        deployment = small_deployment(generator, n_pods=2)
        res = deployment.simulate(
            ReplayTraffic(replay_log),
            duration_s=replay_log.duration_s + 30.0,
            router=LeastLoadedRouter(),
            stream_label="replay-test",
        )
        res.verify_conservation()
        assert res.arrivals == len(replay_log)
        assert res.traffic == "replay"

    def test_fleet_replay_deterministic(self, generator, log):
        replay_log = log.bootstrap(80, rng=3, rate_per_s=3.0)

        def run():
            deployment = small_deployment(generator, n_pods=2)
            return deployment.simulate(
                ReplayTraffic(replay_log),
                duration_s=60.0,
                router=WeightAwareRouter(),
                stream_label="replay-test",
            )

        a, b = run(), run()
        assert a.arrivals == b.arrivals
        assert a.requests_completed == b.requests_completed
        assert a.ttft.median_s == b.ttft.median_s
        assert a.ttft.p95_s == b.ttft.p95_s
        assert a.tokens_generated == b.tokens_generated


class TestGoldenReplay:
    """Golden pin for one replayed-fleet run.

    Pins the whole traces -> arrival log -> bootstrap -> replay ->
    weight-aware-routed fleet pipeline to values captured when the
    replay layer was introduced. Any drift in trace synthesis, the
    bridge, seeded bootstrap, replay injection or the router shows up
    here as an exact mismatch.
    """

    def test_replayed_fleet_run_pinned(self, generator):
        traces = TraceSynthesizer(TraceConfig(n_requests=4000), seed=7).generate()
        log = ArrivalLog.from_trace(traces).bootstrap(100, rng=9, rate_per_s=4.0)
        deployment = Deployment(
            llm=get_llm("Llama-2-7b"),
            profile=parse_profile("1xA10-24GB"),
            n_pods=2,
            max_batch_weight=12_000,
            generator=generator,
            seed=0,
        )
        res = deployment.simulate(
            ReplayTraffic(log),
            duration_s=60.0,
            router=WeightAwareRouter(),
            stream_label="golden-replay",
        )
        res.verify_conservation()
        assert res.arrivals == 100
        assert res.requests_completed == 92
        assert res.tokens_generated == 20_561
        assert res.ttft.median_s == pytest.approx(0.579022344, abs=1e-8)
        assert res.ttft.p95_s == pytest.approx(22.350932471, abs=1e-8)
        assert res.itl.median_s == pytest.approx(0.055563675, abs=1e-8)
        assert res.throughput_tokens_per_s == pytest.approx(342.547868623, abs=1e-6)


class _StubPod:
    def __init__(self, committed):
        self._batch_weight = committed
        self._pending_weight = 0


class _StubRequest:
    def __init__(self, weight):
        self.weight = weight


class TestWeightAwareRouter:
    def test_validation(self):
        with pytest.raises(ValueError, match="heavy_pod_fraction"):
            WeightAwareRouter(heavy_pod_fraction=0.0)
        with pytest.raises(ValueError, match="heavy_pod_fraction"):
            WeightAwareRouter(heavy_pod_fraction=1.0)
        with pytest.raises(ValueError, match=">= 1"):
            WeightAwareRouter(warmup=0)

    def test_warmup_falls_back_to_least_loaded(self):
        router = WeightAwareRouter(warmup=100)
        pods = [_StubPod(500), _StubPod(100), _StubPod(300)]
        assert router.route(_StubRequest(50), 0.0, pods) == 1

    def test_single_pod_always_zero(self):
        router = WeightAwareRouter(warmup=1)
        assert router.route(_StubRequest(50), 0.0, [_StubPod(0)]) == 0

    def test_heavy_requests_confined_to_heavy_tier(self):
        router = WeightAwareRouter(heavy_pod_fraction=0.25, warmup=1)
        pods = [_StubPod(0), _StubPod(0), _StubPod(0), _StubPod(10_000)]
        # Teach the router a weight distribution: many mice, few elephants.
        for _ in range(99):
            router.route(_StubRequest(100), 0.0, pods)
        # An elephant goes to the heavy tier (last pod) even though it
        # carries far more committed load than the light pods.
        assert router.route(_StubRequest(50_000), 0.0, pods) == 3
        # Mice keep the light tier.
        assert router.route(_StubRequest(100), 0.0, pods) in (0, 1, 2)

    def test_uniform_weights_fall_back_to_least_loaded(self):
        # Constant weights make the SITA threshold degenerate: no
        # request is "heavy", so the router must not idle the heavy
        # tier — it degrades to fleet-wide least-loaded instead.
        router = WeightAwareRouter(warmup=1)
        pods = [_StubPod(500), _StubPod(500), _StubPod(500), _StubPod(0)]
        for _ in range(100):
            assert router.route(_StubRequest(100), 0.0, pods) == 3

    def test_reset_clears_history(self):
        router = WeightAwareRouter(warmup=2)
        pods = [_StubPod(0), _StubPod(0)]
        router.route(_StubRequest(10), 0.0, pods)
        router.route(_StubRequest(10), 0.0, pods)
        router.reset()
        assert router._seen == 0 and router._weights == []
