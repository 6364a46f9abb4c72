"""Tests for the inference-server simulator: cost model, memory/OOM and
the continuous-batching engine."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.hardware import parse_profile
from repro.inference import (
    ContinuousBatchingEngine,
    CornerCaseBatch,
    CostModel,
    InferenceRequest,
    MemoryModel,
    corner_case_batches,
)
from repro.inference.costmodel import MEMORY_BANDWIDTH_EFFICIENCY
from repro.models import get_llm
from repro.simulation.reference import ReferenceEngine


@pytest.fixture
def llama13() :
    return get_llm("Llama-2-13b")


@pytest.fixture
def a100():
    return parse_profile("1xA100-40GB")


class TestRequest:
    def test_weight_definition(self):
        r = InferenceRequest(request_id=0, input_tokens=100, output_tokens=50, batch_size=2)
        assert r.weight == 300

    def test_validation(self):
        with pytest.raises(ValueError):
            InferenceRequest(request_id=0, input_tokens=0, output_tokens=1)
        with pytest.raises(ValueError):
            InferenceRequest(request_id=0, input_tokens=1, output_tokens=0)
        with pytest.raises(ValueError):
            InferenceRequest(request_id=0, input_tokens=1, output_tokens=1, batch_size=0)


class TestCostModel:
    def test_prefill_linear_in_tokens(self, llama13, a100):
        cm = CostModel(llama13, a100)
        t1, t2 = cm.prefill_time(100), cm.prefill_time(1000)
        assert t2 > t1
        # Linear (minus fixed overhead): slope ratio close to 10x.
        overhead = cm.prefill_time(0)
        assert (t2 - overhead) / (t1 - overhead) == pytest.approx(10.0, rel=0.01)

    def test_decode_memory_bound_floor(self, llama13, a100):
        """At batch 1 the decode step is dominated by the weight read."""
        cm = CostModel(llama13, a100)
        floor = llama13.weights_bytes / (
            a100.total_memory_bandwidth_gbps * 1e9 * MEMORY_BANDWIDTH_EFFICIENCY
        )
        step = cm.decode_step_time(1, 200)
        assert step > floor
        assert step < 3 * floor

    def test_decode_grows_with_kv(self, llama13, a100):
        cm = CostModel(llama13, a100)
        assert cm.decode_step_time(8, 20_000) > cm.decode_step_time(8, 1_000)

    def test_decode_grows_with_batch(self, llama13, a100):
        cm = CostModel(llama13, a100)
        assert cm.decode_step_time(128, 1000) > cm.decode_step_time(1, 1000)

    def test_faster_gpu_is_faster(self, llama13):
        h100 = CostModel(llama13, parse_profile("1xH100-80GB"))
        a100 = CostModel(llama13, parse_profile("1xA100-40GB"))
        assert h100.decode_step_time(8, 5000) < a100.decode_step_time(8, 5000)
        assert h100.prefill_time(1000) < a100.prefill_time(1000)

    def test_tensor_parallel_adds_comm_but_divides_traffic(self, llama13):
        single = CostModel(llama13, parse_profile("1xA100-40GB"))
        quad = CostModel(llama13, parse_profile("4xA100-40GB"))
        # 4-way TP is faster per decode step, but not 4x faster (comm).
        t1 = single.decode_step_time(8, 5000)
        t4 = quad.decode_step_time(8, 5000)
        assert t4 < t1
        assert t4 > t1 / 4

    def test_encoder_decoder_decode_reads_fraction(self, a100):
        flan = get_llm("google/flan-t5-xxl")
        cm = CostModel(flan, a100)
        full_read = flan.weights_bytes / (
            a100.total_memory_bandwidth_gbps * 1e9 * MEMORY_BANDWIDTH_EFFICIENCY
        )
        assert cm.decode_step_time(1, 0) < full_read + 0.01

    def test_negative_inputs_rejected(self, llama13, a100):
        cm = CostModel(llama13, a100)
        with pytest.raises(ValueError):
            cm.prefill_time(-1)
        with pytest.raises(ValueError):
            cm.decode_step_time(-1, 0)


class TestMemoryModel:
    def test_weights_fit(self, llama13):
        assert MemoryModel(llama13, parse_profile("1xA100-40GB")).weights_fit
        assert not MemoryModel(llama13, parse_profile("1xA10-24GB")).weights_fit

    def test_capacity_scales_with_count(self, llama13):
        m1 = MemoryModel(llama13, parse_profile("1xA100-40GB"))
        m2 = MemoryModel(llama13, parse_profile("2xA100-40GB"))
        assert m2.capacity_bytes == pytest.approx(2 * m1.capacity_bytes)

    def test_flash_attention_avoids_quadratic_activations(self):
        profile = parse_profile("1xA100-40GB")
        llama = get_llm("Llama-2-7b")  # flash
        mpt = get_llm("ibm/mpt-7b-instruct2")  # no flash, same size class
        act_llama = MemoryModel(llama, profile).activation_bytes(4000)
        act_mpt = MemoryModel(mpt, profile).activation_bytes(4000)
        assert act_mpt > act_llama

    def test_oom_monotone_in_weight(self, llama13, a100):
        mm = MemoryModel(llama13, a100)
        small = CornerCaseBatch("s", 1, 100, 100)
        huge = CornerCaseBatch("h", 1, 4000, 60_000)
        assert not mm.would_oom(small)
        assert mm.would_oom(huge)

    def test_corner_cases_cover_weight(self):
        cases = corner_case_batches(10_000)
        names = {c.name for c in cases}
        assert {"single-long-prompt", "single-long-generation", "many-small", "balanced"} <= names
        for c in cases:
            assert c.total_weight <= 10_000

    def test_corner_case_minimum_weight(self):
        with pytest.raises(ValueError):
            corner_case_batches(1)


class TestEngine:
    def _req(self, rid, inp=50, out=20, batch=1):
        return InferenceRequest(request_id=rid, input_tokens=inp, output_tokens=out, batch_size=batch)

    def _engine(self, llm="Llama-2-13b", profile="1xA100-40GB", W=10_000, **kw):
        return ContinuousBatchingEngine(
            get_llm(llm), parse_profile(profile), max_batch_weight=W, **kw
        )

    def test_single_request_lifecycle(self):
        eng = self._engine()
        eng.submit(self._req(0, inp=100, out=10))
        results = []
        while eng.has_work():
            results.extend(eng.step())
        assert len(results) == 1
        r = results[0]
        assert r.ttft > 0
        assert r.finished_at > r.first_token_at
        # 10 tokens: 1 from prefill + 9 decode steps.
        assert eng.stats.decode_steps == 9
        assert eng.stats.tokens_generated == 10

    def test_single_token_request_completes_at_prefill(self):
        eng = self._engine()
        eng.submit(self._req(0, inp=10, out=1))
        results = eng.step()
        assert len(results) == 1
        assert eng.stats.decode_steps == 0

    def test_weight_accounting_returns_to_zero(self):
        eng = self._engine()
        for i in range(5):
            eng.submit(self._req(i, inp=60, out=15, batch=2))
        while eng.has_work():
            eng.step()
        assert eng.batch_weight_in_use == 0
        assert eng.active_requests == 0
        assert eng.stats.requests_completed == 5

    def test_oversized_request_rejected(self):
        eng = self._engine(W=100)
        with pytest.raises(ValueError, match="exceeds"):
            eng.submit(self._req(0, inp=90, out=20))

    def test_batch_weight_respected(self):
        eng = self._engine(W=300)
        for i in range(10):
            eng.submit(self._req(i, inp=50, out=50))  # weight 100 each
        eng.step()  # admission + prefill
        assert eng.batch_weight_in_use <= 300
        assert eng.active_requests <= 3

    def test_queueing_raises_ttft(self):
        """The paper's saturation signature: queued requests wait."""
        eng = self._engine(W=400)
        for i in range(12):
            eng.submit(self._req(i, inp=50, out=50))
        results = []
        while eng.has_work():
            results.extend(eng.step())
        ttfts = sorted(r.ttft for r in results)
        assert ttfts[-1] > 5 * ttfts[0]

    def test_itl_samples_positive(self):
        eng = self._engine()
        eng.submit(self._req(0, inp=20, out=30))
        while eng.has_work():
            eng.step()
        itl = eng.itl_samples()
        assert len(itl) == 29
        assert np.all(itl > 0)

    def test_ttft_samples_for_unfinished_requests(self):
        eng = self._engine()
        eng.submit(self._req(0, inp=20, out=500))
        eng.step()  # prefill only
        ttft, inputs = eng.ttft_samples()
        assert len(ttft) == 1
        assert inputs[0] == 20

    def test_deterministic_given_seed(self):
        def run(seed):
            eng = self._engine(seed=seed)
            for i in range(4):
                eng.submit(self._req(i, out=25))
            out = []
            while eng.has_work():
                out.extend(eng.step())
            return [r.finished_at for r in out]

        assert run(5) == run(5)
        assert run(5) != run(6)

    def test_kv_conservation(self):
        eng = self._engine()
        for i in range(6):
            eng.submit(self._req(i, inp=40, out=12))
        while eng.has_work():
            eng.step()
        assert eng._kv_tokens == 0

    def test_lookahead_admission_skips_blocked_head(self):
        eng = self._engine(W=1000)
        eng.submit(self._req(0, inp=400, out=400))  # weight 800
        eng.step()  # admit + prefill the big one
        eng.submit(self._req(1, inp=400, out=400))  # doesn't fit now (800+800)
        eng.submit(self._req(2, inp=50, out=50))  # weight 100 fits
        eng.step()
        assert eng.active_requests == 2  # small one jumped the queue
        assert eng.queue_depth == 1

    def test_client_batch_size_multiplies_tokens(self):
        eng = self._engine()
        eng.submit(self._req(0, inp=30, out=10, batch=3))
        while eng.has_work():
            eng.step()
        assert eng.stats.tokens_generated == 30

    def test_invalid_construction(self):
        with pytest.raises(ValueError):
            self._engine(W=1)


class TestFastOracleParity:
    """The production decode loop (finish marks, gap runs per row
    segment, buffered noise) must be bit-identical to the per-request
    loop of :class:`ReferenceEngine`: same step times, same completion
    timestamps, same counters."""

    def _run(self, fast, leap=False, max_output=120):
        engine_type = ContinuousBatchingEngine if fast else ReferenceEngine
        engine = engine_type(
            get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"),
            max_batch_weight=6_000, seed=42,
        )
        rng = np.random.default_rng(7)
        requests = [
            InferenceRequest(
                request_id=i,
                input_tokens=int(rng.integers(20, 400)),
                output_tokens=int(rng.integers(1, max_output)),
                batch_size=int(rng.integers(1, 3)),
            )
            for i in range(40)
        ]
        results = []
        if leap:
            # Nothing is submitted once stepping starts, so the horizon
            # is unbounded: every decode run leaps to its completion,
            # with admission blocked behind a queue that cannot fit.
            engine.horizon = float("inf")
            for request in requests:
                engine.submit(request)
        else:
            # Interleave arrivals with steps so admission, queueing and
            # the failed-admission memo are all exercised mid-flight.
            for request in requests:
                engine.submit(request)
                results.extend(engine.step())
        while engine.has_work():
            results.extend(engine.step())
        return engine, results

    def test_completions_bit_identical(self):
        self._assert_identical(leap=False)

    def test_leaping_drain_bit_identical(self):
        self._assert_identical(leap=True)

    def test_leaps_across_token_windows_bit_identical(self):
        # Long outputs: the drain runs for 330 s of virtual time in
        # leaps of about 150 steps, so many leaps cross one of the
        # collector's 10 s token windows.
        fast_engine = self._assert_identical(leap=True, max_output=1_500)
        windows, _ = fast_engine.metrics.throughput_timeseries()
        assert len(windows) > 30

    def _assert_identical(self, leap, max_output=120):
        fast_engine, fast_results = self._run(
            fast=True, leap=leap, max_output=max_output
        )
        oracle_engine, oracle_results = self._run(
            fast=False, leap=leap, max_output=max_output
        )
        assert len(fast_results) == len(oracle_results) == 40
        for mine, ref in zip(fast_results, oracle_results):
            assert mine.request.request_id == ref.request.request_id
            assert mine.submitted_at == ref.submitted_at
            assert mine.first_token_at == ref.first_token_at
            assert mine.finished_at == ref.finished_at
        assert fast_engine.stats == oracle_engine.stats
        assert fast_engine.time == oracle_engine.time
        np.testing.assert_array_equal(
            fast_engine.metrics.itl_samples(),
            oracle_engine.metrics.itl_samples(),
        )
        for mine, ref in zip(
            fast_engine.metrics.throughput_timeseries(),
            oracle_engine.metrics.throughput_timeseries(),
        ):
            np.testing.assert_array_equal(mine, ref)
        assert (
            fast_engine.metrics.tokens_recorded
            == oracle_engine.metrics.tokens_recorded
        )
        return fast_engine


def _request(rid, inp, out):
    return InferenceRequest(request_id=rid, input_tokens=inp, output_tokens=out)


def _lookahead_schedule():
    """A big request, then a blocked head with 31 heavier entries, a
    light one 33rd in the queue (one past the look-ahead) and 5 more
    heavier ones behind it."""
    schedule = [
        (0.0, _request(0, 100, 1_400)),  # weight 1500 of 2000
        (0.5, _request(1, 900, 100)),  # the head: 1000
    ]
    schedule += [(0.5, _request(rid, 1_000, 100)) for rid in range(2, 33)]  # 1100
    schedule.append((0.5, _request(33, 50, 50)))  # 100
    schedule += [(0.5, _request(rid, 1_000, 100)) for rid in range(34, 39)]
    return 2_000, schedule


def _starvation_schedule():
    """A long request, a head that cannot fit beside it for over 60 s,
    and light arrivals every 2 s that jump it only until then."""
    schedule = [(0.0, _request(0, 100, 5_800)), (1.0, _request(1, 2_400, 100))]
    schedule += [(2.0 * k, _request(k, 50, 50)) for k in range(2, 76)]
    return 8_000, schedule


def _slot_cap_schedule():
    """300 light requests at t=0, past the 256-request cap, then 20 more."""
    rng = np.random.default_rng(11)
    schedule = [
        (0.0, _request(i, int(rng.integers(20, 60)), int(rng.integers(5, 40))))
        for i in range(300)
    ]
    schedule += [
        (3.0 + 0.1 * k, _request(300 + k, 30, int(rng.integers(5, 40))))
        for k in range(20)
    ]
    return 100_000, schedule


def _blocked_arrivals_schedule():
    """Arrivals that do not fit while admission is blocked, one that
    does, then 40 more that do not (the queue outgrows the look-ahead)
    and two light ones behind them."""
    schedule = [(0.0, _request(0, 100, 2_800))]  # weight 2900 of 4000
    schedule += [(1.0 + 0.5 * k, _request(1 + k, 1_100, 100)) for k in range(3)]
    schedule.append((2.5, _request(4, 50, 50)))
    schedule += [(3.0 + 0.25 * k, _request(5 + k, 1_100, 100)) for k in range(40)]
    schedule += [(13.5, _request(45, 50, 50)), (14.0, _request(46, 60, 40))]
    return 4_000, schedule


class TestAdmissionParity:
    """Admission edge cases, production engine against ReferenceEngine.

    Each case is a schedule of ``(arrival time, request)``; before every
    ``step()`` call the driver submits the arrivals due at the engine's
    clock. The reference steps one iteration per call. The production
    engine runs either with its horizon at -inf (one iteration per call
    too) or with the horizon at the next arrival, +inf once none is
    left, so one call may leap. Both must produce the same results,
    stats, ITL samples and queue depths.

    A leaping call may run a prefill and then the decode leap after
    it; the leaping engine must make some such fused calls, so these
    cases fail if calls stop at every prefill."""

    SCHEDULES = {
        "lookahead": _lookahead_schedule,
        "starvation": _starvation_schedule,
        "slot-cap": _slot_cap_schedule,
        "blocked-arrivals": _blocked_arrivals_schedule,
    }

    def _drive(self, engine_type, case, leap, stop_at=float("inf")):
        weight, schedule = self.SCHEDULES[case]()
        engine = engine_type(
            get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"),
            max_batch_weight=weight, seed=5,
        )
        run = SimpleNamespace(
            engine=engine, results=[], depths=[], at_arrivals=[],
            # step() calls that ran a prefill, a decode step, or both.
            calls={"prefill": 0, "decode": 0, "both": 0},
        )
        stats = engine.stats
        i = 0
        while True:
            while i < len(schedule) and (
                schedule[i][0] <= engine.time or not engine.has_work()
            ):
                t, request = schedule[i]
                i += 1
                engine.advance_to(t)
                run.at_arrivals.append((engine.time, engine.queue_depth))
                engine.submit(request, arrival_time=t)
            if not engine.has_work() or engine.time >= stop_at:
                return run
            if leap:
                upcoming = schedule[i][0] if i < len(schedule) else float("inf")
                engine.horizon = min(upcoming, stop_at)
            prefills, decodes = stats.prefill_steps, stats.decode_steps
            run.results.extend(engine.step())
            run.depths.append(engine.queue_depth)
            prefilled = stats.prefill_steps > prefills
            decoded = stats.decode_steps > decodes
            if prefilled and decoded:
                run.calls["both"] += 1
            else:
                run.calls["prefill" if prefilled else "decode"] += 1

    def _assert_parity(self, case, leap, stop_at=float("inf")):
        run = self._drive(ContinuousBatchingEngine, case, leap, stop_at)
        ref = self._drive(ReferenceEngine, case, False, stop_at)
        assert [
            (r.request.request_id, r.submitted_at, r.first_token_at, r.finished_at)
            for r in run.results
        ] == [
            (r.request.request_id, r.submitted_at, r.first_token_at, r.finished_at)
            for r in ref.results
        ]
        engine = run.engine
        assert engine.stats == ref.engine.stats
        assert engine.time == ref.engine.time
        np.testing.assert_array_equal(
            engine.itl_samples(), ref.engine.itl_samples()
        )
        assert run.at_arrivals == ref.at_arrivals
        assert engine.queue_depth == ref.engine.queue_depth
        assert engine.batch_weight_in_use == ref.engine.batch_weight_in_use
        if leap:
            assert run.calls["both"] > 0
            n_calls = sum(run.calls.values())
            assert n_calls < engine.stats.prefill_steps + engine.stats.decode_steps
        else:
            assert run.calls["both"] == 0
            assert run.depths == ref.depths
        return run, ref

    @pytest.mark.parametrize("leap", [False, True], ids=["horizon-inf", "leap"])
    @pytest.mark.parametrize("case", sorted(SCHEDULES))
    def test_engines_agree(self, case, leap):
        run, _ = self._assert_parity(case, leap)
        completed = run.engine.stats.requests_completed
        assert completed == len(self.SCHEDULES[case]()[1])

    def test_lookahead_leaves_the_33rd_entry_queued(self):
        run = self._drive(ContinuousBatchingEngine, "lookahead", False, stop_at=5.0)
        assert run.engine.active_requests == 1
        assert run.engine.queue_depth == 38

    def test_starved_head_stops_reordering(self):
        run = self._drive(ContinuousBatchingEngine, "starvation", False)
        first_token = {r.request.request_id: r.first_token_at for r in run.results}
        # Light arrivals jump the blocked head only until it has waited
        # 60 s; after that they wait for it.
        jumped = [k for k in range(2, 76) if first_token[k] < first_token[1]]
        assert jumped and max(jumped) < 32
        assert first_token[1] - 1.0 > 60.0

    @pytest.mark.parametrize("leap", [False, True], ids=["horizon-inf", "leap"])
    @pytest.mark.parametrize(
        "case,stop_at", [("blocked-arrivals", 20.0), ("lookahead", 45.0)]
    )
    def test_evacuate_returns_the_queue_in_fifo_order(self, case, stop_at, leap):
        run, ref = self._assert_parity(case, leap, stop_at)
        queued, active = run.engine.evacuate()
        ref_queued, ref_active = ref.engine.evacuate()
        ids = [r.request_id for r in queued]
        assert ids == [r.request_id for r in ref_queued]
        assert [r.request_id for r in active] == [r.request_id for r in ref_active]
        assert ids == sorted(ids) and len(ids) > 32
        # Admissions took entries from the middle of the queue.
        admitted = [r.request.request_id for r in run.results]
        admitted += [r.request_id for r in active]
        assert max(admitted) > ids[0]


class TestDecodeHorizon:
    """A decode step that starts at or after :attr:`horizon` does not run.

    A caller sets the horizon to the time of its next outside event (an
    arrival, a control tick), which must reach the engine before any
    step that starts at that time."""

    def _prefilled(self, engine_type):
        engine = engine_type(
            get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"),
            max_batch_weight=6_000, seed=3,
        )
        for i in range(2):
            engine.submit(
                InferenceRequest(request_id=i, input_tokens=100, output_tokens=40)
            )
        engine.step()  # admission + prefill
        assert engine.stats.decode_steps == 0
        return engine

    def test_step_starting_at_the_horizon_does_not_run(self):
        reference = self._prefilled(ReferenceEngine)
        for _ in range(3):
            reference.step()
        horizon = reference.time
        engine = self._prefilled(ContinuousBatchingEngine)
        engine.horizon = horizon
        assert engine.step() == []
        assert engine.stats.decode_steps == 3
        assert engine.time == horizon

    def test_horizon_at_the_clock_runs_one_step(self):
        engine = self._prefilled(ContinuousBatchingEngine)
        engine.horizon = engine.time
        engine.step()
        assert engine.stats.decode_steps == 1
