"""Tests for the inference-server simulator: cost model, memory/OOM and
the continuous-batching engine."""

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

    def test_kv_token_capacity_positive_when_fits(self, llama13, a100):
        assert MemoryModel(llama13, a100).kv_token_capacity() > 0

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

    def _run(self, fast, leap=False):
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
                output_tokens=int(rng.integers(1, 120)),
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

    def _assert_identical(self, leap):
        fast_engine, fast_results = self._run(fast=True, leap=leap)
        oracle_engine, oracle_results = self._run(fast=False, leap=leap)
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
