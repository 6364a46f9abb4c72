"""Tests for the characterization tool: tuner, feasibility, load testing,
dataset container and campaign runner."""

import dataclasses

import numpy as np
import pytest

from repro.characterization import (
    BatchWeightTuner,
    CharacterizationConfig,
    CharacterizationTool,
    Feasibility,
    PerfDataset,
    PerfRecord,
    check_feasibility,
    run_load_test,
)
from repro.cluster import Deployment
from repro.hardware import parse_profile
from repro.inference import (
    ContinuousBatchingEngine,
    CostModel,
    MemoryModel,
    SteadyStateEstimate,
    SteadyStateEstimator,
)
from repro.models import get_llm


class TestTuner:
    def test_tuned_weight_is_valid_and_frontier(self):
        tuner = BatchWeightTuner(get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"))
        result = tuner.tune()
        assert result.feasible
        assert tuner.is_valid(result.max_batch_weight)
        # Just past the frontier (plus resolution) must be invalid.
        assert not tuner.is_valid(result.max_batch_weight + 2 * 64 + 2)

    def test_weight_scales_with_memory(self):
        w40 = BatchWeightTuner(get_llm("Llama-2-13b"), parse_profile("1xA100-40GB")).tune()
        w80 = BatchWeightTuner(get_llm("Llama-2-13b"), parse_profile("1xH100-80GB")).tune()
        assert w80.max_batch_weight > 2 * w40.max_batch_weight

    def test_mqa_model_gets_huge_weight(self):
        """Starcoder's multi-query attention stores 40x less KV per token."""
        star = BatchWeightTuner(get_llm("bigcode/starcoder"), parse_profile("1xH100-80GB")).tune()
        neox = BatchWeightTuner(get_llm("EleutherAI/gpt-neox-20b"), parse_profile("1xH100-80GB")).tune()
        assert star.max_batch_weight > 5 * neox.max_batch_weight

    def test_infeasible_when_weights_too_big(self):
        result = BatchWeightTuner(get_llm("Llama-2-13b"), parse_profile("1xA10-24GB")).tune()
        assert not result.feasible
        assert result.max_batch_weight == 0

    def test_search_step_counting(self):
        tuner = BatchWeightTuner(get_llm("google/flan-t5-xl"), parse_profile("1xT4-16GB"))
        result = tuner.tune()
        assert result.search_steps > 0
        assert result.probes >= result.search_steps


class TestFeasibility:
    def test_tp_unsupported_marked(self):
        rep = check_feasibility(
            get_llm("ibm/mpt-7b-instruct2"), parse_profile("2xA100-40GB"), 5000
        )
        assert rep.status is Feasibility.UNSUPPORTED
        assert "tensor parallelism" in rep.reason

    def test_flash_on_v100_marked(self):
        rep = check_feasibility(get_llm("Llama-2-7b"), parse_profile("1xV100-16GB"), 5000)
        assert rep.status is Feasibility.UNSUPPORTED
        assert "flash attention" in rep.reason

    def test_flash_on_t4_allowed(self):
        """T4 (CC 7.5) runs flash attention; only V100 (7.0) is excluded."""
        rep = check_feasibility(get_llm("Llama-2-7b"), parse_profile("2xT4-16GB"), 5000)
        assert rep.status is Feasibility.OK

    def test_oom_when_weights_dont_fit(self):
        rep = check_feasibility(get_llm("google/flan-t5-xxl"), parse_profile("1xA10-24GB"), 5000)
        assert rep.status is Feasibility.OOM

    def test_oom_when_workload_does_not_fit(self):
        # Demand an absurdly large request weight.
        rep = check_feasibility(
            get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"), 10**7
        )
        assert rep.status is Feasibility.OOM
        assert rep.max_batch_weight > 0

    def test_ok_case_has_weight(self):
        rep = check_feasibility(get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"), 5000)
        assert rep.status is Feasibility.OK
        assert rep.feasible
        assert rep.max_batch_weight >= 5000

    def test_symbols(self):
        assert Feasibility.OK.symbol == "Y"
        assert Feasibility.OOM.symbol == "x"
        assert Feasibility.UNSUPPORTED.symbol == "-"


class TestLoadTest:
    def _engine(self, W=12_000, seed=0):
        return ContinuousBatchingEngine(
            get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"),
            max_batch_weight=W, seed=seed,
        )

    def test_basic_metrics_finite(self, generator):
        res = run_load_test(self._engine(), generator, concurrent_users=4,
                            duration_s=10.0, seed=1)
        assert np.isfinite(res.ttft_median_s)
        assert np.isfinite(res.nttft_median_s)
        assert np.isfinite(res.itl_median_s)
        assert res.throughput_tokens_per_s > 0
        assert res.requests_completed > 0

    def test_nttft_definition(self, generator):
        res = run_load_test(self._engine(), generator, concurrent_users=2,
                            duration_s=10.0, seed=2)
        # nTTFT is TTFT per input token: much smaller than TTFT.
        assert res.nttft_median_s < res.ttft_median_s

    def test_throughput_grows_with_load_before_saturation(self, generator):
        r1 = run_load_test(self._engine(seed=3), generator, 1, duration_s=15.0, seed=3)
        r8 = run_load_test(self._engine(seed=3), generator, 8, duration_s=15.0, seed=3)
        assert r8.throughput_tokens_per_s > 2 * r1.throughput_tokens_per_s

    def test_reproducible(self, generator):
        a = run_load_test(self._engine(seed=4), generator, 4, duration_s=8.0, seed=9)
        b = run_load_test(self._engine(seed=4), generator, 4, duration_s=8.0, seed=9)
        assert a.ttft_median_s == b.ttft_median_s
        assert a.throughput_tokens_per_s == b.throughput_tokens_per_s

    def test_requires_fresh_engine(self, generator):
        eng = self._engine()
        run_load_test(eng, generator, 1, duration_s=2.0, seed=0)
        with pytest.raises(ValueError, match="fresh"):
            run_load_test(eng, generator, 1, duration_s=2.0, seed=0)

    def test_invalid_args(self, generator):
        with pytest.raises(ValueError):
            run_load_test(self._engine(), generator, 0, duration_s=5.0)
        with pytest.raises(ValueError):
            run_load_test(self._engine(), generator, 1, duration_s=0.0)

    def test_keep_results(self, generator):
        res = run_load_test(self._engine(), generator, 2, duration_s=8.0,
                            seed=5, keep_results=True)
        assert len(res.results) == res.requests_completed


class TestPerfDataset:
    def _record(self, llm="m", profile="1xT4-16GB", users=1, **kw):
        defaults = dict(
            gpu_name="T4-16GB", gpu_count=1, max_batch_weight=1000,
            ttft_median_s=0.1, nttft_median_s=0.001, itl_median_s=0.02,
            throughput_tokens_per_s=100.0, e2e_median_s=1.0,
        )
        defaults.update(kw)
        return PerfRecord(llm=llm, profile=profile, concurrent_users=users, **defaults)

    def test_add_and_query(self):
        ds = PerfDataset()
        ds.add(self._record(llm="a", users=1))
        ds.add(self._record(llm="a", users=2))
        ds.add(self._record(llm="b", users=1))
        assert len(ds) == 3
        assert ds.llms() == ["a", "b"]
        assert len(ds.filter(llm="a")) == 2
        assert len(ds.exclude_llm("a")) == 1
        assert len(ds.filter("b", "1xT4-16GB", 1)) == 1
        assert len(ds.filter("b", "1xT4-16GB", 99)) == 0

    def test_series_sorted_by_users(self):
        ds = PerfDataset()
        for u in (16, 1, 4):
            ds.add(self._record(users=u, itl_median_s=u / 1000))
        users, itl = ds.series("m", "1xT4-16GB", "itl_median_s")
        assert users.tolist() == [1, 4, 16]
        assert itl.tolist() == [0.001, 0.004, 0.016]

    def test_save_load_roundtrip(self, tmp_path):
        ds = PerfDataset()
        ds.add(self._record(llm="x", users=8))
        path = str(tmp_path / "ds.npz")
        ds.save(path)
        loaded = PerfDataset.load(path)
        assert len(loaded) == 1
        r = loaded.records[0]
        assert r.llm == "x" and r.concurrent_users == 8
        assert r.itl_median_s == pytest.approx(0.02)

    def test_column_types(self):
        ds = PerfDataset(records=[self._record()])
        assert ds.column("llm").dtype == object
        assert ds.column("itl_median_s").dtype == float


class TestCharacterizationTool:
    def test_small_campaign(self, small_dataset):
        ds = small_dataset.dataset
        assert len(ds) > 0
        # flan-t5-xl fits everywhere in the chosen profile set.
        assert len(ds.filter(llm="google/flan-t5-xl")) == 4 * 4
        # Llama-2-13b does not fit on 2xA10 (48GB - reserve < 26GB + KV).
        statuses = {
            (r.llm, r.profile): r.status for r in small_dataset.feasibility
        }
        assert all(s in list(Feasibility) for s in statuses.values())

    def test_records_reference_tuned_weight(self, small_dataset):
        for rec in small_dataset.dataset:
            assert rec.max_batch_weight >= 2
            key = (rec.llm, rec.profile)
            assert small_dataset.tuned_weights[key] == rec.max_batch_weight

    def test_overhead_accounting(self, small_dataset):
        assert small_dataset.total_overhead_s > 0
        assert small_dataset.serial_overhead_s >= small_dataset.total_overhead_s

    def test_latencies_monotone_in_users_mostly(self, small_dataset):
        """The §IV-B2 empirical observation: nTTFT and ITL increase (or
        stay flat) with concurrent users; allow small noise wiggle."""
        ds = small_dataset.dataset
        for llm in ds.llms():
            for prof in ds.profiles():
                users, itl = ds.series(llm, prof, "itl_median_s")
                if len(users) < 2:
                    continue
                diffs = np.diff(itl)
                assert np.all(diffs > -0.2 * np.abs(itl[:-1]))

    def test_config_immutable_defaults(self):
        cfg = CharacterizationConfig()
        assert cfg.user_counts == (1, 2, 4, 8, 16, 32, 64, 128)
        assert cfg.duration_s == 120.0


class TestMeasurementStackPin:
    """Exact seeded outputs of the measurement stack: the analytic cost
    and memory models, the batch-weight tuner, the steady-state
    estimator, a deployment load test and a campaign's overhead bill.
    Any drift here changes every characterization dataset downstream."""

    @pytest.mark.parametrize(
        "llm, profile, prefill, decode",
        [
            # single GPU, 4-way NVLink tensor parallelism, 2-way PCIe,
            # and an encoder-decoder model
            ("Llama-2-13b", "1xA100-40GB", 0.18878518518518517, 0.03528067088324323),
            ("Llama-2-13b", "4xA100-40GB", 0.051160296296296294, 0.011768359720810806),
            ("Llama-2-7b", "2xT4-16GB", 0.2513002393162393, 0.046274459076923076),
            (
                "google/flan-t5-xxl",
                "1xA100-40GB",
                0.1606151566951567,
                0.02053650024145201,
            ),
        ],
    )
    def test_cost_model(self, llm, profile, prefill, decode):
        cost = CostModel(get_llm(llm), parse_profile(profile))
        assert cost.prefill_time(1000) == prefill
        assert cost.decode_step_time(8, 5000) == decode

    @pytest.mark.parametrize(
        "llm, profile, capacity, activations",
        [
            ("Llama-2-13b", "1xA100-40GB", 36700000000.0, 1146880000.0),  # flash
            ("google/flan-t5-xl", "2xT4-16GB", 27320000000.0, 1482752000.0),
        ],
    )
    def test_memory_model(self, llm, profile, capacity, activations):
        memory = MemoryModel(get_llm(llm), parse_profile(profile))
        assert memory.capacity_bytes == capacity
        assert memory.activation_bytes(4000) == activations

    @pytest.mark.parametrize(
        "llm, profile, weight, steps, probes, feasible",
        [
            ("Llama-2-13b", "1xA100-40GB", 11584, 19, 84, True),
            ("google/flan-t5-xl", "1xT4-16GB", 31104, 21, 92, True),
            ("Llama-2-13b", "1xA10-24GB", 0, 0, 0, False),
        ],
    )
    def test_tuner(self, llm, profile, weight, steps, probes, feasible):
        result = BatchWeightTuner(get_llm(llm), parse_profile(profile)).tune()
        assert (
            result.max_batch_weight,
            result.search_steps,
            result.probes,
            result.feasible,
        ) == (weight, steps, probes, feasible)

    def test_steady_state_estimate(self, generator):
        estimator = SteadyStateEstimator(
            get_llm("Llama-2-13b"), parse_profile("1xA100-40GB"), 12_000, generator
        )
        assert estimator.estimate(64) == SteadyStateEstimate(
            concurrent_users=64,
            active_requests=11.604242530409522,
            throughput_tokens_per_s=404.4923963235678,
            itl_s=0.04349449398865945,
            ttft_s=46.60951923158404,
            saturated=True,
        )

    def test_deployment_load_test(self, generator):
        deployment = Deployment(
            get_llm("Llama-2-13b"),
            parse_profile("1xA100-40GB"),
            n_pods=2,
            max_batch_weight=12_000,
            generator=generator,
            seed=3,
        )
        result = deployment.run_load_test(total_users=8, duration_s=10.0)
        common = dict(
            concurrent_users=4,
            duration_s=10.022981354985857,
            queue_depth_end=0,
            results=[],
        )
        expected = [
            dict(
                common,
                ttft_median_s=0.3754306086746081,
                nttft_median_s=0.00041092271360544164,
                itl_median_s=0.03778951075699391,
                throughput_tokens_per_s=106.30445812067286,
                e2e_median_s=1.453711756709833,
                requests_completed=5,
                first_tokens_served=9,
                tokens_generated=1043,
                arrivals=9,
            ),
            dict(
                common,
                ttft_median_s=0.3870510368573756,
                nttft_median_s=0.0005605410562091945,
                itl_median_s=0.03605726392466906,
                throughput_tokens_per_s=141.1304507437468,
                e2e_median_s=3.8312147742788745,
                requests_completed=7,
                first_tokens_served=11,
                tokens_generated=1416,
                arrivals=11,
            ),
        ]
        assert len(result.per_pod) == len(expected)
        for pod, fields in zip(result.per_pod, expected):
            observed = dataclasses.asdict(pod)
            assert np.isnan(observed.pop("offered_rate_per_s"))
            assert observed == fields

    def test_campaign_overhead(self, generator):
        tool = CharacterizationTool(
            generator,
            CharacterizationConfig(duration_s=3.7, user_counts=(1, 4), seed=2),
        )
        outcome = tool.run(
            [get_llm("google/flan-t5-xl"), get_llm("Llama-2-13b")],
            [parse_profile("1xA100-40GB"), parse_profile("1xA10-24GB")],
        )
        assert outcome.overhead_by_profile_s == {
            "1xA100-40GB": 324.79999999999995,
            "1xA10-24GB": 317.4,
        }
        assert outcome.total_overhead_s == 324.79999999999995
