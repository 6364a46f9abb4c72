"""Tests for the workload generator: binning, joint model, sampling."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats

from repro.workload import (
    RequestModel,
    TraceReplaySampler,
    WorkloadGenerator,
    fit_binning,
)


class TestBinning:
    def test_low_cardinality_exact(self):
        b = fit_binning("batch", np.array([1, 2, 2, 3, 3, 3]), n_bins=64)
        assert b.exact
        np.testing.assert_array_equal(b.centers, [1, 2, 3])

    def test_exact_assignment_roundtrip(self):
        values = np.array([1, 2, 2, 5, 5, 9])
        b = fit_binning("x", values, n_bins=64)
        np.testing.assert_array_equal(b.decode(b.assign(values)), values)

    def test_high_cardinality_binned(self):
        rng = np.random.default_rng(0)
        values = rng.lognormal(5, 1, size=20_000)
        b = fit_binning("tokens", values, n_bins=64)
        assert not b.exact
        assert b.n_bins <= 64

    def test_equal_frequency(self):
        rng = np.random.default_rng(1)
        values = rng.normal(size=50_000)
        b = fit_binning("x", values, n_bins=64)
        counts = np.bincount(b.assign(values), minlength=b.n_bins)
        # Approximately uniform occupancy.
        assert counts.min() > 0.5 * len(values) / b.n_bins
        assert counts.max() < 2.0 * len(values) / b.n_bins

    def test_centers_within_range(self):
        rng = np.random.default_rng(2)
        values = rng.exponential(100, size=10_000)
        b = fit_binning("x", values, n_bins=32)
        assert b.centers.min() >= values.min()
        assert b.centers.max() <= values.max()

    def test_integer_preservation(self):
        values = np.arange(1000, dtype=float)
        b = fit_binning("x", values, n_bins=16)
        decoded = b.decode(b.assign(values))
        assert decoded.dtype.kind == "i"

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            fit_binning("x", np.array([]))
        with pytest.raises(ValueError):
            fit_binning("x", np.array([1.0]), n_bins=0)

    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
            min_size=1,
            max_size=300,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_assign_always_in_range(self, values):
        values = np.array(values)
        b = fit_binning("x", values, n_bins=16)
        idx = b.assign(values)
        assert idx.min() >= 0 and idx.max() < b.n_bins


class TestRequestModel:
    def test_sparsity_far_below_theoretical(self, traces):
        model = RequestModel.fit(traces)
        assert model.n_nonempty_bins < model.n_theoretical_bins / 1000
        assert 0 < model.sparsity < 1e-3

    def test_counts_sum_to_trace_size(self, traces):
        model = RequestModel.fit(traces)
        assert model.counts.sum() == len(traces)

    def test_model_much_smaller_than_traces(self, traces):
        """§V-A size claim: generator <1MB vs GBs of traces."""
        model = RequestModel.fit(traces)
        assert model.nbytes() < traces.nbytes() / 5

    def test_joint_sampling_preserves_marginals(self, traces):
        model = RequestModel.fit(traces)
        sample = model.sample(40_000, rng=0)
        ks = stats.ks_2samp(
            sample["input_tokens"].astype(float),
            traces["input_tokens"].astype(float),
        )
        assert ks.statistic < 0.05

    def test_joint_sampling_preserves_correlation(self, traces):
        model = RequestModel.fit(traces)
        sample = model.sample(40_000, rng=0)
        rho_trace = stats.spearmanr(
            traces["input_tokens"], traces["output_tokens"]
        ).statistic
        rho_gen = stats.spearmanr(
            sample["input_tokens"], sample["output_tokens"]
        ).statistic
        assert abs(rho_trace - rho_gen) < 0.08

    def test_independent_sampling_loses_correlation(self, traces):
        """§V-A ablation: independent marginals break the joint structure."""
        model = RequestModel.fit(traces)
        joint = model.sample(40_000, rng=0)
        indep = model.sample(40_000, rng=0, independent=True)
        rho_joint = stats.spearmanr(
            joint["input_tokens"], joint["output_tokens"]
        ).statistic
        rho_indep = stats.spearmanr(
            indep["input_tokens"], indep["output_tokens"]
        ).statistic
        assert abs(rho_indep) < abs(rho_joint) / 2

    def test_sampling_reproducible(self, traces):
        model = RequestModel.fit(traces)
        a = model.sample(100, rng=7)
        b = model.sample(100, rng=7)
        np.testing.assert_array_equal(a["output_tokens"], b["output_tokens"])

    def test_sample_zero(self, traces):
        model = RequestModel.fit(traces)
        out = model.sample(0, rng=0)
        assert all(len(v) == 0 for v in out.values())

    def test_max_request_weight_bounds_joint_samples(self, traces):
        model = RequestModel.fit(traces)
        wmax = model.max_request_weight()
        s = model.sample(20_000, rng=1)
        weights = (s["input_tokens"] + s["output_tokens"]) * s["batch_size"]
        assert weights.max() <= wmax

    def test_values_are_bin_centers(self, traces):
        model = RequestModel.fit(traces)
        s = model.sample(1000, rng=2)
        for p in ("batch_size", "decoding_method"):
            centers = set(model.binnings[p].decode(
                np.arange(model.binnings[p].n_bins)).tolist())
            assert set(np.unique(s[p]).tolist()) <= centers


class TestWorkloadGenerator:
    def test_requests_valid(self, generator):
        reqs = generator.sample_requests(500, rng=3)
        assert len(reqs) == 500
        for r in reqs:
            assert r.input_tokens >= 1
            assert r.output_tokens >= 1
            assert 1 <= r.batch_size <= 5

    def test_request_ids_sequential(self, generator):
        reqs = generator.sample_requests(10, rng=0, first_id=100)
        assert [r.request_id for r in reqs] == list(range(100, 110))

    def test_max_weight_truncation(self, generator):
        reqs = generator.sample_requests(2000, rng=4, max_weight=1500)
        assert all(r.weight <= 1500 for r in reqs)

    def test_stream_is_infinite_and_deterministic(self, generator):
        s1 = generator.request_stream(rng=9)
        s2 = generator.request_stream(rng=9)
        for _ in range(300):
            a, b = next(s1), next(s2)
            assert (a.input_tokens, a.output_tokens) == (b.input_tokens, b.output_tokens)

    def test_requires_token_params(self, traces):
        with pytest.raises(ValueError, match="input_tokens"):
            WorkloadGenerator.fit(traces, params=["batch_size", "temperature"])

    def test_generator_smaller_and_faster_source_than_replay(self, traces, generator):
        replay = TraceReplaySampler(traces)
        assert generator.nbytes() < replay.nbytes()

    def test_replay_sampler_produces_trace_rows(self, traces):
        replay = TraceReplaySampler(traces)
        reqs = replay.sample_requests(50, rng=5)
        trace_inputs = set(traces["input_tokens"].tolist())
        assert all(r.input_tokens in trace_inputs for r in reqs)

    def test_replay_empty_traces_rejected(self, traces):
        empty = traces.select(np.zeros(len(traces), dtype=bool))
        with pytest.raises(ValueError):
            TraceReplaySampler(empty)
