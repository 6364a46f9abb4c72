"""Tests for the synthetic production-trace substrate."""

import numpy as np
import pytest

from repro.traces import (
    DECODING_METHODS,
    DEFAULT_ARCHETYPES,
    TraceConfig,
    TraceDataset,
    synthesize_traces,
)


class TestArchetypes:
    def test_weights_sum_to_one(self):
        assert sum(a.weight for a in DEFAULT_ARCHETYPES) == pytest.approx(1.0)

    def test_token_sampling_within_platform_limits(self):
        rng = np.random.default_rng(0)
        for arch in DEFAULT_ARCHETYPES:
            inp, out = arch.sample_tokens(rng, 5000)
            assert inp.min() >= 1 and inp.max() <= 4093
            assert out.min() >= 1 and out.max() <= 1500

    def test_translation_tokens_strongly_correlated(self):
        rng = np.random.default_rng(1)
        arch = next(a for a in DEFAULT_ARCHETYPES if a.name == "translation")
        inp, out = arch.sample_tokens(rng, 20_000)
        r = np.corrcoef(np.log(inp), np.log(out))[0, 1]
        assert r > 0.75


class TestSynthesizer:
    def test_reproducible(self):
        a = synthesize_traces(n_requests=2000, seed=3)
        b = synthesize_traces(n_requests=2000, seed=3)
        np.testing.assert_array_equal(a["input_tokens"], b["input_tokens"])
        np.testing.assert_array_equal(a["latency_s"], b["latency_s"])

    def test_seed_changes_data(self):
        a = synthesize_traces(n_requests=2000, seed=3)
        b = synthesize_traces(n_requests=2000, seed=4)
        assert not np.array_equal(a["input_tokens"], b["input_tokens"])

    def test_table2_characteristics(self, traces):
        s = traces.summary()
        assert s["n_requests"] == 30_000
        assert s["n_llms"] == 24
        assert 5.0 <= s["time_period_months"] <= 6.0
        assert s["batch_size_range"] == (1, 5)
        assert s["input_tokens_range"][1] <= 4093
        assert s["output_tokens_range"][1] <= 1500
        assert s["n_additional_params"] >= 20

    def test_timestamps_sorted(self, traces):
        ts = traces["timestamp"]
        assert np.all(np.diff(ts) >= 0)

    def test_latency_positive(self, traces):
        assert np.all(traces["latency_s"] > 0)

    def test_output_tokens_dominate_latency(self, traces):
        """The paper's core §III-A finding must hold in the synthetic data."""
        lat = traces["latency_s"]
        r_out = abs(np.corrcoef(traces["output_tokens"], lat)[0, 1])
        r_in = abs(np.corrcoef(traces["input_tokens"], lat)[0, 1])
        assert r_out > r_in

    def test_batched_requests_have_short_sequences(self, traces):
        batch = traces["batch_size"]
        inp = traces["input_tokens"]
        assert inp[batch >= 4].max() <= 2048 // 4

    def test_decoding_method_values(self, traces):
        assert set(np.unique(traces["decoding_method"])) <= {0, 1, 2}
        assert len(DECODING_METHODS) == 3

    def test_greedy_has_zero_temperature(self, traces):
        greedy = traces["decoding_method"] == 0
        assert np.all(traces["temperature"][greedy] == 0.0)

    def test_beam_requests_have_multiple_beams(self, traces):
        beam = traces["decoding_method"] == 2
        if beam.any():
            assert np.all(traces["num_beams"][beam] >= 2)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TraceConfig(n_requests=0)
        with pytest.raises(ValueError):
            TraceConfig(n_users=0)

    def test_platform_llm_size_range(self):
        t = synthesize_traces(n_requests=1000, seed=0)
        assert len(t.llm_names) == 24
        # names carry the size; extremes pinned to 3B and 176B
        assert t.llm_names[0].endswith("3B")
        assert t.llm_names[-1].endswith("176B")


class TestTraceDataset:
    def test_len_and_counts(self, traces):
        assert len(traces) == traces.n_requests == 30_000
        assert traces.n_users <= 800

    def test_param_matrix_shape(self, traces):
        X = traces.param_matrix()
        assert X.shape == (len(traces), len(traces.param_names()))

    def test_select_mask(self, traces):
        sub = traces.select(traces["batch_size"] > 1)
        assert len(sub) < len(traces)
        assert np.all(sub["batch_size"] > 1)

    def test_save_load_roundtrip(self, traces, tmp_path):
        path = str(tmp_path / "traces.npz")
        traces.save(path)
        loaded = TraceDataset.load(path)
        assert len(loaded) == len(traces)
        np.testing.assert_array_equal(loaded["output_tokens"], traces["output_tokens"])
        assert loaded.llm_names == traces.llm_names

    def test_ragged_columns_rejected(self):
        with pytest.raises(ValueError, match="ragged"):
            TraceDataset(
                columns={
                    "timestamp": np.zeros(3),
                    "user_id": np.zeros(3),
                    "input_tokens": np.zeros(2),
                    "output_tokens": np.zeros(3),
                }
            )

    def test_missing_required_column_rejected(self):
        with pytest.raises(ValueError, match="missing column"):
            TraceDataset(columns={"timestamp": np.zeros(3)})

    def test_nbytes_positive(self, traces):
        assert traces.nbytes() > 0
