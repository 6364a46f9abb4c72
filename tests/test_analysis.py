"""Tests for the statistical analyses: correlation, importance, CDFs."""

import numpy as np
import pytest

from repro.analysis import (
    compare_marginals,
    deployment_knob_study,
    latency_importance_study,
    spearman_matrix,
)
from repro.hardware import parse_profile
from repro.models import get_llm


class TestSpearman:
    def test_matrix_shape_and_diagonal(self, traces):
        corr, params = spearman_matrix(traces)
        assert corr.shape == (len(params), len(params))
        np.testing.assert_allclose(np.diag(corr), 1.0)

    def test_symmetry(self, traces):
        corr, _ = spearman_matrix(traces)
        np.testing.assert_allclose(corr, corr.T, atol=1e-12)

    def test_fig3_key_correlations_present(self, traces):
        """Fig 3: the latency-dominant parameters correlate strongly."""
        corr, params = spearman_matrix(traces)
        i_in = params.index("input_tokens")
        i_out = params.index("output_tokens")
        i_batch = params.index("batch_size")
        i_maxnew = params.index("max_new_tokens")
        assert abs(corr[i_in, i_out]) > 0.1
        assert abs(corr[i_in, i_batch]) > 0.1
        # max_new_tokens is nearly determined by output_tokens.
        assert corr[i_out, i_maxnew] > 0.8

    def test_two_param_matrix(self, traces):
        corr, params = spearman_matrix(traces, ("input_tokens", "output_tokens"))
        assert corr.shape == (2, 2)
        assert corr[0, 1] == corr[1, 0]

    def test_requires_two_params(self, traces):
        with pytest.raises(ValueError):
            spearman_matrix(traces, ("input_tokens",))


class TestLatencyImportance:
    def test_sec3a_study(self, traces):
        """§III-A: RF achieves high R^2; output tokens dominate."""
        result = latency_importance_study(
            traces, n_estimators=12, max_rows=8000, seed=0
        )
        assert result.r2 > 0.85
        assert "llm_index" in result.importances
        ranking = result.ranking()
        assert ranking[0] == "output_tokens"
        top4 = set(ranking[:4])
        assert "output_tokens" in top4 and "batch_size" in top4

    def test_importances_normalized(self, traces):
        result = latency_importance_study(traces, n_estimators=6, max_rows=4000)
        total = sum(result.importances.values())
        assert total == pytest.approx(1.0)

    def test_nuisance_flags_near_zero(self, traces):
        result = latency_importance_study(traces, n_estimators=12, max_rows=8000)
        assert result.importances["watermark"] < 0.02
        assert result.importances["echo"] < 0.02


class TestKnobStudy:
    def test_fig4_cpu_memory_irrelevant(self, generator):
        """Fig 4: CPU cores and memory have MDI far below batch weight."""
        result = deployment_knob_study(
            get_llm("Llama-2-13b"),
            parse_profile("1xA100-40GB"),
            generator,
            user_counts=(1, 8, 64),
            weight_multipliers=(1.0, 4.0),
            replicates=3,
            duration_s=8.0,
            seed=3,
            n_estimators=15,
        )
        for imp in (result.importances_ttft, result.importances_itl):
            knobs = imp["max_batch_weight"] + imp["concurrent_users"]
            nuisance = imp["cpu_cores"] + imp["memory_gb"]
            assert knobs > 20 * max(nuisance, 1e-9)
        assert result.knob_ratio("ttft") > 5
        assert len(result.rows) == 18

    def test_infeasible_pair_raises(self, generator):
        with pytest.raises(ValueError, match="infeasible"):
            deployment_knob_study(
                get_llm("Llama-2-13b"),
                parse_profile("1xA10-24GB"),
                generator,
                duration_s=2.0,
            )


class TestCDF:
    def test_fig6_marginal_fidelity(self, traces, generator):
        """Fig 6: generator marginals track the empirical CDFs closely."""
        out = compare_marginals(
            traces, generator,
            params=("input_tokens", "batch_size", "temperature"),
            n_samples=30_000, seed=0,
        )
        for comparison in out.values():
            assert comparison.ks_distance < 0.06
            assert np.all(np.diff(comparison.cdf_trace) >= 0)
            assert np.all(np.diff(comparison.cdf_generated) >= 0)

    def test_unknown_param_raises(self, traces, generator):
        with pytest.raises(KeyError):
            compare_marginals(traces, generator, params=("no_such_param",))
