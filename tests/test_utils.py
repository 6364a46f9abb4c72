"""Tests for repro.utils: RNG derivation, tables, small stats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.utils.rng import as_rng, derive_rng, spawn_seed
from repro.utils.stats import (
    harmonic_mean,
    median,
    percentile,
    relative_std,
)
from repro.utils.tables import format_matrix, format_table


class TestSpawnSeed:
    def test_deterministic(self):
        assert spawn_seed(1, "a", 2) == spawn_seed(1, "a", 2)

    def test_label_sensitivity(self):
        assert spawn_seed(1, "a") != spawn_seed(1, "b")

    def test_seed_sensitivity(self):
        assert spawn_seed(1, "a") != spawn_seed(2, "a")

    def test_label_order_matters(self):
        assert spawn_seed(1, "a", "b") != spawn_seed(1, "b", "a")

    def test_no_concatenation_collision(self):
        # ("ab",) and ("a", "b") must not collide.
        assert spawn_seed(1, "ab") != spawn_seed(1, "a", "b")

    @given(st.integers(min_value=0, max_value=2**62), st.text(max_size=20))
    def test_in_range(self, seed, label):
        s = spawn_seed(seed, label)
        assert 0 <= s < 2**64


class TestDeriveRng:
    def test_streams_reproducible(self):
        a = derive_rng(7, "x").standard_normal(5)
        b = derive_rng(7, "x").standard_normal(5)
        np.testing.assert_array_equal(a, b)

    def test_streams_differ(self):
        a = derive_rng(7, "x").standard_normal(5)
        b = derive_rng(7, "y").standard_normal(5)
        assert not np.allclose(a, b)

    def test_as_rng_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_as_rng_from_int(self):
        a = as_rng(3).integers(0, 100, 10)
        b = as_rng(3).integers(0, 100, 10)
        np.testing.assert_array_equal(a, b)

    def test_as_rng_none(self):
        assert isinstance(as_rng(None), np.random.Generator)


class TestStats:
    def test_median_basic(self):
        assert median([1.0, 3.0, 2.0]) == 2.0

    def test_median_empty_is_nan(self):
        assert np.isnan(median([]))

    def test_percentile(self):
        assert percentile(np.arange(101), 50) == 50.0

    def test_percentile_empty_is_nan(self):
        assert np.isnan(percentile([], 50))

    def test_relative_std_constant(self):
        assert relative_std([5.0, 5.0, 5.0]) == 0.0

    def test_relative_std_zero_mean(self):
        assert np.isnan(relative_std([-1.0, 1.0]))

    def test_relative_std_scale_invariant(self):
        a = np.array([1.0, 2.0, 3.0])
        assert relative_std(a) == pytest.approx(relative_std(10 * a))

    def test_harmonic_mean_symmetric(self):
        assert harmonic_mean(0.5, 0.8) == pytest.approx(harmonic_mean(0.8, 0.5))

    def test_harmonic_mean_zero(self):
        assert harmonic_mean(0.0, 0.9) == 0.0

    @given(
        st.floats(min_value=0.01, max_value=1.0),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_harmonic_mean_between_min_and_max(self, a, b):
        h = harmonic_mean(a, b)
        assert min(a, b) - 1e-12 <= h <= max(a, b) + 1e-12


class TestTables:
    def test_format_table_alignment(self):
        out = format_table(["name", "v"], [["a", 1.5], ["bb", 2.25]])
        lines = out.splitlines()
        assert len(lines) == 4
        assert "name" in lines[0]
        assert "2.250" in lines[-1]

    def test_format_table_title(self):
        out = format_table(["x"], [[1]], title="T1")
        assert out.splitlines()[0] == "T1"

    def test_format_table_ragged_raises(self):
        with pytest.raises(ValueError, match="cells"):
            format_table(["a", "b"], [[1]])

    def test_format_matrix_includes_labels(self):
        out = format_matrix(["r1"], ["c1", "c2"], [[1.0, 2.0]], corner="M")
        assert "r1" in out and "c1" in out and "c2" in out
