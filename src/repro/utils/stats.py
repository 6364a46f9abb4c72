"""Small statistical helpers used across the library."""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

__all__ = ["median", "percentile", "relative_std", "harmonic_mean"]


def median(values: Sequence[float] | np.ndarray) -> float:
    """Median of ``values``; NaN for empty input (matches benchmark semantics
    where an experiment that produced no tokens has undefined latency)."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.median(arr))


def percentile(values: Sequence[float] | np.ndarray, q: float) -> float:
    """``q``-th percentile (0..100) of ``values``; NaN for empty input."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    return float(np.percentile(arr, q))


def relative_std(values: Sequence[float] | np.ndarray) -> float:
    """Relative standard deviation (std / mean), as used by Table I's
    pod-scaling analysis. Returns NaN when the mean is zero."""
    arr = np.asarray(values, dtype=float)
    if arr.size == 0:
        return float("nan")
    m = arr.mean()
    if m == 0:
        return float("nan")
    return float(arr.std() / abs(m))


def harmonic_mean(a: float, b: float) -> float:
    """Harmonic mean of two non-negative numbers; 0 if either is 0."""
    if a <= 0 or b <= 0:
        return 0.0
    return 2.0 * a * b / (a + b)
