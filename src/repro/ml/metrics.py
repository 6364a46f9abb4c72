"""Regression metrics, including the paper's weighted MAPE (§IV-B3)."""

from __future__ import annotations

import numpy as np

__all__ = ["r2_score", "weighted_mape"]


def _check(y_true: np.ndarray, y_pred: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    y_true = np.asarray(y_true, dtype=float)
    y_pred = np.asarray(y_pred, dtype=float)
    if y_true.shape != y_pred.shape:
        raise ValueError(f"shape mismatch: {y_true.shape} vs {y_pred.shape}")
    if y_true.size == 0:
        raise ValueError("empty inputs")
    return y_true, y_pred


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> float:
    """Coefficient of determination (1 - SS_res / SS_tot)."""
    y_true, y_pred = _check(y_true, y_pred)
    ss_res = np.sum((y_true - y_pred) ** 2)
    ss_tot = np.sum((y_true - y_true.mean()) ** 2)
    if ss_tot == 0:
        return 1.0 if ss_res == 0 else 0.0
    return float(1.0 - ss_res / ss_tot)


def weighted_mape(
    y_true: np.ndarray,
    y_pred: np.ndarray,
    sample_weight: np.ndarray,
    eps: float = 1e-12,
) -> float:
    """Sample-weighted MAPE — the paper's HP-tuning objective (§IV-B3).

    Measures error relative to the latency values (which span orders of
    magnitude) while emphasizing the points near the latency constraints
    via the Eq. (4) sample weights.
    """
    y_true, y_pred = _check(y_true, y_pred)
    w = np.asarray(sample_weight, dtype=float)
    if w.shape != y_true.shape:
        raise ValueError("sample_weight shape mismatch")
    if np.any(w < 0):
        raise ValueError("sample weights must be non-negative")
    total = w.sum()
    if total <= 0:
        raise ValueError("sample weights must not all be zero")
    rel = np.abs(y_true - y_pred) / np.maximum(np.abs(y_true), eps)
    return float(np.dot(w, rel) / total)
