"""Marginal CDF fidelity of the workload generator (paper Fig 6).

Compares the empirical marginal distribution of each request parameter in
the traces against the marginal realized by the workload generator's
samples, via the Kolmogorov-Smirnov distance and explicit CDF curves
(the series a Fig 6 plot would draw).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.schema import TraceDataset
from repro.workload.generator import WorkloadGenerator

__all__ = ["CDFComparison", "compare_marginals"]


def _cdf_at(sample: np.ndarray, points: np.ndarray) -> np.ndarray:
    sample = np.sort(sample)
    return np.searchsorted(sample, points, side="right") / len(sample)


@dataclass
class CDFComparison:
    """Fidelity of one parameter's generated marginal."""

    param: str
    ks_distance: float
    grid: np.ndarray
    cdf_trace: np.ndarray
    cdf_generated: np.ndarray


def compare_marginals(
    traces: TraceDataset,
    generator: WorkloadGenerator,
    params: tuple[str, ...] = ("input_tokens", "batch_size", "temperature"),
    n_samples: int = 50_000,
    seed: int = 0,
    grid_points: int = 256,
) -> dict[str, CDFComparison]:
    """Fig 6: empirical vs generated marginal CDFs for selected parameters."""
    cols = generator.sample_columns(n_samples, rng=seed)
    out: dict[str, CDFComparison] = {}
    for p in params:
        if p not in traces.columns or p not in cols:
            raise KeyError(f"parameter {p!r} missing from traces or generator")
        trace_vals = traces.columns[p].astype(float)
        gen_vals = cols[p].astype(float)
        lo = min(trace_vals.min(), gen_vals.min())
        hi = max(trace_vals.max(), gen_vals.max())
        grid = np.linspace(lo, hi, grid_points)
        cdf_t = _cdf_at(trace_vals, grid)
        cdf_g = _cdf_at(gen_vals, grid)
        out[p] = CDFComparison(
            param=p,
            ks_distance=float(np.max(np.abs(cdf_t - cdf_g))),
            grid=grid,
            cdf_trace=cdf_t,
            cdf_generated=cdf_g,
        )
    return out
