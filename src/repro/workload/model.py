"""Joint non-parametric request model (paper §III-B).

The model bins every request parameter (64 equal-frequency bins) and
keeps the *joint* histogram over multi-dimensional bins — the distinct
combinations of per-parameter bin assignments observed in the traces.
Because the parameters are strongly correlated, the joint histogram is
extremely sparse, which keeps the model small (<1MB in the paper versus
1.6GB of traces) and makes sampling fast.

Sampling draws a multi-dimensional bin with probability proportional to
its trace count, and emits the bin centers as the request's parameter
values. An *independent* sampling mode (each marginal sampled separately)
is provided for the paper's §V-A ablation showing that ignoring the
correlation distorts measured performance.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.traces.schema import CORE_PARAMS, TraceDataset
from repro.utils.rng import as_rng
from repro.workload.binning import DEFAULT_N_BINS, ParameterBinning, fit_binning

__all__ = ["RequestModel"]


@dataclass
class RequestModel:
    """Joint binned histogram over request parameters."""

    params: list[str]
    binnings: dict[str, ParameterBinning]
    bin_codes: np.ndarray  # (n_nonempty_bins, n_params) int16 bin indices
    counts: np.ndarray  # (n_nonempty_bins,) trace-request counts
    _probs: np.ndarray = field(init=False, repr=False)
    _cum: np.ndarray = field(init=False, repr=False)
    _marginals: dict[str, tuple[np.ndarray, np.ndarray]] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self) -> None:
        if self.bin_codes.shape != (len(self.counts), len(self.params)):
            raise ValueError("bin_codes shape mismatch")
        if np.any(self.counts <= 0):
            raise ValueError("all retained multi-dimensional bins must be non-empty")
        total = float(self.counts.sum())
        self._probs = self.counts / total
        self._cum = np.cumsum(self._probs)
        # Per-parameter marginal histograms (for independent-mode sampling
        # and CDF fidelity analysis).
        for j, p in enumerate(self.params):
            n_bins = self.binnings[p].n_bins
            marg = np.bincount(
                self.bin_codes[:, j], weights=self.counts, minlength=n_bins
            )
            self._marginals[p] = (np.arange(n_bins), marg / marg.sum())

    # ---- construction ------------------------------------------------------

    @classmethod
    def fit(
        cls,
        traces: TraceDataset,
        params: list[str] | None = None,
        n_bins: int = DEFAULT_N_BINS,
    ) -> "RequestModel":
        """Fit the joint model to a trace collection."""
        params = list(params) if params is not None else [
            p for p in CORE_PARAMS if p in traces.columns
        ]
        if not params:
            raise ValueError("no request parameters to model")
        binnings = {
            p: fit_binning(p, traces.columns[p], n_bins=n_bins) for p in params
        }
        code_matrix = np.column_stack(
            [binnings[p].assign(traces.columns[p]) for p in params]
        )
        packed, radices = _pack_codes(code_matrix)
        unique_packed, counts = np.unique(packed, return_counts=True)
        bin_codes = _unpack_codes(unique_packed, radices)
        return cls(
            params=params,
            binnings=binnings,
            bin_codes=bin_codes.astype(np.int16),
            counts=counts.astype(np.int64),
        )

    # ---- introspection -------------------------------------------------------

    @property
    def n_nonempty_bins(self) -> int:
        return len(self.counts)

    @property
    def n_theoretical_bins(self) -> float:
        """Product of per-parameter bin counts (paper: 10.7e9 vs 46.5k)."""
        out = 1.0
        for p in self.params:
            out *= self.binnings[p].n_bins
        return out

    @property
    def sparsity(self) -> float:
        """Fraction of theoretically possible bins that are occupied."""
        return self.n_nonempty_bins / self.n_theoretical_bins

    def nbytes(self) -> int:
        """Storage footprint of the model (codes + counts + bin tables)."""
        total = self.bin_codes.nbytes + self.counts.nbytes
        for b in self.binnings.values():
            total += b.edges.nbytes + b.centers.nbytes
        return int(total)

    def max_request_weight(self) -> int:
        """Largest request weight the joint model can produce.

        The weight of a request is (input + output tokens) x client batch
        size (paper §II-B). Because the model only samples *observed*
        joint bins, this maximum reflects the correlation structure —
        independent marginal sampling can exceed it, which is one of the
        failure modes of correlation-ignoring workload generators.
        """
        def col(name: str, default: float) -> np.ndarray:
            if name not in self.params:
                return np.full(len(self.counts), default)
            j = self.params.index(name)
            return self.binnings[name].decode(self.bin_codes[:, j]).astype(float)

        inp = col("input_tokens", 1.0)
        out = col("output_tokens", 1.0)
        batch = col("batch_size", 1.0)
        return int(np.ceil(np.max((inp + out) * batch)))

    # ---- sampling -------------------------------------------------------------

    def sample(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        independent: bool = False,
    ) -> dict[str, np.ndarray]:
        """Draw ``n`` requests; returns a column dict of parameter values.

        ``independent=True`` samples each marginal separately (ablation
        mode); the default samples the joint histogram, preserving all
        cross-parameter correlation.
        """
        if n < 0:
            raise ValueError(f"n must be >= 0, got {n}")
        rng = as_rng(rng)
        out: dict[str, np.ndarray] = {}
        if independent:
            for j, p in enumerate(self.params):
                bins, probs = self._marginals[p]
                drawn = rng.choice(bins, size=n, p=probs)
                out[p] = self.binnings[p].decode(drawn)
            return out
        # Inverse-CDF draw over the sparse joint histogram.
        u = rng.random(n)
        rows = np.searchsorted(self._cum, u, side="right")
        rows = np.clip(rows, 0, len(self.counts) - 1)
        for j, p in enumerate(self.params):
            out[p] = self.binnings[p].decode(self.bin_codes[rows, j])
        return out


def _pack_codes(code_matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pack per-parameter bin indices into single integers (mixed radix)."""
    radices = code_matrix.max(axis=0).astype(np.int64) + 1
    bits = float(np.sum(np.log2(np.maximum(radices, 1))))
    if bits >= 62:
        raise ValueError(
            f"joint bin space too large to pack ({bits:.0f} bits); "
            "reduce the number of modeled parameters or bins"
        )
    packed = np.zeros(len(code_matrix), dtype=np.int64)
    for j in range(code_matrix.shape[1]):
        packed = packed * radices[j] + code_matrix[:, j]
    return packed, radices


def _unpack_codes(packed: np.ndarray, radices: np.ndarray) -> np.ndarray:
    """Invert :func:`_pack_codes`."""
    n_params = len(radices)
    out = np.zeros((len(packed), n_params), dtype=np.int64)
    rest = packed.copy()
    for j in range(n_params - 1, -1, -1):
        out[:, j] = rest % radices[j]
        rest //= radices[j]
    return out
