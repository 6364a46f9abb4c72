"""Metric collection for simulated load tests.

The engine used to hoard its own metric buffers (``_itl_gaps``,
``_ttft_records``); they now live in a :class:`MetricsCollector` the
engine emits events into. The collector owns three concerns:

* **sample accumulation** — per-token inter-token gaps, per-request TTFT
  (with input-token counts for nTTFT) and completed-request records,
  stored in amortized-O(1) growable arrays so hot analysis loops can call
  :meth:`itl_samples` repeatedly without re-concatenating anything;
* **tail statistics** — alongside the paper's medians, p95/p99
  tails via :class:`LatencyStats`;
* **windowed time series** — per-window token counts, so non-stationary
  traffic (diurnal, bursty) can be inspected over time instead of only
  as one end-of-run aggregate.

TTFT samples additionally carry the virtual time they were recorded at,
so autoscaling policies and admission controllers can ask for the
*trailing-window* tail (:meth:`MetricsCollector.ttft_since`) instead of
the whole-run aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # import cycle: the engine itself imports this module
    from repro.inference.request import RequestResult

__all__ = ["LatencyStats", "MetricsCollector"]


class _GrowableArray:
    """Append-only float/int buffer with amortized-O(1) growth.

    ``values()`` returns a zero-copy slice of the live prefix, so
    repeated statistics over the samples collected so far cost nothing
    beyond the statistic itself. Returned views are stable snapshots:
    cells are never rewritten — growth reallocates and ``clear()``
    drops the buffer rather than reusing it — so a view taken before a
    reset still holds the old samples afterwards.
    """

    def __init__(self, dtype=np.float64, capacity: int = 1024) -> None:
        self._dtype = dtype
        self._capacity = capacity
        self._buf = np.empty(capacity, dtype=dtype)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def _reserve(self, extra: int) -> None:
        need = self._n + extra
        if need <= self._buf.size:
            return
        capacity = self._buf.size
        while capacity < need:
            capacity *= 2
        grown = np.empty(capacity, dtype=self._dtype)
        grown[: self._n] = self._buf[: self._n]
        self._buf = grown

    def append(self, value) -> None:
        self._reserve(1)
        self._buf[self._n] = value
        self._n += 1

    def extend(self, values: np.ndarray) -> None:
        self._reserve(len(values))
        self._buf[self._n : self._n + len(values)] = values
        self._n += len(values)

    def write_slots(self, n: int) -> np.ndarray:
        """Reserve ``n`` cells and return them as a writable view.

        Zero-copy variant of :meth:`extend` for producers that can
        compute their samples directly into the buffer (the vectorized
        decode kernel); the caller must fill every returned cell.
        """
        self._reserve(n)
        start = self._n
        self._n = start + n
        return self._buf[start : self._n]

    def clear(self) -> None:
        # Fresh allocation, not _n = 0: views handed out before the
        # clear must keep their contents (warmup snapshots).
        self._buf = np.empty(self._capacity, dtype=self._dtype)
        self._n = 0

    def values(self) -> np.ndarray:
        return self._buf[: self._n]


@dataclass(frozen=True)
class LatencyStats:
    """Median and tail percentiles of one latency metric."""

    count: int
    median_s: float
    p95_s: float
    p99_s: float
    mean_s: float

    @classmethod
    def from_samples(cls, samples: np.ndarray) -> "LatencyStats":
        samples = np.asarray(samples, dtype=float)
        if samples.size == 0:
            nan = float("nan")
            return cls(count=0, median_s=nan, p95_s=nan, p99_s=nan, mean_s=nan)
        p50, p95, p99 = np.percentile(samples, (50.0, 95.0, 99.0))
        return cls(
            count=int(samples.size),
            median_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            mean_s=float(samples.mean()),
        )


class MetricsCollector:
    """Accumulates latency/throughput events emitted by an engine.

    One collector observes one engine (pod); fleet-level aggregates are
    produced by :meth:`merged` over the per-pod collectors.
    """

    def __init__(self, window_s: float = 10.0) -> None:
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        self.window_s = float(window_s)
        self._itl = _GrowableArray()
        self._ttft = _GrowableArray()
        self._ttft_inputs = _GrowableArray(dtype=np.int64)
        self._ttft_times = _GrowableArray()
        # Record times are monotone for a collector fed by one engine;
        # merged() concatenates several streams and clears this so
        # ttft_since falls back from binary search to a full scan.
        self._ttft_times_sorted = True
        self._window_tokens: dict[int, int] = {}
        self.completed: list["RequestResult"] = []
        self.tokens_recorded = 0

    # ---- event sinks (called by the engine / simulator) -----------------

    def record_first_token(self, ttft_s: float, input_tokens: int, now: float) -> None:
        self._ttft.append(ttft_s)
        self._ttft_inputs.append(input_tokens)
        self._ttft_times.append(now)

    def record_gaps(self, gaps: np.ndarray, now: float) -> None:
        self._itl.extend(gaps)

    def gap_sink(self, n: int) -> np.ndarray:
        """Writable destination for ``n`` ITL gap samples (zero-copy).

        Equivalent to building an ``n``-sized array and passing it to
        :meth:`record_gaps`, minus the intermediate copy; used by the
        engine's vectorized decode step, which subtracts straight into
        the buffer (a decode leap reserves all its steps' gaps at once).
        """
        return self._itl.write_slots(n)

    def record_tokens(self, n_tokens: int, now: float) -> None:
        self.tokens_recorded += n_tokens
        window = int(now / self.window_s)
        self._window_tokens[window] = self._window_tokens.get(window, 0) + n_tokens

    def record_token_steps(self, n_tokens: int, times: np.ndarray) -> None:
        """:meth:`record_tokens` of ``n_tokens`` at every one of ``times``.

        One call for a run of engine steps (a decode leap); ``times`` is
        non-decreasing, so a run inside one window is one dict update.
        """
        self.tokens_recorded += n_tokens * times.size
        counts = self._window_tokens
        first = int(times[0] / self.window_s)
        if first == int(times[-1] / self.window_s):
            counts[first] = counts.get(first, 0) + n_tokens * times.size
            return
        windows, steps = np.unique(
            (times / self.window_s).astype(np.int64), return_counts=True
        )
        for window, k in zip(windows.tolist(), steps.tolist()):
            counts[window] = counts.get(window, 0) + n_tokens * k

    def record_completion(self, result: "RequestResult") -> None:
        self.completed.append(result)

    def reset(self) -> None:
        """Drop every collected sample (warmup support)."""
        self._itl.clear()
        self._ttft.clear()
        self._ttft_inputs.clear()
        self._ttft_times.clear()
        self._ttft_times_sorted = True
        self._window_tokens.clear()
        self.completed.clear()
        self.tokens_recorded = 0

    # ---- sample access ----------------------------------------------------

    def itl_samples(self) -> np.ndarray:
        """All inter-token gaps recorded so far (zero-copy view)."""
        return self._itl.values()

    def ttft_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(ttft_seconds, input_tokens) for every first token served."""
        return self._ttft.values(), self._ttft_inputs.values()

    def ttft_since(self, t: float) -> np.ndarray:
        """TTFT samples recorded at virtual time >= ``t`` (trailing window).

        For a single engine's collector record times are monotone and the
        cut is a binary search plus a zero-copy slice; a merged collector
        holds interleaved per-pod streams and takes the O(n) mask path.
        """
        times = self._ttft_times.values()
        if self._ttft_times_sorted:
            lo = int(np.searchsorted(times, t, side="left"))
            return self._ttft.values()[lo:]
        return self._ttft.values()[times >= t]

    def e2e_samples(self, min_submitted_at: float = 0.0) -> np.ndarray:
        return np.array(
            [r.e2e_latency for r in self.completed if r.submitted_at >= min_submitted_at]
        )

    # ---- statistics --------------------------------------------------------

    def ttft_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self._ttft.values())

    def itl_stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self._itl.values())

    def ttft_p95_series(self, window_s: float = 10.0) -> tuple[np.ndarray, np.ndarray]:
        """(window_start_s, p95 TTFT) over fixed windows of record time.

        Windows with no first-token record are omitted (an idle window
        has no tail). Bins by each sample's recorded virtual time, which
        needs no sort order — merged multi-pod collectors work too. This
        is the primitive fault-recovery metrics are computed from:
        recovery is the first post-fault window whose p95 re-enters the
        SLO.
        """
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        times = self._ttft_times.values()
        if times.size == 0:
            return np.empty(0), np.empty(0)
        samples = self._ttft.values()
        windows = np.floor_divide(times, window_s).astype(np.int64)
        starts = []
        tails = []
        for window in np.unique(windows):
            starts.append(window * window_s)
            tails.append(float(np.percentile(samples[windows == window], 95.0)))
        return np.asarray(starts, dtype=float), np.asarray(tails)

    def throughput_timeseries(self) -> tuple[np.ndarray, np.ndarray]:
        """(window_start_s, tokens_per_s) arrays over the recorded run."""
        if not self._window_tokens:
            return np.empty(0), np.empty(0)
        lo = min(self._window_tokens)
        hi = max(self._window_tokens)
        windows = np.arange(lo, hi + 1)
        tokens = np.array([self._window_tokens.get(int(w), 0) for w in windows])
        return windows * self.window_s, tokens / self.window_s

    @classmethod
    def merged(cls, collectors: list["MetricsCollector"]) -> "MetricsCollector":
        """Pool the samples of several per-pod collectors into one."""
        window_s = collectors[0].window_s if collectors else 10.0
        out = cls(window_s=window_s)
        out._ttft_times_sorted = len(collectors) <= 1
        for c in collectors:
            out._itl.extend(c._itl.values())
            out._ttft.extend(c._ttft.values())
            out._ttft_inputs.extend(c._ttft_inputs.values())
            out._ttft_times.extend(c._ttft_times.values())
            out.completed.extend(c.completed)
            out.tokens_recorded += c.tokens_recorded
            for window, tokens in c._window_tokens.items():
                out._window_tokens[window] = out._window_tokens.get(window, 0) + tokens
        return out
