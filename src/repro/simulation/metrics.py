"""Metric collection for simulated load tests.

The engine used to hoard its own metric buffers (``_itl_gaps``,
``_ttft_records``); they now live in a :class:`MetricsCollector` the
engine emits events into. The collector owns three concerns:

* **sample accumulation** — per-token inter-token gaps, per-request TTFT
  (with input-token counts for nTTFT) and completed-request records,
  stored in amortized-O(1) growable arrays. Inter-token gaps are stored
  as *runs*: a gap value and how many consecutive samples share it. One
  decode step gives every request that decoded in the previous step the
  same gap, so a step's samples form one run or a few, however many
  requests decoded;
* **tail statistics** — alongside the paper's medians, p95/p99
  tails via :class:`LatencyStats`. ITL statistics are computed from the
  runs, bit-identical to numpy on the expanded sample array;
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

    def clear(self) -> None:
        # Fresh allocation, not _n = 0: views handed out before the
        # clear must keep their contents (warmup snapshots).
        self._buf = np.empty(self._capacity, dtype=self._dtype)
        self._n = 0

    def values(self) -> np.ndarray:
        return self._buf[: self._n]


#: The quantiles :class:`LatencyStats` reports, as ``np.percentile``
#: computes them from its percent arguments.
_QUANTILES = np.true_divide((50.0, 95.0, 99.0), 100)

#: Width of the windows the token throughput series bins by (seconds).
_WINDOW_S = 10.0


def window_end(now: float) -> float:
    """The earliest time :meth:`MetricsCollector.record_tokens` files in
    a later window than ``now``: every ``t`` with
    ``now <= t < window_end(now)`` shares ``now``'s window.

    A record's window is ``int(t / _WINDOW_S)``, which rounds the
    quotient first, yet the end is the exact multiple
    ``(w + 1) * _WINDOW_S``. The largest double below it is one of its
    ulps smaller, which is at least 8 ulps of ``w + 1`` (a number 10
    times larger has an exponent at least 3 higher). Divided by 10, it
    lies at least 0.8 ulp below ``w + 1``, so its quotient rounds below.
    """
    return (int(now / _WINDOW_S) + 1) * _WINDOW_S


#: Most samples one pairwise-sum leaf expands at a time. Any size gives
#: the same sum; this one bounds the transient array at 512 KiB.
_SUM_LEAF = 1 << 16


class _Runs:
    """Samples stored as runs: ``values[i]`` repeated ``counts[i]`` times.

    Runs keep recording order, so :meth:`samples` rebuilds the recorded
    array exactly. A run need not be maximal: equal neighbours may sit
    in separate runs, which changes no statistic. The two columns grow
    together by doubling; cells are never rewritten.
    """

    def __init__(self) -> None:
        self._values = np.empty(1024)
        self._counts = np.empty(1024, dtype=np.int64)
        self._n = 0

    def __len__(self) -> int:
        return self._n

    def add(self, values, counts) -> None:
        """Append one run of ``counts`` samples equal to ``values`` (a
        float), or one run per element of ``values`` (a list or 1-D
        array), with ``counts`` one count for every run or an array of
        one each."""
        n = self._n
        if isinstance(values, float):
            if n == self._values.size:
                self._grow(n + 1)
            self._values[n] = values
            self._counts[n] = counts
            self._n = n + 1
            return
        end = n + len(values)
        if end > self._values.size:
            self._grow(end)
        self._values[n:end] = values
        self._counts[n:end] = counts
        self._n = end

    def _grow(self, need: int) -> None:
        capacity = 2 * self._values.size
        while capacity < need:
            capacity *= 2
        for name in ("_values", "_counts"):
            old = getattr(self, name)
            grown = np.empty(capacity, dtype=old.dtype)
            grown[: self._n] = old[: self._n]
            setattr(self, name, grown)

    def runs(self) -> tuple[np.ndarray, np.ndarray]:
        """``(values, counts)``, zero-copy views in recording order."""
        return self._values[: self._n], self._counts[: self._n]

    def samples(self) -> np.ndarray:
        """The samples as recorded: a new array on every call."""
        return np.repeat(*self.runs())

    def by_value(self) -> tuple[np.ndarray, np.ndarray]:
        """Run values in ascending order, and the cumulative sample count
        at the end of each (so order statistic ``k`` is in the first run
        whose cumulative count exceeds ``k``)."""
        values, counts = self.runs()
        order = np.argsort(values)
        return values[order], np.cumsum(counts[order])

    def stats(self) -> "LatencyStats":
        """``LatencyStats.from_samples(self.samples())``, bit for bit."""
        values, counts = self.runs()
        ends = np.cumsum(counts)
        n = int(ends[-1]) if ends.size else 0
        if n == 0:
            return LatencyStats.from_samples(np.empty(0))
        p50, p95, p99 = _order_lerp(*self.by_value(), n)
        return LatencyStats(
            count=n,
            median_s=float(p50),
            p95_s=float(p95),
            p99_s=float(p99),
            mean_s=float(_pairwise_sum(values, ends, 0, n) / n),
        )

    def median(self) -> float:
        """``np.median(self.samples())``, bit for bit; NaN when empty.

        Not the 50th percentile: numpy's median is the middle order
        statistic for odd ``n`` and ``np.mean`` of the middle two for
        even ``n``, which can differ from interpolating in the last bit.
        """
        values, ends = self.by_value()
        n = int(ends[-1]) if ends.size else 0
        if n == 0:
            return float("nan")
        middle = [n // 2] if n % 2 else [n // 2 - 1, n // 2]
        return float(np.mean(values[np.searchsorted(ends, middle, side="right")]))


def _order_lerp(values: np.ndarray, ends: np.ndarray, n: int) -> np.ndarray:
    """``np.percentile`` (linear method) at :data:`_QUANTILES` of ``n``
    samples held as sorted runs (see :meth:`_Runs.by_value`).

    Mirrors numpy's steps: virtual index ``(n - 1) * q``, neighbours
    ``floor`` and ``floor + 1`` clipped to the last sample, ``gamma``
    the distance from the lower one, and numpy's two-sided lerp.
    """
    virtual = (n - 1) * _QUANTILES
    lower = np.floor(virtual)
    upper = lower + 1
    # Past the last sample numpy takes index -1 for both neighbours,
    # and gamma against that.
    clip = virtual >= n - 1
    lower[clip] = -1
    upper[clip] = -1
    lower = lower.astype(np.intp)
    upper = upper.astype(np.intp)
    gamma = virtual - lower
    a = values[np.searchsorted(ends, lower % n, side="right")]
    b = values[np.searchsorted(ends, upper % n, side="right")]
    diff = b - a
    return np.where(gamma >= 0.5, b - diff * (1 - gamma), a + diff * gamma)


def _pairwise_sum(values: np.ndarray, ends: np.ndarray, lo: int, hi: int):
    """Sum of samples ``lo:hi`` of the runs' expansion (``ends`` is the
    cumulative count in recording order), in the order numpy adds them.

    numpy sums a contiguous float64 array pairwise: above 128 elements
    it splits at ``n2 = n // 2 - (n // 2) % 8`` and adds the two halves'
    sums. Splitting the sample range by the same rule down to leaves of
    at most :data:`_SUM_LEAF` samples, each summed by numpy itself,
    reproduces ``np.repeat(values, counts).sum()`` exactly.
    """
    m = hi - lo
    if m <= _SUM_LEAF:
        first = np.searchsorted(ends, lo, side="right")
        last = np.searchsorted(ends, hi - 1, side="right") + 1
        counts = np.diff(np.minimum(ends[first:last], hi) - lo, prepend=0)
        return np.add.reduce(np.repeat(values[first:last], counts))
    half = m // 2
    half -= half % 8
    left = _pairwise_sum(values, ends, lo, lo + half)
    return left + _pairwise_sum(values, ends, lo + half, hi)


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

    def __init__(self) -> None:
        self._itl = _Runs()
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
        """Record one ITL sample per element of ``gaps``.

        Neighbours with identical bits join one run, so
        :meth:`itl_samples` returns the samples unchanged.
        """
        gaps = np.ascontiguousarray(gaps, dtype=np.float64)
        if gaps.size == 0:
            return
        bits = gaps.view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        self._itl.add(gaps[starts], np.diff(starts, append=gaps.size))

    def gap_sink(self, gaps, count: int) -> None:
        """Record ``count`` ITL samples equal to ``gaps`` (a float), or
        ``count`` samples equal to each element of ``gaps`` (a list or
        1-D array).

        The engine's decode loop emits its gaps as runs through this
        sink: one decode step gives every request of a row segment (rows
        sharing a last-token time) the same gap, and a leap's later
        steps give all rows one gap each, sent as one list.
        """
        self._itl.add(gaps, count)

    def record_tokens(self, n_tokens: int, now: float) -> None:
        self.tokens_recorded += n_tokens
        window = int(now / _WINDOW_S)
        self._window_tokens[window] = self._window_tokens.get(window, 0) + n_tokens

    def record_completion(self, result: "RequestResult") -> None:
        self.completed.append(result)

    def reset(self) -> None:
        """Drop every collected sample (warmup support)."""
        self._itl = _Runs()
        self._ttft.clear()
        self._ttft_inputs.clear()
        self._ttft_times.clear()
        self._ttft_times_sorted = True
        self._window_tokens.clear()
        self.completed.clear()
        self.tokens_recorded = 0

    # ---- sample access ----------------------------------------------------

    def itl_samples(self) -> np.ndarray:
        """All inter-token gaps recorded so far, in recording order.

        Expands the stored runs into a new array on every call; the
        statistics (:meth:`itl_stats`, :meth:`itl_median`) never build it.
        """
        return self._itl.samples()

    def itl_median(self) -> float:
        """``np.median(self.itl_samples())``, bit for bit; NaN when empty."""
        return self._itl.median()

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
        return self._itl.stats()

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
        return windows * _WINDOW_S, tokens / _WINDOW_S

    @classmethod
    def merged(cls, collectors: list["MetricsCollector"]) -> "MetricsCollector":
        """Pool the samples of several per-pod collectors into one."""
        out = cls()
        out._ttft_times_sorted = len(collectors) <= 1
        for c in collectors:
            out._itl.add(*c._itl.runs())
            out._ttft.extend(c._ttft.values())
            out._ttft_inputs.extend(c._ttft_inputs.values())
            out._ttft_times.extend(c._ttft_times.values())
            out.completed.extend(c.completed)
            out.tokens_recorded += c.tokens_recorded
            for window, tokens in c._window_tokens.items():
                out._window_tokens[window] = out._window_tokens.get(window, 0) + tokens
        return out
