"""Discrete-event continuous-batching engine (TGIS stand-in).

The engine implements the server-side scheduling the paper describes
(§II-B): a single batch of in-flight requests; when requests finish, new
requests are admitted from the FIFO queue as long as their *weight*
(total input+output tokens, times client batch size) fits under the
configured maximum batch weight. Prompt processing (prefill) of newly
admitted requests blocks decoding — which is what makes inter-token
latency grow with arrival rate before memory saturation, and the
time-to-first-token jump once the batch weight is exhausted and requests
queue.

Each scheduler iteration advances virtual time by the cost-model step
time (with a small seeded lognormal jitter, playing the role of real
measurement noise). Per-token client timestamps are tracked exactly:
every decode step records, for each active request, the gap since that
request's previous token. Requests that share a last-token time share
that gap, so the engine records the gaps as runs (see
:class:`~repro.simulation.metrics.MetricsCollector`).

The decode step is vectorized: the engine keeps the per-request decode
state — generated count, output target, batch size — in parallel numpy
arrays (last-token times per segment of rows that share one) and
advances the whole batch in a handful of array operations. Its scalar
counterpart, :class:`repro.simulation.reference.ReferenceEngine`, walks
the active list one request at a time; both draw the same single noise
sample per step and perform the same IEEE-754 double arithmetic, so
their outputs are bit-identical on pinned seeds (see
``tests/test_inference.py`` and the golden pins in
``tests/test_simulation.py``); ``benchmarks/bench_core_speed.py``
enforces the equality and the speedup.

Between an admission and a completion every decode step has the same
batch, so its duration is a closed-form function of the KV size. When
the caller promises (through :attr:`ContinuousBatchingEngine.horizon`)
that nothing reaches the engine before some time, one ``step()`` call
runs every decode step that starts before it as one vectorized *leap*,
again bit-identical to the one-step-at-a-time reference.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.hardware.profile import GPUProfile
from repro.inference.costmodel import CostModel
from repro.inference.request import InferenceRequest, RequestResult
from repro.models.llm import LLMSpec
from repro.simulation.metrics import MetricsCollector
from repro.utils.rng import derive_rng

__all__ = ["ContinuousBatchingEngine", "EngineStats"]

#: Most requests one batch holds, whatever their weight.
MAX_BATCH_REQUESTS = 256
#: Lognormal sigma of the per-step timing jitter.
_STEP_NOISE_SIGMA = 0.03
#: How many queued requests admission examines past a blocked head.
_ADMISSION_LOOKAHEAD = 32
#: Head-of-line wait after which admission stops reordering (seconds).
_STARVATION_TIMEOUT_S = 60.0


@dataclass
class _Active:
    """Server-side state of one in-flight request."""

    request: InferenceRequest
    submitted_at: float
    first_token_at: float = -1.0
    generated: int = 0
    last_token_at: float = -1.0

    @property
    def done(self) -> bool:
        return self.generated >= self.request.output_tokens


@dataclass
class EngineStats:
    """Aggregate counters exposed after (or during) a run."""

    steps: int = 0
    prefill_steps: int = 0
    decode_steps: int = 0
    tokens_generated: int = 0  # client-visible tokens (batch entries counted)
    requests_completed: int = 0
    busy_time_s: float = 0.0


class ContinuousBatchingEngine:
    """Single-pod inference server simulator."""

    def __init__(
        self,
        llm: LLMSpec,
        profile: GPUProfile,
        max_batch_weight: int,
        seed: int = 0,
    ) -> None:
        if max_batch_weight < 2:
            raise ValueError(f"max_batch_weight must be >= 2, got {max_batch_weight}")
        self.llm = llm
        self.profile = profile
        self.max_batch_weight = int(max_batch_weight)
        self.cost = CostModel(llm, profile)
        self._rng = derive_rng(seed, "engine", llm.name, profile.name)
        # Fault layer: a transient slowdown multiplies every step's cost.
        # Exactly 1.0 outside fault windows, where ``x * 1.0 == x`` in
        # IEEE-754 keeps fault-free runs bit-identical to an engine that
        # never heard of faults.
        self.slow_factor = 1.0
        # Decode leaps (see step()): the caller's promise that nothing
        # outside the engine — a submit, a slowdown, a metrics reset —
        # touches it before this virtual time. The default promises
        # nothing, so every step() call is one iteration.
        self.horizon = float("-inf")

        self._time = 0.0
        self._queue: deque[tuple[InferenceRequest, float]] = deque()
        self._active: list[_Active] = []
        self._batch_weight = 0  # committed weight of active requests
        self._pending_weight = 0  # weight still waiting in the queue
        self._kv_tokens = 0  # tokens currently resident in the KV cache
        # Latency samples (ITL gaps, TTFT records, completions) live in
        # the collector; the engine only emits events into it. Each
        # engine owns its collector — sharing one across engines would
        # break warmup resets and cross-pod merging.
        self.metrics = MetricsCollector()
        self.stats = EngineStats()
        # Decode core: structure-of-arrays mirror of self._active. Row i
        # of each array belongs to self._active[i].
        self._soa_cap = 64
        self._soa_gen = np.zeros(self._soa_cap, dtype=np.int64)  # generated
        self._soa_out = np.zeros(self._soa_cap, dtype=np.int64)  # output target
        self._soa_batch = np.zeros(self._soa_cap, dtype=np.int64)  # batch size
        # Incremental mirrors of two per-step reductions: the total
        # sequence count of the active batch, and how many decode steps
        # remain until the *next* completion (every active request gains
        # exactly one token per step, so the countdown is exact). Both
        # are bookkeeping only — they change no simulated quantity.
        self._soa_seqs = 0
        self._soa_min_left = 0
        # Last-token times by row segment: rows _seg_rows[j] up to the
        # next segment's first row all emitted their last token at
        # _seg_last[j]. A decode step leaves one segment; each prefill
        # since adds one.
        self._seg_rows: list[int] = []
        self._seg_last: list[float] = []
        # Failed-admission memo: a scan that admitted nothing stays
        # futile until a completion frees budget/slots, or a new arrival
        # lands on a queue the scan had exhausted.
        self._admit_blocked = False
        self._admit_scanned_all = False

    # ---- public API -----------------------------------------------------

    @property
    def time(self) -> float:
        """Current virtual time (seconds since engine start)."""
        return self._time

    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    @property
    def active_requests(self) -> int:
        return len(self._active)

    @property
    def batch_weight_in_use(self) -> int:
        return self._batch_weight

    @property
    def pending_weight(self) -> int:
        """Total weight of queued (not yet admitted) requests."""
        return self._pending_weight

    def submit(self, request: InferenceRequest, arrival_time: float | None = None) -> None:
        """Enqueue ``request``.

        ``arrival_time`` records when the client actually sent the request
        (open-loop harnesses submit arrivals that occurred during the
        previous scheduler step); it must not lie in the engine's future.
        Defaults to the current virtual time (closed-loop behaviour).
        """
        if request.weight > self.max_batch_weight:
            raise ValueError(
                f"request weight {request.weight} exceeds the maximum batch "
                f"weight {self.max_batch_weight}; the workload generator and "
                "batch-weight tuner must agree on request limits"
            )
        if arrival_time is None:
            arrival_time = self._time
        elif arrival_time > self._time + 1e-9:
            raise ValueError(
                f"arrival_time {arrival_time} is in the engine's future "
                f"(now {self._time}); advance_to() it first"
            )
        self._queue.append((request, float(arrival_time)))
        self._pending_weight += request.weight
        if self._admit_scanned_all:
            # The failed scan had examined the whole queue; this arrival
            # extends it, so the next scan may succeed.
            self._admit_blocked = False

    def advance_to(self, t: float) -> None:
        """Move virtual time forward to ``t`` (idle gap, no work done)."""
        if t > self._time:
            self._time = t

    def has_work(self) -> bool:
        return bool(self._queue or self._active)

    def step(self) -> list[RequestResult]:
        """Run one scheduler iteration; returns requests completed in it.

        A decode iteration that starts before :attr:`horizon` is a
        *leap*: every further decode step that also starts before the
        horizon runs in the same call, up to and including the step that
        completes the next request (see :meth:`_leap`). ``stats`` counts
        each step the call simulated.
        """
        if not (self._queue or self._active):
            return []
        self.stats.steps += 1
        # Skip the scan while the failed-admission memo holds: the queue
        # is unchanged (admission is the only consumer), the budget is
        # unchanged (only completions free weight), and the passage of
        # time can only *suspend* reordering, which never turns a failed
        # scan into a successful one.
        if self._queue and not self._admit_blocked:
            admitted = self._admit()
            if admitted:
                return self._prefill(admitted)
        if self._soa_min_left > 1 and self.horizon > self._time:
            return self._leap()
        return self._decode()

    def itl_samples(self) -> np.ndarray:
        """All client-observed inter-token gaps recorded so far.

        A new array expanded from the collector's runs on every call;
        ITL statistics come from :meth:`MetricsCollector.itl_stats` and
        :meth:`MetricsCollector.itl_median` without building it.
        """
        return self.metrics.itl_samples()

    def reset_metrics(self) -> None:
        """Drop all collected metric samples and counters (warmup support).

        Engine state (active batch, queue, virtual time) is untouched —
        only the measurement side restarts, as a benchmark harness does
        after its warmup phase.
        """
        self.metrics.reset()
        self.stats = EngineStats()

    def ttft_samples(self) -> tuple[np.ndarray, np.ndarray]:
        """(ttft_seconds, input_tokens) for every first token served."""
        return self.metrics.ttft_samples()

    def evacuate(self) -> tuple[list[InferenceRequest], list[InferenceRequest]]:
        """Drop all queued and in-flight work (pod-crash support).

        Returns ``(queued, active)`` requests in FIFO/admission order so
        the fleet layer can requeue or count them lost. Scheduling state
        (batch weight, KV residency, the decode mirrors) resets to
        empty; virtual time and already-recorded metrics are untouched —
        tokens streamed before the crash were really delivered.
        """
        queued = [request for request, _ in self._queue]
        active = [a.request for a in self._active]
        self._queue.clear()
        self._active = []
        self._batch_weight = 0
        self._pending_weight = 0
        self._kv_tokens = 0
        self._soa_seqs = 0
        self._soa_min_left = 0
        self._admit_blocked = False
        self._admit_scanned_all = False
        return queued, active

    # ---- internals --------------------------------------------------------

    def _noise(self) -> float:
        return float(self._rng.lognormal(0.0, _STEP_NOISE_SIGMA))

    def _admit(self) -> list[_Active]:
        """Admission from the waiting queue under the batch-weight cap.

        The scheduler scans the queue in FIFO order and admits every
        request that fits the remaining weight budget, looking past a
        blocked head up to ``_ADMISSION_LOOKAHEAD`` entries (as real
        next-batch selection does). To prevent starvation of large
        requests, reordering is suspended once the head has waited longer
        than ``_STARVATION_TIMEOUT_S`` — the batch then drains until the
        head fits.
        """
        admitted: list[_Active] = []
        if not self._queue:
            return admitted
        head_wait = self._time - self._queue[0][1]
        allow_reorder = head_wait < _STARVATION_TIMEOUT_S
        budget = self.max_batch_weight - self._batch_weight
        slots = MAX_BATCH_REQUESTS - len(self._active)
        skipped: list[tuple[InferenceRequest, float]] = []
        while self._queue and slots > 0:
            request, submitted_at = self._queue.popleft()
            if request.weight <= budget:
                budget -= request.weight
                slots -= 1
                self._batch_weight += request.weight
                self._pending_weight -= request.weight
                admitted.append(_Active(request=request, submitted_at=submitted_at))
                continue
            skipped.append((request, submitted_at))
            if not allow_reorder or len(skipped) >= _ADMISSION_LOOKAHEAD:
                break
        scanned_all = not self._queue
        for item in reversed(skipped):
            self._queue.appendleft(item)
        if not admitted:
            self._admit_blocked = True
            self._admit_scanned_all = scanned_all
        return admitted

    def _prefill(self, admitted: list[_Active]) -> list[RequestResult]:
        """Prompt-processing pass over the newly admitted requests."""
        self.stats.prefill_steps += 1
        prompt_tokens = sum(
            a.request.input_tokens * a.request.batch_size for a in admitted
        )
        dt = self.cost.prefill_time(prompt_tokens) * self._noise() * self.slow_factor
        self._time += dt
        self.stats.busy_time_s += dt

        completed: list[RequestResult] = []
        first_tokens = 0
        for a in admitted:
            a.first_token_at = self._time
            a.last_token_at = self._time
            a.generated = 1  # the prompt phase emits the first output token
            self.metrics.record_first_token(
                self._time - a.submitted_at, a.request.input_tokens, self._time
            )
            self._kv_tokens += (a.request.input_tokens + 1) * a.request.batch_size
            self.stats.tokens_generated += a.request.batch_size
            first_tokens += a.request.batch_size
            if a.done:
                completed.append(self._finish(a))
            else:
                self._active.append(a)
                self._soa_append(len(self._active) - 1, a)
        self.metrics.record_tokens(first_tokens, self._time)
        return completed

    def _soa_append(self, row: int, a: _Active) -> None:
        """Mirror a freshly admitted request into the decode arrays."""
        if row >= self._soa_cap:
            while self._soa_cap <= row:
                self._soa_cap *= 2
            for name in ("_soa_gen", "_soa_out", "_soa_batch"):
                old = getattr(self, name)
                grown = np.zeros(self._soa_cap, dtype=old.dtype)
                grown[: old.size] = old
                setattr(self, name, grown)
        if row == 0:
            self._seg_rows = [0]
            self._seg_last = [a.last_token_at]
        elif a.last_token_at != self._seg_last[-1]:
            self._seg_rows.append(row)
            self._seg_last.append(a.last_token_at)
        self._soa_gen[row] = a.generated
        self._soa_out[row] = a.request.output_tokens
        self._soa_batch[row] = a.request.batch_size
        self._soa_seqs += a.request.batch_size
        left = a.request.output_tokens - a.generated
        if row == 0 or left < self._soa_min_left:
            self._soa_min_left = left

    def _decode(self) -> list[RequestResult]:
        """One decode step: every active sequence gains one token.

        Vectorized over the structure-of-arrays mirror, and bit-identical
        to the scalar loop of
        :meth:`repro.simulation.reference.ReferenceEngine._decode` by
        construction: one noise draw per step, ``n_seqs`` is the same
        exact integer, and each row segment's gap is the same IEEE-754
        double subtraction the scalar loop makes for each of its rows.
        Completions are emitted in active-list order, exactly as the
        scalar loop does. When extending this kernel, keep every float
        operation an element-wise mirror of the scalar statement and
        never reorder reductions — see docs/architecture.md ("Production
        core vs reference").
        """
        stats = self.stats
        stats.decode_steps += 1
        n = len(self._active)
        n_seqs = self._soa_seqs
        dt = (
            self.cost.decode_step_time(n_seqs, self._kv_tokens)
            * self._noise()
            * self.slow_factor
        )
        now = self._time + dt
        self._time = now
        stats.busy_time_s += dt

        self._segment_gaps(now, n)
        self._soa_gen[:n] += 1
        self._kv_tokens += n_seqs
        stats.tokens_generated += n_seqs
        self.metrics.record_tokens(n_seqs, now)
        # Every active request gains exactly one token per step, so the
        # smallest remaining-output count drops by exactly one — the
        # done-comparison only needs to run when that countdown hits 0.
        self._soa_min_left -= 1
        if self._soa_min_left > 0:
            return []
        return self._complete(n)

    def _leap(self) -> list[RequestResult]:
        """Every decode step that starts before :attr:`horizon`, up to and
        including the next completion, as one vectorized pass.

        Until that completion the batch cannot change: nothing completes
        earlier (``_soa_min_left`` counts the steps to it), admission is
        blocked or the queue empty, and the horizon rules out a submit.
        So step ``i`` (from 0) has the same ``n_seqs`` and a KV size of
        ``kv0 + i * n_seqs``, and the pass is bit-identical to one
        :meth:`_decode` per step:

        * the noise is one ``lognormal(size=k)`` draw, which yields the
          values of k scalar draws;
        * the step costs come from :meth:`CostModel.decode_step_times`,
          the element-wise twin of the scalar cost;
        * step times and busy time are sequential ``cumsum`` from the
          engine's clock and busy time, the sums of repeated ``+=``;
        * the first step's gaps are ``t1 - last`` per row segment, and
          every later step's gap is the difference of two consecutive
          step times, which is the per-request subtraction once every
          request's last token is the previous step's; each later step
          is one run of ``n`` samples.
        """
        stats = self.stats
        n = len(self._active)
        n_seqs = self._soa_seqs
        k = self._soa_min_left
        rng = self._rng
        state = rng.bit_generator.state
        noise = rng.lognormal(0.0, _STEP_NOISE_SIGMA, size=k)
        kv = self._kv_tokens + n_seqs * np.arange(k)
        dt = self.cost.decode_step_times(n_seqs, kv) * noise * self.slow_factor
        times = np.cumsum(np.concatenate(([self._time], dt)))
        # Step i starts at times[i]; the first starts before the horizon.
        run = k
        if times[k - 1] >= self.horizon:
            run = int(np.searchsorted(times[:k], self.horizon))
            # The horizon cut the run short: leave the noise stream
            # exactly ``run`` draws on, as ``run`` scalar draws would.
            rng.bit_generator.state = state
            rng.lognormal(0.0, _STEP_NOISE_SIGMA, size=run)
            dt = dt[:run]
            times = times[: run + 1]
        busy = np.cumsum(np.concatenate(([stats.busy_time_s], dt)))
        stats.steps += run - 1
        stats.decode_steps += run
        self._time = float(times[-1])
        stats.busy_time_s = float(busy[-1])
        self._segment_gaps(times[1], n)
        if run > 1:
            self.metrics.gap_sink(times[2:] - times[1:-1], n)
        self._soa_gen[:n] += run
        self._kv_tokens += run * n_seqs
        stats.tokens_generated += run * n_seqs
        self.metrics.record_token_steps(n_seqs, times[1:])
        self._soa_min_left -= run
        if self._soa_min_left > 0:
            return []
        return self._complete(n)

    def _segment_gaps(self, t: float, n: int) -> None:
        """Record the gaps of the decode step ending at ``t`` over the
        first ``n`` rows, one run per row segment.

        The caller has moved the clock to the end of its last decode
        step, so afterwards every row's last token is at the engine's
        clock: one segment.
        """
        rows, lasts = self._seg_rows, self._seg_last
        sink = self.metrics.gap_sink
        for j in range(len(rows) - 1):
            sink(t - lasts[j], rows[j + 1] - rows[j])
        sink(t - lasts[-1], n - rows[-1])
        self._seg_rows = [0]
        self._seg_last = [self._time]

    def _complete(self, n: int) -> list[RequestResult]:
        """Retire the requests among the ``n`` active ones that the step
        ending at the engine's clock completed, in active-list order."""
        now = self._time
        completed: list[RequestResult] = []
        done = self._soa_gen[:n] >= self._soa_out[:n]
        for i in np.flatnonzero(done):
            a = self._active[i]
            # Copy the authoritative array state back before the
            # result is assembled (still-active rows stay lazily
            # mirrored — the arrays are the source of truth).
            a.generated = int(self._soa_gen[i])
            a.last_token_at = now
            self._soa_seqs -= a.request.batch_size
            completed.append(self._finish(a))
        keep = ~done
        self._active = [a for a, k in zip(self._active, keep) if k]
        m = len(self._active)
        for arr in (self._soa_gen, self._soa_out, self._soa_batch):
            arr[:m] = arr[:n][keep]
        self._soa_min_left = (
            int((self._soa_out[:m] - self._soa_gen[:m]).min()) if m else 0
        )
        return completed

    def _finish(self, a: _Active) -> RequestResult:
        req = a.request
        self._batch_weight -= req.weight
        self._admit_blocked = False
        self._kv_tokens -= (req.input_tokens + req.output_tokens) * req.batch_size
        self.stats.requests_completed += 1
        result = RequestResult(
            request=req,
            submitted_at=a.submitted_at,
            first_token_at=a.first_token_at,
            finished_at=self._time,
        )
        self.metrics.record_completion(result)
        return result
