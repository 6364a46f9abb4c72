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

A decode step touches no per-request state. Every active request gains
exactly one token per step, so each gets a *finish mark* at admission:
the engine's decode-step count at which it completes. Last-token times
are kept per segment of rows that share one, so a step records one gap
run per segment. The jitter comes from a small per-engine buffer
refilled by one ``lognormal(size=32)`` call, which yields the values of
32 scalar draws. The plain counterpart,
:class:`repro.simulation.reference.ReferenceEngine`, walks the active
list one request at a time and draws each jitter value on its own; both
perform the same IEEE-754 double arithmetic, so their outputs are
bit-identical on pinned seeds (see ``tests/test_inference.py`` and the
golden pins in ``tests/test_simulation.py``);
``benchmarks/bench_core_speed.py`` enforces the equality and the
speedup.

Between an admission and a completion every decode step has the same
batch. When the caller promises (through
:attr:`ContinuousBatchingEngine.horizon`) that nothing reaches the
engine before some time, one ``step()`` call runs every decode step
that starts before it, up to and including the next completion, in one
scalar loop: again bit-identical to the one-step-at-a-time reference.
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
#: Jitter values one refill of an engine's noise buffer draws. 64 ran no
#: faster and raised perfbench pilot-pipeline peak RSS by about 0.2 MB.
_NOISE_BLOCK = 32
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
        # Jitter buffer, spent until the first draw refills it. Refills
        # copy into this one array: a new array per refill raised
        # perfbench fleet-closed-96 peak RSS by about 0.3 MB.
        self._noise_buf = np.empty(_NOISE_BLOCK)
        self._noise_at = _NOISE_BLOCK
        # Fault layer: a transient slowdown multiplies every step's cost.
        # Exactly 1.0 outside fault windows, where ``x * 1.0 == x`` in
        # IEEE-754 keeps fault-free runs bit-identical to an engine that
        # never heard of faults.
        self.slow_factor = 1.0
        # Decode runs (see _decode()): the caller's promise that nothing
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
        # Decode bookkeeping, none of it a simulated quantity. Finish
        # marks: self._active[i] completes when the count of decode steps
        # since the engine was built (stats reset at warmup; this does
        # not) reaches _marks[i]. _next_mark is the smallest mark, and
        # _seqs the total sequence count of the active batch.
        self._decode_count = 0
        self._marks: list[int] = []
        self._next_mark = 0
        self._seqs = 0
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

        A decode iteration runs on through every further decode step
        that starts before :attr:`horizon`, up to and including the step
        that completes the next request (see :meth:`_decode`). ``stats``
        counts each step the call simulated.
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
        (batch weight, KV residency, the finish marks) resets to
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
        self._marks = []
        self._seqs = 0
        self._admit_blocked = False
        self._admit_scanned_all = False
        return queued, active

    # ---- internals --------------------------------------------------------

    def _noise(self) -> float:
        """The next step's timing jitter, from the buffer."""
        i = self._noise_at
        if i == _NOISE_BLOCK:
            self._noise_buf[:] = self._rng.lognormal(
                0.0, _STEP_NOISE_SIGMA, _NOISE_BLOCK
            )
            i = 0
        self._noise_at = i + 1
        return float(self._noise_buf[i])

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
                self._mark(a)
        self.metrics.record_tokens(first_tokens, self._time)
        return completed

    def _mark(self, a: _Active) -> None:
        """Give a freshly admitted request, the newest active row, its
        finish mark and last-token segment."""
        row = len(self._marks)
        mark = self._decode_count + a.request.output_tokens - a.generated
        if row == 0:
            self._seg_rows = [0]
            self._seg_last = [a.last_token_at]
            self._next_mark = mark
        else:
            if a.last_token_at != self._seg_last[-1]:
                self._seg_rows.append(row)
                self._seg_last.append(a.last_token_at)
            self._next_mark = min(self._next_mark, mark)
        self._marks.append(mark)
        self._seqs += a.request.batch_size

    def _decode(self) -> list[RequestResult]:
        """Decode steps, each giving every active sequence one token.

        The first step always runs. Until the next completion the batch
        cannot change: no mark comes earlier, admission is blocked or
        the queue empty, and :attr:`horizon` rules out a submit. So
        further steps run in the same call while the clock is still
        before the horizon, up to and including the completing step.

        Each step is bit-identical to one of
        :meth:`repro.simulation.reference.ReferenceEngine._decode`: one
        noise draw, the same cost, the clock and busy time advanced with
        ``+=``, and the same gaps. The first step's gap is ``t - last``
        for each row segment, one run each in row order; every row's
        last token is then the previous step's, so a later step's gaps
        are one run of ``n``. Keep that recording order: ``mean_s`` sums
        the samples in it (see docs/architecture.md, "Production core
        vs reference").
        """
        stats = self.stats
        gap, tokens = self.metrics.gap_sink, self.metrics.record_tokens
        step_time, noise = self.cost.decode_step_time, self._noise
        n, n_seqs, kv = len(self._active), self._seqs, self._kv_tokens
        rows, lasts = self._seg_rows, self._seg_last
        left, horizon = self._next_mark - self._decode_count, self.horizon
        t, busy = self._time, stats.busy_time_s
        run = 0
        while True:
            dt = step_time(n_seqs, kv) * noise() * self.slow_factor
            last = t
            t += dt
            busy += dt
            kv += n_seqs
            run += 1
            if run == 1:
                for j in range(len(rows) - 1):
                    gap(t - lasts[j], rows[j + 1] - rows[j])
                gap(t - lasts[-1], n - rows[-1])
            else:
                gap(t - last, n)
            tokens(n_seqs, t)
            if run == left or t >= horizon:
                break
        self._time = t
        stats.busy_time_s = busy
        stats.steps += run - 1
        stats.decode_steps += run
        stats.tokens_generated += run * n_seqs
        self._kv_tokens = kv
        self._decode_count += run
        self._seg_rows = [0]
        self._seg_last = [t]
        if run < left:
            return []
        return self._complete()

    def _complete(self) -> list[RequestResult]:
        """Retire the active requests whose finish mark the decode count
        has reached, in active-list order."""
        count = self._decode_count
        completed: list[RequestResult] = []
        active: list[_Active] = []
        marks: list[int] = []
        for a, mark in zip(self._active, self._marks):
            if mark == count:
                self._seqs -= a.request.batch_size
                completed.append(self._finish(a))
            else:
                active.append(a)
                marks.append(mark)
        self._active, self._marks = active, marks
        self._next_mark = min(marks, default=0)
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
