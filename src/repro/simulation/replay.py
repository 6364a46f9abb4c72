"""Trace-replay traffic: drive simulations from recorded arrival logs.

The synthetic traffic models answer "what if arrivals looked like X";
replay answers the sizing question the paper actually poses — what
happens to *this* fleet under the arrival process a production platform
actually recorded. The pieces:

* an :class:`ArrivalLog` is the minimal columnar arrival schema —
  per-request timestamp, input/output token counts, client batch size,
  optional tenant and session ids. It loads from plain CSV or JSONL
  files, or bridges from a :class:`~repro.traces.schema.TraceDataset`
  via :meth:`ArrivalLog.from_trace` (which delegates the selection and
  time-rebasing to ``TraceDataset.to_arrivals``);
* logs are transformed, not mutated: :meth:`ArrivalLog.warp` time-warps
  by a speed-up factor (a months-long trace compresses into a
  simulatable window), :meth:`ArrivalLog.clip` cuts the horizon, and
  :meth:`ArrivalLog.bootstrap` resamples requests and inter-arrival
  gaps with a fixed seed to scale a trace up or down while preserving
  its marginal shapes;
* :class:`ReplayTraffic` is the
  :class:`~repro.simulation.traffic.TrafficModel` that feeds a log's
  arrivals to the :class:`~repro.simulation.fleet.FleetSimulator` —
  requests carry the log's own token counts (and therefore their
  recorded weight) into routing, which is what makes weight-aware
  routing (:class:`~repro.simulation.fleet.WeightAwareRouter`)
  possible: the front end can see each request's cost, not just the
  queue depths behind it.

Replay is open-loop and fully deterministic: two runs over the same log
produce identical arrival sequences, which is what lets the elastic
recommender sweep candidates against a replayed trace as a controlled
experiment.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.simulation.traffic import RequestSource, TrafficModel
from repro.utils.rng import as_rng

if TYPE_CHECKING:  # import cycle: the engine itself imports this package
    from repro.inference.request import InferenceRequest
    from repro.traces.schema import TraceDataset

__all__ = ["ArrivalLog", "RecordedTraffic", "ReplayTraffic"]

#: Columns a CSV/JSONL arrival log may carry, in canonical order.
_REQUIRED_COLUMNS = ("timestamp", "input_tokens", "output_tokens")
_OPTIONAL_COLUMNS = ("batch_size", "tenant", "session")
#: The largest token or batch count a log may hold: counts are int64.
_MAX_COUNT = np.iinfo(np.int64).max


@dataclass
class ArrivalLog:
    """A recorded arrival process: one request per row, sorted by time.

    ``times_s`` is rebased so the first arrival lands at t=0 (what a
    simulation window expects); ``tenant`` and ``session`` are optional
    string/int identity columns carried through transformations, so one
    platform-wide log can be split per tenant for the cluster
    co-simulation (:meth:`for_tenant`).
    """

    times_s: np.ndarray
    input_tokens: np.ndarray
    output_tokens: np.ndarray
    batch_size: np.ndarray | None = None
    tenant: np.ndarray | None = None
    session: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.times_s = np.asarray(self.times_s, dtype=np.float64)
        self.input_tokens = np.asarray(self.input_tokens, dtype=np.int64)
        self.output_tokens = np.asarray(self.output_tokens, dtype=np.int64)
        if self.batch_size is None:
            self.batch_size = np.ones(self.times_s.size, dtype=np.int64)
        else:
            self.batch_size = np.asarray(self.batch_size, dtype=np.int64)
        n = self.times_s.size
        for name in ("input_tokens", "output_tokens", "batch_size"):
            col = getattr(self, name)
            if col.size != n:
                raise ValueError(
                    f"ragged arrival log: {name} has {col.size} rows, "
                    f"timestamps {n}"
                )
            if n and col.min() < 1:
                raise ValueError(f"{name} must be >= 1 everywhere")
        for name in ("tenant", "session"):
            col = getattr(self, name)
            if col is not None:
                col = np.asarray(col)
                setattr(self, name, col)
                if col.size != n:
                    raise ValueError(
                        f"ragged arrival log: {name} has {col.size} rows, "
                        f"timestamps {n}"
                    )
        if n:
            if np.any(np.diff(self.times_s) < 0):
                raise ValueError("arrival times must be sorted ascending")
            if self.times_s[0] < 0:
                raise ValueError("arrival times must be >= 0")

    # ---- basic accessors --------------------------------------------------

    def __len__(self) -> int:
        return int(self.times_s.size)

    @property
    def duration_s(self) -> float:
        """Span from the first to the last arrival (0 for <2 rows)."""
        if len(self) < 2:
            return 0.0
        return float(self.times_s[-1] - self.times_s[0])

    @property
    def mean_rate_per_s(self) -> float:
        """Mean arrival rate over the log's span (NaN when undefined)."""
        span = self.duration_s
        if span <= 0:
            return float("nan")
        return (len(self) - 1) / span

    @property
    def weights(self) -> np.ndarray:
        """Per-request cost: ``(input + output tokens) * batch_size``."""
        return (self.input_tokens + self.output_tokens) * self.batch_size

    def select(self, mask: np.ndarray) -> "ArrivalLog":
        """Row subset (boolean mask or index array), times rebased to 0."""
        times = self.times_s[mask]
        return ArrivalLog(
            times_s=times - (times[0] if times.size else 0.0),
            input_tokens=self.input_tokens[mask],
            output_tokens=self.output_tokens[mask],
            batch_size=self.batch_size[mask],
            tenant=None if self.tenant is None else self.tenant[mask],
            session=None if self.session is None else self.session[mask],
        )

    def for_tenant(self, name: str) -> "ArrivalLog":
        """The rows recorded for one tenant (requires a tenant column)."""
        if self.tenant is None:
            raise ValueError("arrival log has no tenant column")
        return self.select(self.tenant.astype(str) == str(name))

    # ---- transformations --------------------------------------------------

    def warp(self, speedup: float) -> "ArrivalLog":
        """Time-warp: divide every arrival time by ``speedup``.

        ``speedup > 1`` compresses the log (a 5-month trace replayed in
        minutes); ``< 1`` stretches it. Token counts are untouched, so
        warping raises the *offered load*, not the per-request work.
        """
        if speedup <= 0:
            raise ValueError(f"speedup must be positive, got {speedup}")
        return ArrivalLog(
            times_s=self.times_s / speedup,
            input_tokens=self.input_tokens,
            output_tokens=self.output_tokens,
            batch_size=self.batch_size,
            tenant=self.tenant,
            session=self.session,
        )

    def warp_to_rate(self, rate_per_s: float) -> "ArrivalLog":
        """Warp so the mean arrival rate becomes ``rate_per_s``."""
        if rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {rate_per_s}")
        current = self.mean_rate_per_s
        if not np.isfinite(current) or current <= 0:
            raise ValueError(
                "cannot rescale a log whose mean arrival rate is not a "
                f"positive finite number: {len(self)} arrival(s) spanning "
                f"{self.duration_s:g}s give a mean rate of {current:g}/s"
            )
        return self.warp(rate_per_s / current)

    def clip(self, horizon_s: float) -> "ArrivalLog":
        """Keep only the arrivals in the first ``horizon_s`` seconds.

        The window is half-open — ``[0, horizon_s)`` — to match the
        simulation horizon, so an arrival stamped exactly at the horizon
        belongs to the *next* window and is dropped, never replayed
        twice by clip-then-replay flows.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s}")
        return self.select(self.times_s < horizon_s)

    def bootstrap(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        rate_per_s: float | None = None,
    ) -> "ArrivalLog":
        """Seeded resample: ``n`` arrivals drawn from this log's rows.

        Request parameters (token counts, batch, identity columns) and
        inter-arrival gaps are bootstrapped independently with
        replacement, so the resampled log preserves the original's
        marginal request-size and gap distributions at any scale.
        ``rate_per_s`` additionally rescales the resampled times to that
        mean rate. Deterministic for a fixed seed.
        """
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        if len(self) == 0:
            raise ValueError("cannot bootstrap an empty log")
        rng = as_rng(rng)
        rows = rng.integers(0, len(self), size=n)
        gaps = np.diff(self.times_s)
        if gaps.size == 0:
            gaps = np.array([1.0])
        times = np.concatenate(
            [[0.0], np.cumsum(rng.choice(gaps, size=n - 1, replace=True))]
        )
        resampled = ArrivalLog(
            times_s=times,
            input_tokens=self.input_tokens[rows],
            output_tokens=self.output_tokens[rows],
            batch_size=self.batch_size[rows],
            tenant=None if self.tenant is None else self.tenant[rows],
            session=None if self.session is None else self.session[rows],
        )
        if rate_per_s is not None:
            resampled = resampled.warp_to_rate(rate_per_s)
        return resampled

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_columns(cls, columns: dict[str, np.ndarray]) -> "ArrivalLog":
        """Build from raw columns: sorts by timestamp and rebases to 0."""
        for required in _REQUIRED_COLUMNS:
            if required not in columns:
                raise ValueError(f"arrival log missing column {required!r}")
        ts = np.asarray(columns["timestamp"], dtype=np.float64)
        order = np.argsort(ts, kind="stable")
        ts = ts[order]

        def col(name):
            value = columns.get(name)
            return None if value is None else np.asarray(value)[order]

        return cls(
            times_s=ts - (ts[0] if ts.size else 0.0),
            input_tokens=col("input_tokens"),
            output_tokens=col("output_tokens"),
            batch_size=col("batch_size"),
            tenant=col("tenant"),
            session=col("session"),
        )

    @classmethod
    def from_trace(
        cls,
        traces: "TraceDataset",
        llm: str | int | None = None,
        start_s: float | None = None,
        duration_s: float | None = None,
    ) -> "ArrivalLog":
        """Bridge from the trace layer: replay what a platform recorded.

        Delegates selection (one LLM or the whole platform, an optional
        absolute-time window) and time-rebasing to
        :meth:`~repro.traces.schema.TraceDataset.to_arrivals`; the trace
        ``user_id`` becomes the log's session column.
        """
        cols = traces.to_arrivals(llm=llm, start_s=start_s, duration_s=duration_s)
        return cls(
            times_s=cols["timestamp"],
            input_tokens=cols["input_tokens"],
            output_tokens=cols["output_tokens"],
            batch_size=cols["batch_size"],
            session=cols["user_id"],
        )

    # ---- persistence ------------------------------------------------------

    def _rows(self):
        """Canonical per-row dicts (only the columns this log carries)."""
        for i in range(len(self)):
            row = {
                "timestamp": float(self.times_s[i]),
                "input_tokens": int(self.input_tokens[i]),
                "output_tokens": int(self.output_tokens[i]),
                "batch_size": int(self.batch_size[i]),
            }
            if self.tenant is not None:
                row["tenant"] = str(self.tenant[i])
            if self.session is not None:
                row["session"] = str(self.session[i])
            yield row

    def save(self, path: str) -> None:
        """Write as ``.csv`` or ``.jsonl`` (chosen by file extension)."""
        if _is_jsonl(path):
            with open(path, "w") as fh:
                for row in self._rows():
                    fh.write(json.dumps(row) + "\n")
            return
        if not path.endswith(".csv"):
            raise ValueError(f"unsupported arrival-log extension: {path!r}")
        fields = ["timestamp", "input_tokens", "output_tokens", "batch_size"]
        if self.tenant is not None:
            fields.append("tenant")
        if self.session is not None:
            fields.append("session")
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields)
            writer.writeheader()
            for row in self._rows():
                writer.writerow(row)

    @classmethod
    def load(cls, path: str) -> "ArrivalLog":
        """Read a ``.csv`` or ``.jsonl`` arrival log.

        The schema is deliberately plain so real platform logs can be
        exported with one query: required columns ``timestamp`` (seconds,
        any epoch — times are rebased), ``input_tokens``,
        ``output_tokens``; optional ``batch_size`` (missing/blank rows
        default to 1), ``tenant`` and ``session`` (missing/blank rows
        default to ``""``, and the column is kept if *any* row has it).
        Token and batch counts lie between 1 and 2**63 - 1; a bad row
        raises a :class:`ValueError` naming the file, column and row.
        """
        if _is_jsonl(path):
            with open(path) as fh:
                try:
                    records = [json.loads(line) for line in fh if line.strip()]
                except json.JSONDecodeError as exc:
                    raise ValueError(
                        f"arrival log {path!r}: invalid JSON: {exc}"
                    ) from exc
            for i, record in enumerate(records):
                if not isinstance(record, dict):
                    raise ValueError(
                        f"arrival log {path!r}: row {i}: expected an object "
                        f"with column 'timestamp', got {record!r}"
                    )
        elif path.endswith(".csv"):
            with open(path, newline="") as fh:
                records = list(csv.DictReader(fh))
        else:
            raise ValueError(f"unsupported arrival-log extension: {path!r}")
        if not records:
            raise ValueError(f"empty arrival log: {path!r}")

        def number(name: str, row: int, raw) -> float:
            try:
                value = float(raw)
            except (TypeError, ValueError):
                value = math.nan
            if not math.isfinite(value):
                raise ValueError(
                    f"arrival log {path!r}: column {name!r}, row {row}: "
                    f"expected a finite number, got {raw!r}"
                )
            return value

        def count(name: str, row: int, raw) -> int:
            value = number(name, row, raw)
            if not 1 <= value <= _MAX_COUNT:
                raise ValueError(
                    f"arrival log {path!r}: column {name!r}, row {row}: "
                    f"expected a count from 1 to 2**63 - 1, got {raw!r}"
                )
            return int(value)

        columns: dict[str, list] = {}
        for name in _REQUIRED_COLUMNS:
            missing = next(
                (i for i, r in enumerate(records) if r.get(name) in (None, "")),
                None,
            )
            if missing is not None:
                raise ValueError(
                    f"arrival log {path!r} missing column {name!r} (row {missing})"
                )
            convert = number if name == "timestamp" else count
            columns[name] = [convert(name, i, r[name]) for i, r in enumerate(records)]
        for name in _OPTIONAL_COLUMNS:
            if any(r.get(name) not in (None, "") for r in records):
                default = 1 if name == "batch_size" else ""
                columns[name] = [
                    default if r.get(name) in (None, "") else r[name]
                    for r in records
                ]
        if "batch_size" in columns:
            columns["batch_size"] = [
                count("batch_size", i, b) for i, b in enumerate(columns["batch_size"])
            ]
        return cls.from_columns({k: np.asarray(v) for k, v in columns.items()})


def _is_jsonl(path: str) -> bool:
    return path.endswith((".jsonl", ".ndjson"))


class ReplayTraffic(TrafficModel):
    """Open-loop traffic that replays a recorded :class:`ArrivalLog`.

    Arrivals are scheduled at exactly the log's (optionally time-warped
    and horizon-clipped) timestamps, and each request carries the log's
    own token counts and client batch size — so its weight, the cost a
    weight-aware front end routes on, is the recorded one rather than a
    fresh draw from the workload generator. Requests exceeding the
    serving platform's maximum batch weight are truncated
    proportionally, mirroring the platform-side truncation the
    synthetic :class:`~repro.simulation.traffic.RequestSource` applies.
    """

    name = "replay"

    def __init__(
        self,
        log: ArrivalLog,
        speedup: float = 1.0,
        horizon_s: float | None = None,
    ) -> None:
        if speedup != 1.0:
            log = log.warp(speedup)
        if horizon_s is not None:
            log = log.clip(horizon_s)
        if len(log) == 0:
            raise ValueError("replay log has no arrivals inside the horizon")
        self.log = log
        self.speedup = float(speedup)
        self._i = 0
        self._next_id = 0

    def peek(self) -> float | None:
        """Time of the next replayed arrival (None once exhausted)."""
        if self._i >= len(self.log):
            return None
        return float(self.log.times_s[self._i])

    def pop(self, source: RequestSource) -> tuple[float, "InferenceRequest"]:
        """Consume the next arrival as ``(time, request)`` from the log.

        ``source`` supplies only the platform's max batch weight (for
        truncation); requests are built from the log's own columns, not
        drawn from the workload stream.
        """
        from repro.inference.request import InferenceRequest

        t = self.peek()
        if t is None:
            raise RuntimeError("replay log exhausted")
        i = self._i
        inp = int(self.log.input_tokens[i])
        out = int(self.log.output_tokens[i])
        # Platform-side truncation: clamp the client batch first (a
        # batch alone can exceed the weight cap), then scale the token
        # counts proportionally so the recorded input/output shape
        # survives. The per-element budget keeps the final weight
        # under the cap even after the >=1-token floors.
        batch = min(int(self.log.batch_size[i]), max(1, source.max_weight // 2))
        if (inp + out) * batch > source.max_weight:
            budget = source.max_weight // batch
            scale = budget / (inp + out)
            inp = max(1, int(inp * scale))
            out = max(1, int(out * scale))
            if inp + out > budget:
                inp = max(1, budget - 1)
                out = max(1, budget - inp)
        request = InferenceRequest(
            request_id=self._next_id,
            input_tokens=inp,
            output_tokens=out,
            batch_size=batch,
        )
        self._i += 1
        self._next_id += 1
        return t, request


class RecordedTraffic(TrafficModel):
    """A pre-materialized open-loop arrival stream, replayable for free.

    Candidate sweeps (:class:`~repro.recommendation.elastic.ElasticRecommender`)
    run the *identical* seeded arrival process against every candidate —
    which today means regenerating it from scratch per candidate: every
    inter-arrival draw, every workload-stream token draw, repeated N
    times for N candidates. :meth:`record` runs the generation exactly
    once — draining a factory-fresh traffic model through the same
    ``peek``/``pop`` protocol the fleet loop uses, against the same
    seeded :class:`~repro.simulation.traffic.RequestSource` the
    deployment would hand that fleet — and captures the resulting
    ``(time, request)`` sequence. :meth:`replay` then mints cursors that
    walk the shared arrays, one per candidate, at zero generation cost;
    forked sweep workers inherit the arrays through fork.

    Bit-identity argument: an open-loop model's arrivals are consumed in
    time order by ``pop``, its ``initial_arrivals`` population is empty
    and ``on_complete`` never fires — so the workload stream's RNG is
    consumed *only* by the pops, in the same order, whether they happen
    during recording or inside a simulation. The fleet never materializes
    scheduled arrivals at or beyond its horizon (``warmup + duration``),
    so recording up to the same horizon reproduces exactly the arrivals
    a fresh model would have delivered — and after exhaustion
    :meth:`peek` returns ``None``, just as a fresh model past the
    horizon behaves. Replayed requests are shared objects; the engine
    treats requests as immutable, so sharing is safe.
    """

    def __init__(
        self,
        name: str,
        times_s: "list[float]",
        requests: "list[InferenceRequest]",
        sticky: bool = False,
    ) -> None:
        self.name = str(name)
        self.sticky = bool(sticky)
        self._times = times_s
        self._requests = requests
        self._i = 0

    @classmethod
    def record(
        cls, traffic: TrafficModel, source: RequestSource, horizon_s: float
    ) -> "RecordedTraffic":
        """Drain ``traffic`` up to ``horizon_s`` into a replayable stream.

        ``traffic`` must be purely open-loop (no t=0 population, no
        completion-driven follow-ups) — those hooks depend on simulation
        state that recording cannot observe, so a model that overrides
        them cannot be captured as a fixed sequence.
        """
        if horizon_s <= 0:
            raise ValueError(f"horizon_s must be positive, got {horizon_s}")
        kind = type(traffic)
        if (
            kind.initial_arrivals is not TrafficModel.initial_arrivals
            or kind.on_complete is not TrafficModel.on_complete
        ):
            raise ValueError(
                f"cannot record {traffic.name!r} traffic: only purely "
                "open-loop (scheduled-arrival) models replay as a fixed "
                "sequence"
            )
        times: list[float] = []
        requests: list["InferenceRequest"] = []
        while True:
            t = traffic.peek()
            if t is None or t >= horizon_s:
                break
            t, request = traffic.pop(source)
            times.append(float(t))
            requests.append(request)
        return cls(traffic.name, times, requests, sticky=traffic.sticky)

    def replay(self) -> "RecordedTraffic":
        """A fresh cursor over the shared recorded arrays."""
        return RecordedTraffic(self.name, self._times, self._requests, self.sticky)

    def __len__(self) -> int:
        return len(self._times)

    def peek(self) -> float | None:
        """Time of the next recorded arrival (None once exhausted)."""
        if self._i >= len(self._times):
            return None
        return self._times[self._i]

    def pop(self, source: RequestSource) -> tuple[float, "InferenceRequest"]:
        """The next recorded ``(time, request)``; ``source`` is unused.

        The weight cap was already applied when the stream was recorded
        (by the model that generated it), so the replayed request is
        byte-identical to what a fresh model would have built.
        """
        i = self._i
        if i >= len(self._times):
            raise RuntimeError("recorded traffic exhausted")
        self._i = i + 1
        return self._times[i], self._requests[i]
