"""The workload generator (paper §III-B) and a trace-replay comparator.

``WorkloadGenerator`` wraps the joint :class:`RequestModel` and produces
:class:`InferenceRequest` objects whose token counts and batch sizes
follow the empirical joint distribution of the production traces.
``TraceReplaySampler`` implements the obvious alternative — drawing raw
past requests directly from the trace store — which the paper compares
against for storage footprint and sampling speed (§V-A: the generator
is ~35x faster and <1MB vs 1.6GB).
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

from repro.inference.request import InferenceRequest
from repro.traces.schema import TraceDataset
from repro.utils.rng import as_rng
from repro.workload.binning import DEFAULT_N_BINS
from repro.workload.model import RequestModel

__all__ = ["WorkloadGenerator", "TraceReplaySampler"]


class WorkloadGenerator:
    """Produces realistic inference requests from a fitted request model."""

    def __init__(
        self,
        model: RequestModel,
        independent: bool = False,
    ) -> None:
        self.model = model
        #: When True, parameters are sampled from independent marginals —
        #: the §V-A ablation that loses cross-parameter correlation.
        self.independent = independent
        for required in ("input_tokens", "output_tokens"):
            if required not in model.params:
                raise ValueError(f"request model must include {required!r}")

    @classmethod
    def fit(
        cls,
        traces: TraceDataset,
        params: list[str] | None = None,
        n_bins: int = DEFAULT_N_BINS,
        independent: bool = False,
    ) -> "WorkloadGenerator":
        """Fit the internal request model to a trace collection."""
        model = RequestModel.fit(traces, params=params, n_bins=n_bins)
        return cls(model, independent=independent)

    # ---- batch sampling --------------------------------------------------

    def sample_columns(
        self, n: int, rng: np.random.Generator | int | None = None
    ) -> dict[str, np.ndarray]:
        """Vectorized draw of ``n`` requests as a column dict."""
        return self.model.sample(n, rng=rng, independent=self.independent)

    def max_request_weight(self) -> int:
        """Largest request weight this generator can emit in joint mode."""
        return self.model.max_request_weight()

    def sample_requests(
        self,
        n: int,
        rng: np.random.Generator | int | None = None,
        first_id: int = 0,
        max_weight: int | None = None,
    ) -> list[InferenceRequest]:
        """Draw ``n`` :class:`InferenceRequest` objects.

        ``max_weight`` optionally truncates requests whose weight exceeds
        the server's maximum batch weight (the platform-side truncation a
        real server applies). Joint-mode sampling never needs it when the
        server was tuned against this generator; independent-mode sampling
        can exceed the joint maximum, which is one of its distortions.
        """
        columns = self._token_columns(n, as_rng(rng), max_weight)
        return list(_requests(first_id, *columns))

    def _token_columns(
        self, n: int, rng: np.random.Generator, max_weight: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Input tokens, output tokens and batch sizes of ``n`` requests
        drawn as one column draw (see :meth:`sample_requests`)."""
        cols = self.sample_columns(n, rng=rng)
        inp = np.maximum(cols["input_tokens"].astype(int), 1)
        out = np.maximum(cols["output_tokens"].astype(int), 1)
        batch = (
            np.maximum(cols["batch_size"].astype(int), 1)
            if "batch_size" in cols
            else np.ones(n, dtype=int)
        )
        if max_weight is not None:
            # Shrink generation budget first, then the prompt, to fit.
            per_seq = np.maximum(max_weight // batch, 2)
            out = np.minimum(out, np.maximum(per_seq - inp, 1))
            inp = np.minimum(inp, per_seq - out)
            inp = np.maximum(inp, 1)
        return inp, out, batch

    def request_stream(
        self, rng: np.random.Generator | int | None = None, chunk: int = 256
    ) -> Iterator[InferenceRequest]:
        """Infinite stream of requests (used by closed-loop user pools).

        Requests are drawn ``chunk`` at a time, in one column draw when
        the first of a chunk is taken, so every later draw from ``rng``
        is fixed by the chunk size; each request is built only when it
        is taken, and between takes the stream holds just the chunk's
        three token columns.
        """
        rng = as_rng(rng)
        next_id = 0
        while True:
            yield from _requests(next_id, *self._token_columns(chunk, rng))
            next_id += chunk

    # ---- reporting ---------------------------------------------------------

    def nbytes(self) -> int:
        """Storage footprint of the generator (§V-A size comparison)."""
        return self.model.nbytes()


def _requests(
    first_id: int, inp: np.ndarray, out: np.ndarray, batch: np.ndarray
) -> Iterator[InferenceRequest]:
    """One request per row of the token columns, each built when taken."""
    for i in range(len(inp)):
        yield InferenceRequest(
            request_id=first_id + i,
            input_tokens=int(inp[i]),
            output_tokens=int(out[i]),
            batch_size=int(batch[i]),
        )


class TraceReplaySampler:
    """Samples raw past requests directly from the trace collection.

    This is the baseline the paper compares the workload generator
    against: it requires keeping the full trace store and constructs each
    request record row by row, the way a replay harness reading a trace
    database would.
    """

    def __init__(self, traces: TraceDataset) -> None:
        if len(traces) == 0:
            raise ValueError("cannot sample from an empty trace collection")
        self.traces = traces
        self._params = traces.param_names()

    def sample_requests(
        self, n: int, rng: np.random.Generator | int | None = None, first_id: int = 0
    ) -> list[InferenceRequest]:
        rng = as_rng(rng)
        rows = rng.integers(0, len(self.traces), size=n)
        cols = self.traces.columns
        requests = []
        for i, r in enumerate(rows):
            # Row-oriented record construction (deliberately mirrors reading
            # one trace entry at a time from the store).
            record = {p: cols[p][r] for p in self._params}
            requests.append(
                InferenceRequest(
                    request_id=first_id + i,
                    input_tokens=max(int(record["input_tokens"]), 1),
                    output_tokens=max(int(record["output_tokens"]), 1),
                    batch_size=max(int(record.get("batch_size", 1)), 1),
                )
            )
        return requests

    def nbytes(self) -> int:
        """Footprint of the trace store this sampler must retain."""
        return self.traces.nbytes()
