"""Inference request and response records used by the simulator."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["InferenceRequest", "RequestResult"]


@dataclass
class InferenceRequest:
    """One inference request as submitted by a client.

    ``input_tokens``/``output_tokens`` are the ground-truth token counts
    of the request (the simulator, like a real benchmark harness, forces
    the generation length via min/max-new-tokens so experiments are
    reproducible), and ``batch_size`` is the client-side batch. Nothing
    downstream reads the other request parameters (decoding method,
    temperature, ...), so a request carries only these counts; the
    request model still draws every parameter jointly to shape them.
    """

    request_id: int
    input_tokens: int
    output_tokens: int
    batch_size: int = 1

    def __post_init__(self) -> None:
        if self.input_tokens < 1:
            raise ValueError(f"input_tokens must be >= 1, got {self.input_tokens}")
        if self.output_tokens < 1:
            raise ValueError(f"output_tokens must be >= 1, got {self.output_tokens}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")

    @property
    def weight(self) -> int:
        """The request's contribution to the batch weight: total input plus
        output tokens (paper §II-B), times the client-side batch size."""
        return (self.input_tokens + self.output_tokens) * self.batch_size


@dataclass
class RequestResult:
    """Completion record of one request (client-side timestamps)."""

    request: InferenceRequest
    submitted_at: float
    first_token_at: float
    finished_at: float

    @property
    def ttft(self) -> float:
        """Time to first token: queueing + prompt-processing latency."""
        return self.first_token_at - self.submitted_at

    @property
    def e2e_latency(self) -> float:
        return self.finished_at - self.submitted_at
