"""GPU memory accounting and OOM semantics.

Feasibility (Table III) and batch-weight tuning (§III-C2) both reduce to
one question: does a given batch fit in the profile's aggregate memory
after the weights are loaded? The model accounts for:

* model weights (serving precision),
* the KV cache of the batch (batch weight x per-token KV bytes),
* activation workspace of the largest prefill chunk — quadratic in the
  prompt length for models served without flash attention, linear with it,
* a fixed CUDA/runtime reserve.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.profile import GPUProfile
from repro.models.llm import LLMSpec

__all__ = ["MemoryModel", "CornerCaseBatch", "corner_case_batches"]

_GB = 1e9

#: The longest prompt the workload generator produces (the traces'
#: input-token clip): the prompt the corner-case batches must prefill.
MAX_INPUT_TOKENS = 4093
#: Fraction of physical memory usable by the serving runtime.
_USABLE_FRACTION = 0.96
#: Fixed runtime reserve per GPU (CUDA context, NCCL buffers...).
_RUNTIME_RESERVE_GB = 1.7
#: Linear activation bytes per prefill token, as a multiple of d_model
#: times the parameter byte width.
_ACTIVATION_MULTIPLIER = 28.0
#: Workspace bytes per attention-score element for non-flash models
#: (one layer's scores materialized at a time).
_ATTENTION_SCORE_BYTES = 2.0
#: Every request generates at least one token.
_MIN_OUTPUT_TOKENS = 1


@dataclass(frozen=True)
class CornerCaseBatch:
    """A worst-case batch composition for a candidate batch weight.

    ``n_requests`` requests, each with ``input_tokens`` prompt tokens and
    ``output_tokens`` generation budget; total weight is their sum.
    """

    name: str
    n_requests: int
    input_tokens: int
    output_tokens: int

    @property
    def total_weight(self) -> int:
        return self.n_requests * (self.input_tokens + self.output_tokens)

    @property
    def max_prefill_tokens(self) -> int:
        """Largest single-request prompt the server must prefill."""
        return self.input_tokens


class MemoryModel:
    """Memory accounting for one (LLM, GPU profile) pair."""

    def __init__(self, llm: LLMSpec, profile: GPUProfile) -> None:
        self.llm = llm
        self.profile = profile

    # ---- capacity ----------------------------------------------------------

    @property
    def capacity_bytes(self) -> float:
        """Usable aggregate memory after the runtime reserve."""
        total = self.profile.total_memory_gb * _GB * _USABLE_FRACTION
        return total - _RUNTIME_RESERVE_GB * _GB * self.profile.count

    @property
    def weights_fit(self) -> bool:
        return self.llm.weights_bytes <= self.capacity_bytes

    # ---- usage -----------------------------------------------------------------

    def activation_bytes(self, prefill_tokens: int) -> float:
        """Peak activation workspace for a prefill over ``prefill_tokens``."""
        linear = (
            _ACTIVATION_MULTIPLIER
            * self.llm.d_model
            * self.llm.bytes_per_param
            * prefill_tokens
        )
        if self.llm.uses_flash_attention:
            return linear
        # Non-flash attention materializes the (T x T) score matrix per head
        # for one layer at a time.
        quadratic = (
            _ATTENTION_SCORE_BYTES
            * self.llm.n_heads
            * float(prefill_tokens) ** 2
        )
        return linear + quadratic

    def batch_usage_bytes(self, batch: CornerCaseBatch) -> float:
        """Peak memory used by weights + KV + activations for ``batch``."""
        kv = batch.total_weight * self.llm.kv_bytes_per_token
        act = self.activation_bytes(batch.max_prefill_tokens)
        return self.llm.weights_bytes + kv + act

    def would_oom(self, batch: CornerCaseBatch) -> bool:
        return self.batch_usage_bytes(batch) > self.capacity_bytes


def corner_case_batches(max_batch_weight: int) -> list[CornerCaseBatch]:
    """Worst-case batch compositions for a candidate batch weight.

    Mirrors the paper's tuning step (§III-C2): "a sequence of batches ...
    designed to test all possible corner cases, with respect to the batch
    size, number of input and output tokens, that can be constructed
    according to the given maximum batch weight".
    """
    if max_batch_weight < 2:
        raise ValueError("max_batch_weight must be >= 2")
    cases = []

    # (1) One request using the whole weight with the longest legal prompt:
    # stresses prefill activations.
    inp = min(MAX_INPUT_TOKENS, max_batch_weight - _MIN_OUTPUT_TOKENS)
    cases.append(
        CornerCaseBatch(
            name="single-long-prompt",
            n_requests=1,
            input_tokens=inp,
            output_tokens=max_batch_weight - inp,
        )
    )

    # (2) One request that is almost all generation: stresses KV growth.
    cases.append(
        CornerCaseBatch(
            name="single-long-generation",
            n_requests=1,
            input_tokens=1,
            output_tokens=max_batch_weight - 1,
        )
    )

    # (3) Many minimal requests filling the weight: stresses batch size.
    n = max_batch_weight // 2
    cases.append(
        CornerCaseBatch(
            name="many-small", n_requests=n, input_tokens=1, output_tokens=1
        )
    )

    # (4) Balanced medium requests (typical shape at full weight).
    per_req = 512
    n_bal = max(1, max_batch_weight // per_req)
    cases.append(
        CornerCaseBatch(
            name="balanced",
            n_requests=n_bal,
            input_tokens=per_req // 2,
            output_tokens=per_req - per_req // 2,
        )
    )
    return cases
