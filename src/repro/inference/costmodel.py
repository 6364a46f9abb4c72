"""Analytic timing model for LLM inference on a GPU profile.

This is the heart of the hardware substitution (see docs/architecture.md):
instead of running TGIS on physical GPUs we compute step times from
first-order roofline terms, which reproduce the phenomena the paper
measures:

* the **prompt-processing (prefill) phase is compute-bound** (§V-B):
  time grows linearly with the number of prompt tokens processed, scaled
  by the profile's tensor-core throughput;
* the **decode phase is memory-bandwidth-bound**: each step streams the
  model weights plus the active KV cache from HBM, so inter-token
  latency is flat in batch size until the KV cache saturates memory and
  grows with it afterwards;
* **tensor parallelism** over g GPUs divides weight/KV traffic and
  compute by g but adds per-layer all-reduce time over NVLink or PCIe.

The constants (efficiencies, overheads) are fixed library-wide so that
cross-GPU comparisons depend only on datasheet numbers.
"""

from __future__ import annotations

from repro.hardware.profile import GPUProfile
from repro.models.llm import LLMSpec

__all__ = ["CostModel"]

#: Achieved fraction of peak tensor-core throughput, per phase.
_PREFILL_COMPUTE_EFFICIENCY = 0.45
_DECODE_COMPUTE_EFFICIENCY = 0.35
#: Achieved fraction of datasheet memory bandwidth.
MEMORY_BANDWIDTH_EFFICIENCY = 0.65
#: Fixed scheduler/kernel-launch overhead per engine step (seconds).
_STEP_OVERHEAD_BASE_S = 0.002
#: Additional per-layer launch overhead per step (seconds).
_STEP_OVERHEAD_PER_LAYER_S = 4.0e-5
#: Per-all-reduce latency for NVLink / PCIe interconnects (seconds).
_NVLINK_COLLECTIVE_LATENCY_S = 4.0e-6
_PCIE_COLLECTIVE_LATENCY_S = 1.6e-5
#: Fraction of weights streamed per decode step for encoder-decoder
#: models (the encoder does not run during decode).
_ENCODER_DECODER_DECODE_FRACTION = 0.6


class CostModel:
    """Timing model for one (LLM, GPU profile) pair."""

    def __init__(self, llm: LLMSpec, profile: GPUProfile) -> None:
        self.llm = llm
        self.profile = profile
        g = profile.count

        self._effective_tflops = profile.total_fp16_tflops * 1e12
        self._effective_bandwidth = (
            profile.total_memory_bandwidth_gbps * 1e9 * MEMORY_BANDWIDTH_EFFICIENCY
        )
        decode_frac = (
            _ENCODER_DECODER_DECODE_FRACTION if llm.is_encoder_decoder else 1.0
        )
        self._decode_weight_bytes = llm.weights_bytes * decode_frac

        # Tensor-parallel all-reduce cost: per token, each layer reduces the
        # activation vector across the group (ring all-reduce moves
        # 2*(g-1)/g of the payload through the slowest link).
        if g > 1:
            link_bw = profile.gpu.interconnect_bandwidth_gbps() * 1e9
            payload_factor = 2.0 * (g - 1) / g
            bytes_per_token_per_layer = llm.d_model * llm.bytes_per_param
            total_layers = llm.n_layers + llm.n_encoder_layers
            self._comm_bytes_per_token = (
                payload_factor * bytes_per_token_per_layer * total_layers
            )
            self._comm_bandwidth = link_bw
            latency = (
                _NVLINK_COLLECTIVE_LATENCY_S
                if profile.gpu.nvlink
                else _PCIE_COLLECTIVE_LATENCY_S
            )
            self._comm_latency_per_step = latency * payload_factor * total_layers
        else:
            self._comm_bytes_per_token = 0.0
            self._comm_bandwidth = 1.0
            self._comm_latency_per_step = 0.0

        self._step_overhead = (
            _STEP_OVERHEAD_BASE_S
            + _STEP_OVERHEAD_PER_LAYER_S * (llm.n_layers + llm.n_encoder_layers)
        )

        # decode_step_time runs once per simulated engine step — the
        # single hottest call in the whole simulator — so its per-call
        # constants are folded here. Each folded value is the *same*
        # float expression the method used to evaluate inline (same
        # operand order), so results stay bit-identical.
        self._decode_weight_read = (
            self._decode_weight_bytes / self._effective_bandwidth
        )
        self._decode_kv_bytes = self.llm.kv_bytes_per_token
        self._decode_flops = self.llm.flops_per_token
        self._decode_compute_denom = self._effective_tflops * _DECODE_COMPUTE_EFFICIENCY

    # ---- phases -----------------------------------------------------------

    def prefill_time(self, prompt_tokens: int) -> float:
        """Seconds to run the prompt-processing phase over ``prompt_tokens``
        total tokens (summed over the admitted requests). Compute-bound."""
        if prompt_tokens < 0:
            raise ValueError("prompt_tokens must be >= 0")
        flops = self.llm.flops_per_token * prompt_tokens
        compute = flops / (self._effective_tflops * _PREFILL_COMPUTE_EFFICIENCY)
        comm = (
            self._comm_bytes_per_token * prompt_tokens / self._comm_bandwidth
            + self._comm_latency_per_step
        )
        return compute + comm + self._step_overhead

    def decode_step_time(self, n_seqs: int, kv_tokens: int) -> float:
        """Seconds for one decode step generating one token per sequence.

        ``n_seqs`` is the number of sequences in the batch (client-side
        batch entries included); ``kv_tokens`` the total tokens resident
        in the KV cache. Memory-bandwidth-bound with a compute term that
        becomes relevant for large batches on weak GPUs.
        """
        if n_seqs < 0 or kv_tokens < 0:
            raise ValueError("n_seqs and kv_tokens must be >= 0")
        kv_read = kv_tokens * self._decode_kv_bytes / self._effective_bandwidth
        compute = self._decode_flops * n_seqs / self._decode_compute_denom
        comm = (
            self._comm_bytes_per_token * n_seqs / self._comm_bandwidth
            + self._comm_latency_per_step
        )
        return self._decode_weight_read + kv_read + compute + comm + self._step_overhead
