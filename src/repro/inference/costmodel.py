"""Analytic timing model for LLM inference on a GPU profile.

This is the heart of the hardware substitution (see DESIGN.md): instead
of running TGIS on physical GPUs we compute step times from first-order
roofline terms, which reproduce the phenomena the paper measures:

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

from dataclasses import dataclass

from repro.hardware.profile import GPUProfile
from repro.models.llm import LLMSpec

__all__ = ["CostModel", "CostModelConfig"]


@dataclass(frozen=True)
class CostModelConfig:
    """Tunable constants of the analytic model."""

    prefill_compute_efficiency: float = 0.45
    decode_compute_efficiency: float = 0.35
    memory_bandwidth_efficiency: float = 0.65
    #: Fixed scheduler/kernel-launch overhead per engine step (seconds).
    step_overhead_base_s: float = 0.002
    #: Additional per-layer launch overhead per step (seconds).
    step_overhead_per_layer_s: float = 4.0e-5
    #: Per-all-reduce latency for NVLink / PCIe interconnects (seconds).
    nvlink_collective_latency_s: float = 4.0e-6
    pcie_collective_latency_s: float = 1.6e-5
    #: Fraction of weights streamed per decode step for encoder-decoder
    #: models (the encoder does not run during decode).
    encoder_decoder_decode_fraction: float = 0.6

    def __post_init__(self) -> None:
        for name in (
            "prefill_compute_efficiency",
            "decode_compute_efficiency",
            "memory_bandwidth_efficiency",
        ):
            v = getattr(self, name)
            if not 0.0 < v <= 1.0:
                raise ValueError(f"{name} must be in (0, 1], got {v}")


class CostModel:
    """Timing model for one (LLM, GPU profile) pair."""

    def __init__(
        self,
        llm: LLMSpec,
        profile: GPUProfile,
        config: CostModelConfig | None = None,
    ) -> None:
        self.llm = llm
        self.profile = profile
        self.config = config or CostModelConfig()
        cfg = self.config
        g = profile.count

        self._effective_tflops = profile.total_fp16_tflops * 1e12
        self._effective_bandwidth = (
            profile.total_memory_bandwidth_gbps * 1e9 * cfg.memory_bandwidth_efficiency
        )
        decode_frac = (
            cfg.encoder_decoder_decode_fraction if llm.is_encoder_decoder else 1.0
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
                self.config.nvlink_collective_latency_s
                if profile.gpu.nvlink
                else self.config.pcie_collective_latency_s
            )
            self._comm_latency_per_step = latency * payload_factor * total_layers
        else:
            self._comm_bytes_per_token = 0.0
            self._comm_bandwidth = 1.0
            self._comm_latency_per_step = 0.0

        self._step_overhead = (
            cfg.step_overhead_base_s
            + cfg.step_overhead_per_layer_s * (llm.n_layers + llm.n_encoder_layers)
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
        self._decode_compute_denom = (
            self._effective_tflops * cfg.decode_compute_efficiency
        )

    # ---- phases -----------------------------------------------------------

    def prefill_time(self, prompt_tokens: int) -> float:
        """Seconds to run the prompt-processing phase over ``prompt_tokens``
        total tokens (summed over the admitted requests). Compute-bound."""
        if prompt_tokens < 0:
            raise ValueError("prompt_tokens must be >= 0")
        flops = self.llm.flops_per_token * prompt_tokens
        compute = flops / (
            self._effective_tflops * self.config.prefill_compute_efficiency
        )
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
