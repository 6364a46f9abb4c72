"""Analytic steady-state performance estimator.

A closed-form fast path that predicts throughput / ITL / TTFT for a
closed-loop population of ``u`` users without running the discrete-event
engine. Used for cross-validation of the simulator (the two must agree
on saturated and unsaturated regimes) and for quick what-if queries.

Model: with mean request footprint E[(in+out)*batch] tokens, the batch
weight admits ``n_fit = W / footprint`` concurrent requests. The active
request count is ``min(u, n_fit, MAX_BATCH_REQUESTS)``, the last being
the engine's request cap; a decode step costs the cost-model step time
at that batch size; throughput is ``active_seqs / step_time``; TTFT is
prefill time plus, past saturation, the queueing delay of a full
rotation of the excess users (Little's law on the closed loop).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hardware.profile import GPUProfile
from repro.inference.costmodel import CostModel
from repro.inference.engine import MAX_BATCH_REQUESTS
from repro.models.llm import LLMSpec

if TYPE_CHECKING:  # avoid the workload <-> inference import cycle
    from repro.workload.generator import WorkloadGenerator

__all__ = ["SteadyStateEstimate", "SteadyStateEstimator"]

#: Requests drawn from the workload generator to estimate the mean
#: request shape.
_SHAPE_SAMPLES = 20_000


@dataclass(frozen=True)
class SteadyStateEstimate:
    """Closed-form predictions for one (LLM, profile, W, u) point."""

    concurrent_users: int
    active_requests: float
    throughput_tokens_per_s: float
    itl_s: float
    ttft_s: float
    saturated: bool


class SteadyStateEstimator:
    """Analytic estimator for one deployed service."""

    def __init__(
        self,
        llm: LLMSpec,
        profile: GPUProfile,
        max_batch_weight: int,
        generator: WorkloadGenerator,
        seed: int = 0,
    ) -> None:
        if max_batch_weight < 2:
            raise ValueError("max_batch_weight must be >= 2")
        self.llm = llm
        self.profile = profile
        self.max_batch_weight = max_batch_weight
        self.cost = CostModel(llm, profile)
        cols = generator.sample_columns(_SHAPE_SAMPLES, rng=seed)
        inp = cols["input_tokens"].astype(float)
        out = cols["output_tokens"].astype(float)
        batch = cols.get("batch_size", np.ones(_SHAPE_SAMPLES)).astype(float)
        self._mean_input = float(inp.mean())
        self._mean_output = float(out.mean())
        self._mean_batch = float(batch.mean())
        self._mean_footprint = float(((inp + out) * batch).mean())

    def estimate(self, concurrent_users: int) -> SteadyStateEstimate:
        """Predict steady-state metrics for ``concurrent_users``."""
        if concurrent_users < 1:
            raise ValueError("concurrent_users must be >= 1")
        u = concurrent_users
        n_fit = self.max_batch_weight / self._mean_footprint
        active = min(float(u), n_fit, float(MAX_BATCH_REQUESTS))
        saturated = active < u

        seqs = active * self._mean_batch
        # Mid-life KV residency: input plus half the output, per sequence.
        kv_tokens = int(
            active * (self._mean_input + 0.5 * self._mean_output) * self._mean_batch
        )
        decode_step = self.cost.decode_step_time(int(round(seqs)), kv_tokens)

        # Prefill interleave: every completed request admits a successor
        # whose prompt blocks decoding once per request lifetime.
        prefill = self.cost.prefill_time(
            int(self._mean_input * self._mean_batch)
        )
        steps_per_request = max(self._mean_output - 1.0, 1.0)
        itl = decode_step + prefill / steps_per_request

        throughput = seqs / itl if itl > 0 else 0.0
        service_time = self._mean_output * itl
        if saturated:
            # Closed loop: an arriving request waits for the excess users
            # ahead of it to rotate through the batch.
            queue_wait = (u - active) / active * service_time
        else:
            queue_wait = 0.0
        ttft = prefill + queue_wait
        return SteadyStateEstimate(
            concurrent_users=u,
            active_requests=active,
            throughput_tokens_per_s=throughput,
            itl_s=itl,
            ttft_s=ttft,
            saturated=saturated,
        )
