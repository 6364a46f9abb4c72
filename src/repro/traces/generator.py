"""Synthetic production-trace generation.

This substitutes for the paper's proprietary 17.3M-request IBM trace
collection (Table II): a multi-tenant platform serving 24 LLMs
(3B–176B parameters) to ~2500 users over 5.5 months. The synthesizer
reproduces the *statistical structure* the paper measures and relies on:

* heavy-tailed, clipped token-count distributions (input 1–4093,
  output 1–1500), client batch sizes 1–5;
* strong cross-parameter correlation (token counts x batch size x
  decoding parameters) induced by a task-archetype mixture with
  per-user task affinity;
* a latency column dominated by the output token count, then input
  tokens, batch size and sampling parameters — so that the paper's
  Random-Forest importance study (§III-A, R^2 ~ 0.93) reproduces;
* a long tail of low-impact request flags (33 additional parameters).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.traces.archetypes import DEFAULT_ARCHETYPES
from repro.traces.schema import DECODING_METHODS, TraceDataset
from repro.utils.rng import derive_rng

__all__ = ["TraceConfig", "TraceSynthesizer", "synthesize_traces"]

_SECONDS_PER_MONTH = 30.44 * 86_400.0

# The platform the collection describes (Table II): 24 LLMs of 3B-176B
# parameters over 5.5 months, drawn from the default task archetypes.
_N_PLATFORM_LLMS = 24
_MIN_LLM_PARAMS_BILLION = 3.0
_MAX_LLM_PARAMS_BILLION = 176.0
_MONTHS = 5.5
_USER_ARCHETYPE_AFFINITY = 0.8  # P(request uses the user's main task)
_LATENCY_NOISE_SIGMA = 0.085  # lognormal sigma on measured latency


@dataclass(frozen=True)
class TraceConfig:
    """Size of the synthetic trace collection (defaults mirror Table II).

    Only the request and user counts vary; the platform itself (its
    LLMs, time span, task archetypes and latency noise) is the module
    constants above.
    """

    n_requests: int = 200_000
    n_users: int = 2_500

    def __post_init__(self) -> None:
        if self.n_requests < 1:
            raise ValueError("n_requests must be positive")
        if self.n_users < 1:
            raise ValueError("n_users must be positive")


class TraceSynthesizer:
    """Generates a :class:`TraceDataset` from a :class:`TraceConfig`."""

    def __init__(self, config: TraceConfig | None = None, seed: int = 0) -> None:
        self.config = config or TraceConfig()
        self.seed = seed

    # ---- helpers ---------------------------------------------------------

    def _platform_llm_sizes(self, rng: np.random.Generator) -> np.ndarray:
        """Log-uniform parameter counts for the 24 platform LLMs (3B-176B)."""
        lo, hi = np.log(_MIN_LLM_PARAMS_BILLION), np.log(_MAX_LLM_PARAMS_BILLION)
        sizes = np.exp(rng.uniform(lo, hi, size=_N_PLATFORM_LLMS))
        # Pin the extremes so the advertised range is realized exactly.
        sizes[0] = _MIN_LLM_PARAMS_BILLION
        sizes[-1] = _MAX_LLM_PARAMS_BILLION
        return np.sort(sizes)

    def _user_population(
        self, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Per-user activity weights, main archetype and preferred LLM."""
        cfg = self.config
        # Zipf-like user activity: a few heavy users, a long tail.
        activity = rng.pareto(1.2, size=cfg.n_users) + 0.05
        archetype_weights = np.array([a.weight for a in DEFAULT_ARCHETYPES])
        main_archetype = rng.choice(
            len(DEFAULT_ARCHETYPES), size=cfg.n_users, p=archetype_weights
        )
        # LLM popularity is heavy-tailed: most traffic goes to a handful of
        # popular mid-sized models, with a long tail over the rest (as on
        # any real multi-tenant platform).
        ranks = rng.permutation(_N_PLATFORM_LLMS)
        popularity = 1.0 / (1.0 + ranks) ** 1.4
        popularity /= popularity.sum()
        preferred_llm = rng.choice(_N_PLATFORM_LLMS, size=cfg.n_users, p=popularity)
        return activity / activity.sum(), main_archetype, preferred_llm

    def _latency_model(
        self,
        llm_scale: np.ndarray,
        input_tokens: np.ndarray,
        output_tokens: np.ndarray,
        batch_size: np.ndarray,
        decoding_method: np.ndarray,
        num_beams: np.ndarray,
        temperature: np.ndarray,
        top_k: np.ndarray,
        rng: np.random.Generator,
    ) -> np.ndarray:
        """End-to-end latency of each request on the trace platform.

        The platform runs on A100s; per-token decode cost scales with the
        serviced LLM's size. The functional form makes the output token
        count dominant, followed by input tokens, batch size and sampling
        parameters — matching the paper's MDI ranking.
        """
        itl = 0.009 * llm_scale  # seconds per output token
        ttft = 0.08 + 0.00045 * llm_scale * input_tokens
        # Client-side batches multiply the per-step work of the serving
        # batch; the platform pipeline recovers part of it.
        batch_factor = 1.0 + 0.55 * (batch_size - 1.0)
        method_factor = np.ones_like(itl)
        is_beam = decoding_method == DECODING_METHODS.index("beam")
        is_sample = decoding_method == DECODING_METHODS.index("sample")
        method_factor = np.where(is_beam, 0.55 * np.maximum(num_beams, 2), method_factor)
        sample_overhead = 1.0 + 0.025 * temperature + 0.0004 * top_k
        method_factor = np.where(is_sample, sample_overhead, method_factor)
        latency = ttft + output_tokens * itl * batch_factor * method_factor
        noise = rng.lognormal(0.0, _LATENCY_NOISE_SIGMA, size=latency.shape)
        return latency * noise

    # ---- main entry --------------------------------------------------------

    def generate(self) -> TraceDataset:
        cfg = self.config
        n = cfg.n_requests
        rng = derive_rng(self.seed, "traces")

        llm_sizes = self._platform_llm_sizes(derive_rng(self.seed, "platform-llms"))
        user_weights, user_main_arch, user_llm = self._user_population(
            derive_rng(self.seed, "users")
        )

        user_id = rng.choice(cfg.n_users, size=n, p=user_weights)

        # Request archetype: the user's main task with probability `affinity`,
        # otherwise a fresh draw from the global mixture.
        archetype_weights = np.array([a.weight for a in DEFAULT_ARCHETYPES])
        stick = rng.random(n) < _USER_ARCHETYPE_AFFINITY
        random_arch = rng.choice(len(DEFAULT_ARCHETYPES), size=n, p=archetype_weights)
        arch_idx = np.where(stick, user_main_arch[user_id], random_arch)

        # Serviced LLM: mostly the user's preferred model.
        other_llm = rng.integers(0, _N_PLATFORM_LLMS, size=n)
        llm_index = np.where(rng.random(n) < 0.85, user_llm[user_id], other_llm)

        # Timestamps: uniform over the collection period with a diurnal shape.
        span = _MONTHS * _SECONDS_PER_MONTH
        raw_ts = rng.uniform(0.0, span, size=n)
        hour = (raw_ts / 3600.0) % 24.0
        # Rejection-free diurnal skew: push timestamps toward working hours.
        raw_ts += 3600.0 * 0.35 * np.sin((hour - 15.0) / 24.0 * 2 * np.pi)
        timestamp = np.sort(np.clip(raw_ts, 0.0, span))

        cols: dict[str, np.ndarray] = {
            "timestamp": timestamp,
            "user_id": user_id.astype(np.int32),
            "llm_index": llm_index.astype(np.int32),
        }

        # Per-archetype parameter sampling (vectorized per group).
        int_cols = (
            "input_tokens output_tokens batch_size decoding_method top_k num_beams "
            "max_new_tokens min_new_tokens no_repeat_ngram_size truncate_input_tokens "
            "num_stop_sequences stream include_input_text seed_provided return_logprobs "
            "return_ranks return_top_n_tokens stop_on_eos echo best_of "
            "decoder_input_details watermark adapter_id_set guided_decoding priority"
        ).split()
        float_cols = (
            "temperature top_p typical_p repetition_penalty length_penalty "
            "time_limit_ms presence_penalty frequency_penalty"
        ).split()
        for c in int_cols:
            cols[c] = np.zeros(n, dtype=np.int32)
        for c in float_cols:
            cols[c] = np.zeros(n, dtype=np.float64)

        for ai, arch in enumerate(DEFAULT_ARCHETYPES):
            idx = np.nonzero(arch_idx == ai)[0]
            if idx.size == 0:
                continue
            grng = derive_rng(self.seed, "archetype", arch.name)
            self._fill_archetype(cols, idx, arch, grng)

        # Latency from the platform model.
        cols["latency_s"] = self._latency_model(
            llm_scale=llm_sizes[llm_index] / 13.0,
            input_tokens=cols["input_tokens"].astype(float),
            output_tokens=cols["output_tokens"].astype(float),
            batch_size=cols["batch_size"].astype(float),
            decoding_method=cols["decoding_method"],
            num_beams=cols["num_beams"].astype(float),
            temperature=cols["temperature"],
            top_k=cols["top_k"].astype(float),
            rng=derive_rng(self.seed, "latency-noise"),
        )

        llm_names = [f"platform-llm-{i:02d}-{s:.0f}B" for i, s in enumerate(llm_sizes)]
        return TraceDataset(columns=cols, llm_names=llm_names)

    def _fill_archetype(
        self,
        cols: dict[str, np.ndarray],
        idx: np.ndarray,
        arch: Archetype,
        rng: np.random.Generator,
    ) -> None:
        m = idx.size
        inp, out = arch.sample_tokens(rng, m)

        batch = rng.choice(
            np.arange(1, len(arch.batch_probs) + 1), size=m, p=arch.batch_probs
        )
        # Platform rule observed in the traces: client-side batches above 1
        # only carry short sequences (the platform rejects oversized batched
        # payloads), which is part of what correlates batch size with the
        # token counts (Fig 3) and bounds the largest request weight.
        capped = batch > 1
        inp = np.where(capped, np.minimum(inp, 2048 // batch), inp).astype(np.int32)
        out = np.where(capped, np.minimum(out, 1024 // batch), out).astype(np.int32)
        cols["input_tokens"][idx] = inp
        cols["output_tokens"][idx] = out
        cols["batch_size"][idx] = batch

        method = rng.choice(3, size=m, p=(arch.p_greedy, arch.p_sample, arch.p_beam))
        cols["decoding_method"][idx] = method
        is_sample = method == 1
        is_beam = method == 2

        temp = np.where(is_sample, rng.uniform(*arch.temp_range, size=m), 0.0)
        cols["temperature"][idx] = temp
        cols["top_k"][idx] = np.where(
            is_sample, rng.choice(arch.top_k_choices, size=m), 0
        )
        cols["top_p"][idx] = np.where(
            is_sample, rng.uniform(*arch.top_p_range, size=m), 1.0
        )
        cols["typical_p"][idx] = np.where(
            is_sample & (rng.random(m) < 0.1), rng.uniform(0.2, 0.95, size=m), 1.0
        )
        cols["num_beams"][idx] = np.where(is_beam, rng.integers(2, 6, size=m), 1)
        cols["repetition_penalty"][idx] = rng.uniform(
            *arch.repetition_penalty_range, size=m
        )
        cols["length_penalty"][idx] = np.where(
            is_beam, rng.uniform(*arch.length_penalty_range, size=m), 1.0
        )

        margin = rng.uniform(1.0, 1.0 + arch.max_new_margin, size=m)
        cols["max_new_tokens"][idx] = np.clip(
            np.round(out * margin), out, 2048
        ).astype(np.int32)
        cols["min_new_tokens"][idx] = np.where(rng.random(m) < 0.05, 16, 0)

        # Low-impact flag tail (independent nuisance parameters).
        cols["no_repeat_ngram_size"][idx] = np.where(rng.random(m) < 0.08, 3, 0)
        cols["truncate_input_tokens"][idx] = np.where(
            rng.random(m) < 0.12, 4096, 0
        )
        cols["num_stop_sequences"][idx] = rng.binomial(3, 0.1, size=m)
        cols["stream"][idx] = (rng.random(m) < 0.55).astype(np.int32)
        cols["include_input_text"][idx] = (rng.random(m) < 0.1).astype(np.int32)
        cols["seed_provided"][idx] = (rng.random(m) < 0.07).astype(np.int32)
        cols["return_logprobs"][idx] = (rng.random(m) < 0.06).astype(np.int32)
        cols["return_ranks"][idx] = (rng.random(m) < 0.03).astype(np.int32)
        cols["return_top_n_tokens"][idx] = rng.binomial(5, 0.03, size=m)
        cols["time_limit_ms"][idx] = np.where(rng.random(m) < 0.04, 60_000.0, 0.0)
        cols["presence_penalty"][idx] = np.where(
            rng.random(m) < 0.05, rng.uniform(0.0, 1.0, size=m), 0.0
        )
        cols["frequency_penalty"][idx] = np.where(
            rng.random(m) < 0.05, rng.uniform(0.0, 1.0, size=m), 0.0
        )
        cols["stop_on_eos"][idx] = (rng.random(m) < 0.97).astype(np.int32)
        cols["echo"][idx] = (rng.random(m) < 0.01).astype(np.int32)
        cols["best_of"][idx] = np.where(rng.random(m) < 0.02, 2, 1)
        cols["decoder_input_details"][idx] = (rng.random(m) < 0.02).astype(np.int32)
        cols["watermark"][idx] = (rng.random(m) < 0.01).astype(np.int32)
        cols["adapter_id_set"][idx] = (rng.random(m) < 0.05).astype(np.int32)
        cols["guided_decoding"][idx] = (rng.random(m) < 0.03).astype(np.int32)
        cols["priority"][idx] = rng.choice((0, 1, 2), size=m, p=(0.8, 0.15, 0.05))


def synthesize_traces(
    n_requests: int = 200_000, seed: int = 0, config: TraceConfig | None = None
) -> TraceDataset:
    """Convenience wrapper: synthesize a trace collection of ``n_requests``."""
    if config is None:
        config = TraceConfig(n_requests=n_requests)
    return TraceSynthesizer(config=config, seed=seed).generate()
