"""Synthetic production-trace substrate (substitute for the paper's
proprietary 17.3M-request IBM trace collection; see docs/architecture.md)."""

from repro.traces.schema import (
    TraceDataset,
    REQUEST_PARAMS,
    CORE_PARAMS,
    DECODING_METHODS,
)
from repro.traces.archetypes import Archetype, DEFAULT_ARCHETYPES
from repro.traces.generator import TraceConfig, TraceSynthesizer, synthesize_traces

__all__ = [
    "TraceDataset",
    "REQUEST_PARAMS",
    "CORE_PARAMS",
    "DECODING_METHODS",
    "Archetype",
    "DEFAULT_ARCHETYPES",
    "TraceConfig",
    "TraceSynthesizer",
    "synthesize_traces",
]
