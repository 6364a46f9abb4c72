"""Inference-server simulator (TGIS stand-in): continuous batching engine,
analytic cost model, memory/OOM accounting and request records."""

from repro.inference.request import InferenceRequest, RequestResult
from repro.inference.costmodel import CostModel
from repro.inference.memory import MemoryModel, CornerCaseBatch, corner_case_batches
from repro.inference.engine import ContinuousBatchingEngine, EngineStats
from repro.inference.steadystate import SteadyStateEstimate, SteadyStateEstimator

__all__ = [
    "InferenceRequest",
    "RequestResult",
    "CostModel",
    "MemoryModel",
    "CornerCaseBatch",
    "corner_case_batches",
    "ContinuousBatchingEngine",
    "EngineStats",
    "SteadyStateEstimate",
    "SteadyStateEstimator",
]
