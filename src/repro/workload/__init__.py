"""Workload generator (paper §III-B): joint binned request model and
request sampling (token counts and request parameters, no input text),
plus the trace-replay comparator."""

from repro.workload.binning import ParameterBinning, fit_binning, DEFAULT_N_BINS
from repro.workload.model import RequestModel
from repro.workload.generator import WorkloadGenerator, TraceReplaySampler

__all__ = [
    "ParameterBinning",
    "fit_binning",
    "DEFAULT_N_BINS",
    "RequestModel",
    "WorkloadGenerator",
    "TraceReplaySampler",
]
