"""Statistical analyses backing the paper's studies: Spearman correlation
(Fig 3), RF importance (§III-A, Fig 4) and CDF fidelity (Fig 6)."""

from repro.analysis.correlation import spearman_matrix, DEFAULT_CORRELATION_PARAMS
from repro.analysis.importance import (
    ImportanceStudyResult,
    latency_importance_study,
    KnobStudyResult,
    deployment_knob_study,
)
from repro.analysis.cdf import CDFComparison, compare_marginals

__all__ = [
    "spearman_matrix",
    "DEFAULT_CORRELATION_PARAMS",
    "ImportanceStudyResult",
    "latency_importance_study",
    "KnobStudyResult",
    "deployment_knob_study",
    "CDFComparison",
    "compare_marginals",
]
