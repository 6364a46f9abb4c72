"""Morphling baseline (Wang et al., SoCC'21).

Morphling meta-learns a performance model over historical configurations
and *fine-tunes* it on a handful of measurements of the new service —
here, the unseen LLM's measurements on the two reference profiles. We
implement the meta-model as the PerfNetV2-style joint MLP and the
adaptation step as warm-started gradient descent on the reference rows.
"""

from __future__ import annotations

import copy

import numpy as np

from repro.baselines.perfnet import PerfNetRecommender, _LOG_FLOOR
from repro.characterization.dataset import PerfDataset
from repro.models.llm import LLMSpec

__all__ = ["MorphlingRecommender"]


class MorphlingRecommender(PerfNetRecommender):
    """Meta-trained MLP fine-tuned on reference measurements."""

    name = "Morphling"
    requires_reference = True
    hidden_layers = (64, 64)
    joint_outputs = True

    def __init__(self, finetune_epochs: int = 150, **kwargs) -> None:
        super().__init__(**kwargs)
        self.finetune_epochs = finetune_epochs
        self._meta_models: list | None = None
        self._test_llm: str | None = None
        self._llm_lookup: dict[str, LLMSpec] = {}

    def fit(self, train: PerfDataset, llm_lookup: dict[str, LLMSpec]) -> None:
        super().fit(train, llm_lookup)
        self._llm_lookup = dict(llm_lookup)
        # Keep pristine meta-parameters; each unseen LLM fine-tunes a copy.
        self._meta_models = [copy.deepcopy(m) for m in self._models]

    def observe_reference(self, llm: LLMSpec, reference: PerfDataset) -> None:
        if self._meta_models is None:
            raise RuntimeError("fit must be called before observe_reference")
        self._models = [copy.deepcopy(m) for m in self._meta_models]
        self._test_llm = llm.name
        rows = [
            (llm, r.profile, r.concurrent_users) for r in reference.records
        ]
        if not rows:
            return  # nothing to adapt on (reference profiles infeasible)
        X = self._feature_space.transform(rows)
        y1 = reference.column("nttft_median_s")
        y2 = reference.column("itl_median_s")
        ok = np.isfinite(y1) & np.isfinite(y2)
        if not np.any(ok):
            return
        Xs = self._scaler.transform(X[ok])
        targets = np.column_stack(
            [
                np.log(np.maximum(y1[ok], _LOG_FLOOR)),
                np.log(np.maximum(y2[ok], _LOG_FLOOR)),
            ]
        )
        self._models[0].partial_fit(Xs, targets, n_epochs=self.finetune_epochs)
