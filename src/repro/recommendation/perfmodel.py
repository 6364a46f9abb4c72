"""The latency performance model (paper §IV-B2).

Two gradient-boosted regressors — one for nTTFT, one for ITL — trained
on the characterization dataset with (a) the Eq. (4) constraint-proximity
sample weights and (b) a monotonicity constraint on the concurrent-users
feature (latencies never decrease as load grows). The combination is the
paper's key modeling contribution: the weights focus accuracy near the
constraints, and the monotonicity constraint prevents spurious
constraint-violation flags at low user counts from wrecking the umax
estimate.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.characterization.dataset import PerfDataset
from repro.ml.gbm import GradientBoostingRegressor
from repro.models.llm import LLMSpec
from repro.recommendation.features import FeatureSpace
from repro.recommendation.weights import LatencyConstraints, constraint_proximity_weights

__all__ = ["PerfModelHyperparams", "PerformanceModel", "DEFAULT_HP_GRID"]


@dataclass(frozen=True)
class PerfModelHyperparams:
    """The XGBoost-style hyperparameters the paper tunes (§IV-B3)."""

    n_estimators: int = 200
    max_depth: int = 4
    learning_rate: float = 0.1
    subsample: float = 1.0
    max_bins: int = 64


#: Small default grid for leave-one-LLM-out tuning; mirrors the paper's
#: tuned dimensions while staying tractable offline.
DEFAULT_HP_GRID: dict[str, list] = {
    "n_estimators": [100, 300],
    "max_depth": [3, 5],
    "learning_rate": [0.05, 0.15],
    "subsample": [0.8, 1.0],
}


@dataclass
class PerformanceModel:
    """Joint (nTTFT, ITL) latency predictor for inference services."""

    feature_space: FeatureSpace
    constraints: LatencyConstraints
    hyperparams: PerfModelHyperparams = field(default_factory=PerfModelHyperparams)
    use_sample_weights: bool = True
    use_monotone_constraint: bool = True
    random_state: int = 0
    _model_nttft: GradientBoostingRegressor | None = field(default=None, repr=False)
    _model_itl: GradientBoostingRegressor | None = field(default=None, repr=False)

    # ---- training ------------------------------------------------------------

    def _make_regressor(self) -> GradientBoostingRegressor:
        hp = self.hyperparams
        monotone = (
            {self.feature_space.users_feature_index: 1}
            if self.use_monotone_constraint
            else None
        )
        return GradientBoostingRegressor(
            n_estimators=hp.n_estimators,
            max_depth=hp.max_depth,
            learning_rate=hp.learning_rate,
            subsample=hp.subsample,
            max_bins=hp.max_bins,
            monotone_constraints=monotone,
            random_state=self.random_state,
        )

    def fit(self, train: PerfDataset, llm_lookup: dict[str, LLMSpec]) -> "PerformanceModel":
        """Fit both latency regressors on the characterization data.

        ``llm_lookup`` maps dataset LLM names to their architecture cards
        (features are built from the cards, never from measurements of
        the target LLM).
        """
        rows = [
            (llm_lookup[r.llm], r.profile, r.concurrent_users) for r in train.records
        ]
        X = self.feature_space.transform(rows)
        y1 = train.column("nttft_median_s")
        y2 = train.column("itl_median_s")
        w = (
            constraint_proximity_weights(train, self.constraints)
            if self.use_sample_weights
            else np.ones(len(train))
        )
        ok = np.isfinite(y1) & np.isfinite(y2)
        if not np.any(ok):
            raise ValueError("no finite training rows")
        self._model_nttft = self._make_regressor().fit(
            X[ok], y1[ok], sample_weight=w[ok]
        )
        self._model_itl = self._make_regressor().fit(
            X[ok], y2[ok], sample_weight=w[ok]
        )
        return self

    # ---- inference ---------------------------------------------------------------

    def predict(
        self, llm: LLMSpec, profile: str, user_counts: list[int] | np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """(nTTFT, ITL) predictions across ``user_counts`` for one profile."""
        if self._model_nttft is None or self._model_itl is None:
            raise RuntimeError("model must be fit before predict")
        rows = [(llm, profile, int(u)) for u in user_counts]
        X = self.feature_space.transform(rows)
        return self._model_nttft.predict(X), self._model_itl.predict(X)
