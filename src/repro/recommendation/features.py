"""Feature engineering for the performance model (paper §IV-B1).

Rows are (LLM, GPU profile, concurrent users); features concatenate the
LLM architecture card, the GPU profile datasheet and the user count.
The categorical LLM type is label-encoded against the training
vocabulary (tree models split on the code; unseen types map to -1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.hardware.profile import GPUProfile, parse_profile
from repro.models.llm import LLMSpec

__all__ = ["FeatureSpace"]


@dataclass
class FeatureSpace:
    """Builds numeric feature vectors for (LLM, profile, users) triples.

    The features are the paper's list and nothing more: no interaction
    terms derived from the datasheets, which would nearly encode the
    roofline cost model and make the prediction task artificially easy.
    """

    model_type_vocab: list[str] = field(default_factory=list)
    _names: list[str] = field(default_factory=list)
    _profile_cache: dict[str, GPUProfile] = field(default_factory=dict)

    @classmethod
    def fit(cls, llms: list[LLMSpec]) -> "FeatureSpace":
        """Learn the categorical vocabulary from the training LLMs."""
        if not llms:
            raise ValueError("need at least one training LLM")
        vocab = sorted({llm.model_type for llm in llms})
        space = cls(model_type_vocab=vocab)
        # Fix feature order once from an arbitrary probe.
        probe_llm = llms[0]
        probe_profile = parse_profile("1xT4-16GB")
        probe = space._feature_dict(probe_llm, probe_profile, 1)
        space._names = list(probe)
        return space

    # ---- encoding ------------------------------------------------------------

    def _profile(self, profile: GPUProfile | str) -> GPUProfile:
        if isinstance(profile, GPUProfile):
            return profile
        if profile not in self._profile_cache:
            self._profile_cache[profile] = parse_profile(profile)
        return self._profile_cache[profile]

    def _feature_dict(
        self, llm: LLMSpec, profile: GPUProfile, users: int
    ) -> dict[str, float]:
        feats: dict[str, float] = {}
        feats["llm_type_code"] = float(
            self.model_type_vocab.index(llm.model_type)
            if llm.model_type in self.model_type_vocab
            else -1
        )
        feats.update(llm.feature_dict())
        feats.update(profile.feature_dict())
        feats["concurrent_users"] = float(users)
        return feats

    def transform_one(
        self, llm: LLMSpec, profile: GPUProfile | str, users: int
    ) -> np.ndarray:
        feats = self._feature_dict(llm, self._profile(profile), users)
        if not self._names:
            raise RuntimeError("FeatureSpace must be fit before transform")
        return np.array([feats[n] for n in self._names])

    def transform(
        self, rows: list[tuple[LLMSpec, GPUProfile | str, int]]
    ) -> np.ndarray:
        if not rows:
            return np.empty((0, len(self._names)))
        return np.vstack([self.transform_one(*row) for row in rows])

    # ---- metadata --------------------------------------------------------------

    @property
    def feature_names(self) -> list[str]:
        return list(self._names)

    @property
    def n_features(self) -> int:
        return len(self._names)

    @property
    def users_feature_index(self) -> int:
        """Index of the concurrent-users feature (the monotone one)."""
        return self._names.index("concurrent_users")
