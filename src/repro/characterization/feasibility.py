"""Feasibility of (LLM, GPU profile) combinations — the paper's Table III.

Three statuses, matching the paper's legend:

* ``OK`` (✓): data can be collected;
* ``OOM`` (×): the profile's memory cannot host the LLM while leaving
  enough space to process the largest requests produced by the workload
  generator;
* ``UNSUPPORTED`` (–): software/hardware gates — TGIS did not support
  tensor parallelism for some LLMs, and flash-attention models require
  compute capability >= 8.0 (excluding V100).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.characterization.tuner import BatchWeightTuner
from repro.hardware.profile import GPUProfile
from repro.models.llm import LLMSpec

__all__ = ["Feasibility", "FeasibilityReport", "check_feasibility"]

#: Flash attention needs Turing or newer (T4 at 7.5 works; V100 at 7.0
#: does not — the paper's reason for the missing V100 entries).
_MIN_COMPUTE_CAPABILITY_FLASH = 7.5


class Feasibility(enum.Enum):
    OK = "ok"
    OOM = "oom"
    UNSUPPORTED = "unsupported"

    @property
    def symbol(self) -> str:
        return {"ok": "Y", "oom": "x", "unsupported": "-"}[self.value]


@dataclass(frozen=True)
class FeasibilityReport:
    llm: str
    profile: str
    status: Feasibility
    max_batch_weight: int
    reason: str

    @property
    def feasible(self) -> bool:
        return self.status is Feasibility.OK


def check_feasibility(
    llm: LLMSpec,
    profile: GPUProfile,
    max_request_weight: int,
) -> FeasibilityReport:
    """Classify one (LLM, GPU profile) combination.

    ``max_request_weight`` is the largest request weight the workload
    generator can produce (``WorkloadGenerator.max_request_weight()``);
    the combination is only usable when the tuned maximum batch weight
    can accommodate it.
    """
    if profile.is_tensor_parallel and not llm.tgis_tensor_parallel_supported:
        return FeasibilityReport(
            llm=llm.name,
            profile=profile.name,
            status=Feasibility.UNSUPPORTED,
            max_batch_weight=0,
            reason="TGIS does not support tensor parallelism for this LLM",
        )
    if (
        llm.uses_flash_attention
        and profile.gpu.compute_capability < _MIN_COMPUTE_CAPABILITY_FLASH
    ):
        return FeasibilityReport(
            llm=llm.name,
            profile=profile.name,
            status=Feasibility.UNSUPPORTED,
            max_batch_weight=0,
            reason=(
                "flash attention requires compute capability >= "
                f"{_MIN_COMPUTE_CAPABILITY_FLASH}, GPU has "
                f"{profile.gpu.compute_capability}"
            ),
        )

    result = BatchWeightTuner(llm, profile).tune()
    if not result.feasible:
        return FeasibilityReport(
            llm=llm.name,
            profile=profile.name,
            status=Feasibility.OOM,
            max_batch_weight=0,
            reason="model weights do not fit in the profile's memory",
        )
    if result.max_batch_weight < max_request_weight:
        return FeasibilityReport(
            llm=llm.name,
            profile=profile.name,
            status=Feasibility.OOM,
            max_batch_weight=result.max_batch_weight,
            reason=(
                f"tuned batch weight {result.max_batch_weight} cannot hold the "
                f"largest workload request (weight {max_request_weight})"
            ),
        )
    return FeasibilityReport(
        llm=llm.name,
        profile=profile.name,
        status=Feasibility.OK,
        max_batch_weight=result.max_batch_weight,
        reason="",
    )
