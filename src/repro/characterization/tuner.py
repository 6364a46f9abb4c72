"""Maximum-batch-weight tuning via binary search (paper §III-C2).

Before starting the inference server, LLM-Pilot binary-searches the
largest maximum batch weight that survives a battery of OOM corner-case
batches (longest prompt, longest generation, maximal batch size,
balanced). Validity is monotone in the weight, so binary search finds
the frontier; the result is the weight the server is started with.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.hardware.profile import GPUProfile
from repro.inference.memory import MemoryModel, corner_case_batches
from repro.models.llm import LLMSpec

__all__ = ["TuningResult", "BatchWeightTuner"]

#: The binary search stops once the bracket is this many tokens wide.
_RESOLUTION = 64


@dataclass(frozen=True)
class TuningResult:
    """Outcome of one tuning run."""

    llm: str
    profile: str
    max_batch_weight: int
    search_steps: int
    probes: int  # corner-case batches evaluated
    feasible: bool

    def __bool__(self) -> bool:
        return self.feasible


class BatchWeightTuner:
    """Binary search for the largest OOM-safe maximum batch weight."""

    def __init__(self, llm: LLMSpec, profile: GPUProfile) -> None:
        self.llm = llm
        self.profile = profile
        self.memory = MemoryModel(llm, profile)
        self._probes = 0

    def is_valid(self, max_batch_weight: int) -> bool:
        """True when all corner-case batches fit without OOM."""
        if max_batch_weight < 2:
            return False
        batches = corner_case_batches(max_batch_weight)
        self._probes += len(batches)
        return not any(self.memory.would_oom(b) for b in batches)

    def tune(self) -> TuningResult:
        """Binary-search the largest valid maximum batch weight."""
        self._probes = 0
        steps = 0
        if not self.memory.weights_fit or not self.is_valid(2):
            return TuningResult(
                llm=self.llm.name,
                profile=self.profile.name,
                max_batch_weight=0,
                search_steps=steps,
                probes=self._probes,
                feasible=False,
            )
        # Exponential probe upward for the bracketing bound.
        lo, hi = 2, 4
        while self.is_valid(hi):
            lo = hi
            hi *= 2
            steps += 1
            if hi > 1 << 28:  # 268M tokens: unreachable in practice
                break
        # Binary search in (lo valid, hi invalid].
        while hi - lo > _RESOLUTION:
            mid = (lo + hi) // 2
            steps += 1
            if self.is_valid(mid):
                lo = mid
            else:
                hi = mid
        return TuningResult(
            llm=self.llm.name,
            profile=self.profile.name,
            max_batch_weight=lo,
            search_steps=steps,
            probes=self._probes,
            feasible=True,
        )
