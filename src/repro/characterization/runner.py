"""The performance characterization tool (paper §III, Fig 2).

For each (LLM, GPU profile) the tool (1) deploys the inference service,
(2) tunes the maximum batch weight by binary search, and (3) runs the
load-testing ladder (1..128 concurrent users) with the workload
generator, collecting TTFT / nTTFT / ITL / throughput into the
characterization dataset. It also accounts the virtual wall-clock
overhead of characterization (paper §V-B: ~30min/LLM tuning +
20min/LLM load testing, parallelized over GPUs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.characterization.dataset import PerfDataset, PerfRecord
from repro.characterization.feasibility import (
    Feasibility,
    FeasibilityReport,
    check_feasibility,
)
from repro.characterization.loadtest import DEFAULT_USER_COUNTS, run_load_test
from repro.hardware.profile import GPUProfile, default_profiles
from repro.inference.engine import ContinuousBatchingEngine
from repro.models.llm import LLMSpec
from repro.utils.rng import spawn_seed
from repro.workload.generator import WorkloadGenerator

__all__ = ["CharacterizationConfig", "CharacterizationOutcome", "CharacterizationTool"]

#: Virtual overhead accounting (paper §V-B): binary-search tuning and
#: pod startup dominate the per-combination setup cost.
_TUNING_PROBE_COST_S = 95.0
_DEPLOYMENT_COST_S = 60.0


@dataclass(frozen=True)
class CharacterizationConfig:
    """Knobs of a characterization campaign."""

    user_counts: tuple[int, ...] = DEFAULT_USER_COUNTS
    duration_s: float = 120.0
    seed: int = 0


@dataclass
class CharacterizationOutcome:
    """Everything a campaign produced."""

    dataset: PerfDataset
    feasibility: list[FeasibilityReport] = field(default_factory=list)
    tuned_weights: dict[tuple[str, str], int] = field(default_factory=dict)
    #: Estimated wall-clock overhead, per GPU profile (parallelizable).
    overhead_by_profile_s: dict[str, float] = field(default_factory=dict)

    @property
    def total_overhead_s(self) -> float:
        """Campaign duration when profiles run in parallel (max over GPUs)."""
        if not self.overhead_by_profile_s:
            return 0.0
        return max(self.overhead_by_profile_s.values())

    @property
    def serial_overhead_s(self) -> float:
        return sum(self.overhead_by_profile_s.values())


class CharacterizationTool:
    """Drives characterization campaigns over LLM x GPU-profile grids."""

    def __init__(
        self,
        generator: WorkloadGenerator,
        config: CharacterizationConfig | None = None,
    ) -> None:
        self.generator = generator
        self.config = config or CharacterizationConfig()
        self._max_request_weight = generator.max_request_weight()

    # ---- single combination ----------------------------------------------

    def characterize_pair(
        self, llm: LLMSpec, profile: GPUProfile
    ) -> tuple[FeasibilityReport, list[PerfRecord]]:
        """Tune + load-test one (LLM, GPU profile) combination."""
        cfg = self.config
        report = check_feasibility(llm, profile, self._max_request_weight)
        if not report.feasible:
            return report, []

        records = []
        for users in cfg.user_counts:
            seed = spawn_seed(cfg.seed, "charact", llm.name, profile.name, users)
            engine = ContinuousBatchingEngine(
                llm=llm,
                profile=profile,
                max_batch_weight=report.max_batch_weight,
                seed=seed,
            )
            result = run_load_test(
                engine,
                self.generator,
                concurrent_users=users,
                duration_s=cfg.duration_s,
                seed=seed,
            )
            records.append(
                PerfRecord(
                    llm=llm.name,
                    profile=profile.name,
                    gpu_name=profile.gpu.name,
                    gpu_count=profile.count,
                    concurrent_users=users,
                    max_batch_weight=report.max_batch_weight,
                    ttft_median_s=result.ttft_median_s,
                    nttft_median_s=result.nttft_median_s,
                    itl_median_s=result.itl_median_s,
                    throughput_tokens_per_s=result.throughput_tokens_per_s,
                    e2e_median_s=result.e2e_median_s,
                )
            )
        return report, records

    # ---- campaigns -----------------------------------------------------------

    def run(
        self,
        llms: list[LLMSpec],
        profiles: list[GPUProfile] | None = None,
    ) -> CharacterizationOutcome:
        """Characterize every feasible (LLM, profile) combination."""
        profiles = profiles if profiles is not None else default_profiles()
        cfg = self.config
        outcome = CharacterizationOutcome(dataset=PerfDataset())
        for profile in profiles:
            overhead = 0.0
            for llm in llms:
                report, records = self.characterize_pair(llm, profile)
                outcome.feasibility.append(report)
                overhead += _DEPLOYMENT_COST_S + _TUNING_PROBE_COST_S
                if report.feasible:
                    outcome.tuned_weights[(llm.name, profile.name)] = (
                        report.max_batch_weight
                    )
                    outcome.dataset.extend(records)
                    overhead += cfg.duration_s * len(cfg.user_counts)
            outcome.overhead_by_profile_s[profile.name] = overhead
        return outcome

    def feasibility_matrix(
        self,
        llms: list[LLMSpec],
        profiles: list[GPUProfile] | None = None,
    ) -> dict[tuple[str, str], Feasibility]:
        """The Table III grid without running any load tests."""
        profiles = profiles if profiles is not None else default_profiles()
        out = {}
        for llm in llms:
            for profile in profiles:
                report = check_feasibility(llm, profile, self._max_request_weight)
                out[(llm.name, profile.name)] = report.status
        return out
