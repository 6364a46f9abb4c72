"""The performance characterization dataset (paper §V-B).

One row per (LLM, GPU profile, concurrent-user count) with the four
performance metrics and the tuned maximum batch weight. This is the
training data of the GPU recommendation tool, and the artifact the paper
open-sourced.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["PerfRecord", "PerfDataset"]


@dataclass(frozen=True)
class PerfRecord:
    """One measurement row."""

    llm: str
    profile: str
    gpu_name: str
    gpu_count: int
    concurrent_users: int
    max_batch_weight: int
    ttft_median_s: float
    nttft_median_s: float
    itl_median_s: float
    throughput_tokens_per_s: float
    e2e_median_s: float


@dataclass
class PerfDataset:
    """Columnar collection of :class:`PerfRecord` rows."""

    records: list[PerfRecord] = field(default_factory=list)

    def add(self, record: PerfRecord) -> None:
        self.records.append(record)

    def extend(self, records: list[PerfRecord]) -> None:
        self.records.extend(records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    # ---- queries -----------------------------------------------------------

    def llms(self) -> list[str]:
        """Distinct LLM names, in first-seen order."""
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.llm, None)
        return list(seen)

    def profiles(self) -> list[str]:
        seen: dict[str, None] = {}
        for r in self.records:
            seen.setdefault(r.profile, None)
        return list(seen)

    def user_counts(self) -> list[int]:
        return sorted({r.concurrent_users for r in self.records})

    def filter(
        self,
        llm: str | None = None,
        profile: str | None = None,
        concurrent_users: int | None = None,
    ) -> "PerfDataset":
        out = [
            r
            for r in self.records
            if (llm is None or r.llm == llm)
            and (profile is None or r.profile == profile)
            and (concurrent_users is None or r.concurrent_users == concurrent_users)
        ]
        return PerfDataset(records=out)

    def exclude_llm(self, llm: str) -> "PerfDataset":
        """All rows except one LLM's — used by leave-one-LLM-out CV."""
        return PerfDataset(records=[r for r in self.records if r.llm != llm])

    def series(
        self, llm: str, profile: str, metric: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(user counts, metric values) sorted by user count."""
        rows = sorted(
            self.filter(llm=llm, profile=profile).records,
            key=lambda r: r.concurrent_users,
        )
        users = np.array([r.concurrent_users for r in rows])
        values = np.array([getattr(r, metric) for r in rows], dtype=float)
        return users, values

    def column(self, name: str) -> np.ndarray:
        """One column across all rows (numeric columns as float array)."""
        values = [getattr(r, name) for r in self.records]
        if values and isinstance(values[0], str):
            return np.array(values, dtype=object)
        return np.array(values, dtype=float)

    # ---- persistence ------------------------------------------------------------

    _COLUMNS = (
        "llm",
        "profile",
        "gpu_name",
        "gpu_count",
        "concurrent_users",
        "max_batch_weight",
        "ttft_median_s",
        "nttft_median_s",
        "itl_median_s",
        "throughput_tokens_per_s",
        "e2e_median_s",
    )

    def save(self, path: str) -> None:
        arrays = {}
        for col in self._COLUMNS:
            values = [getattr(r, col) for r in self.records]
            if values and isinstance(values[0], str):
                arrays[col] = np.array(values, dtype=object)
            else:
                arrays[col] = np.array(values)
        np.savez_compressed(path, **arrays)

    @classmethod
    def load(cls, path: str) -> "PerfDataset":
        with np.load(path, allow_pickle=True) as archive:
            n = len(archive["llm"])
            records = [
                PerfRecord(
                    llm=str(archive["llm"][i]),
                    profile=str(archive["profile"][i]),
                    gpu_name=str(archive["gpu_name"][i]),
                    gpu_count=int(archive["gpu_count"][i]),
                    concurrent_users=int(archive["concurrent_users"][i]),
                    max_batch_weight=int(archive["max_batch_weight"][i]),
                    ttft_median_s=float(archive["ttft_median_s"][i]),
                    nttft_median_s=float(archive["nttft_median_s"][i]),
                    itl_median_s=float(archive["itl_median_s"][i]),
                    throughput_tokens_per_s=float(
                        archive["throughput_tokens_per_s"][i]
                    ),
                    e2e_median_s=float(archive["e2e_median_s"][i]),
                )
                for i in range(n)
            ]
        return cls(records=records)
