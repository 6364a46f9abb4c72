"""The curated scenario library: named specs with pinned expectations.

``scenarios/`` at the repository root holds the canonical catalog —
one :class:`~repro.simulation.scenario.ScenarioSpec` YAML file per
named workload (``diurnal-retail``, ``noisy-neighbor``, ...), each
exercising a different slice of the simulator and each carrying an
inline ``expectations:`` block that pins what a healthy run looks
like (p95 TTFT bound, SLO attainment floor, cost ceiling, completion
floor, loss ceiling). This module is the loader and the judge:

* :func:`list_scenarios` / :func:`scenario_path` / :func:`load_by_name`
  discover the catalog, so ``repro-pilot simulate --scenario-name
  diurnal-retail`` runs a curated workload without a path, and a miss
  lists every available name;
* :class:`Expectations` parses a spec's ``expectations:`` block and
  :func:`evaluate_expectations` scores a finished result against it,
  producing a per-check :class:`ExpectationReport` the test matrix
  (``tests/test_library.py``) and the CI scenario-matrix benchmark
  (``benchmarks/bench_scenario_matrix.py``) assert on.

Checks that need per-request samples (SLO attainment) are *skipped*,
not failed, when the run dropped them (``keep_samples=False``); the
matrix always keeps samples so nothing is skipped where it counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from repro.hardware.pricing import aws_like_pricing
from repro.hardware.profile import parse_profile
from repro.simulation.scenario import ScenarioSpec

__all__ = [
    "DEFAULT_SCENARIO_DIR",
    "Expectations",
    "ExpectationCheck",
    "ExpectationReport",
    "evaluate_expectations",
    "list_scenarios",
    "load_by_name",
    "scenario_path",
]

# src/repro/simulation/library.py -> repository root / scenarios
DEFAULT_SCENARIO_DIR = Path(__file__).resolve().parents[3] / "scenarios"

_SUFFIXES = (".yaml", ".yml", ".json")

#: The on-prem table every scenario's cost expectation is priced with.
_PRICING = aws_like_pricing()


def _scenario_files(directory: str | Path | None = None) -> dict[str, Path]:
    """name -> path for every spec file in the library directory."""
    root = Path(directory) if directory is not None else DEFAULT_SCENARIO_DIR
    if not root.is_dir():
        return {}
    out: dict[str, Path] = {}
    for path in sorted(root.iterdir()):
        if path.suffix in _SUFFIXES and not path.name.startswith("."):
            out[path.stem] = path
    return out


def list_scenarios(directory: str | Path | None = None) -> list[str]:
    """Every curated scenario name, sorted (empty if no library dir)."""
    return sorted(_scenario_files(directory))


def scenario_path(name: str, directory: str | Path | None = None) -> Path:
    """The spec file behind one library name.

    A miss raises ``ValueError`` listing every available name, so a
    typo at the CLI reads as a menu, not a stack trace.
    """
    files = _scenario_files(directory)
    if name not in files:
        root = Path(directory) if directory is not None else DEFAULT_SCENARIO_DIR
        available = ", ".join(sorted(files)) if files else "none"
        raise ValueError(
            f"unknown scenario name {name!r} (library: {root}); "
            f"available: {available}"
        )
    return files[name]


def load_by_name(
    name: str, directory: str | Path | None = None
) -> ScenarioSpec:
    """Load one curated scenario through :meth:`ScenarioSpec.load`."""
    return ScenarioSpec.load(str(scenario_path(name, directory)))


@dataclass(frozen=True)
class Expectations:
    """Parsed form of a spec's ``expectations:`` block.

    Every bound is optional; an absent bound is simply not checked.
    ``fast_oracle_parity`` is not a bound at all but a marker the test
    matrix honors by replaying the scenario through
    :func:`repro.simulation.reference.run_scenario` (the reference
    engine, fleet and cluster loop) and asserting bit-identical headline
    metrics.
    """

    p95_ttft_ms_max: float | None = None
    slo_attainment_min: float | None = None
    cost_max_usd: float | None = None
    min_completed: int | None = None
    max_lost: int | None = None
    fast_oracle_parity: bool = False

    @classmethod
    def from_spec(cls, spec: ScenarioSpec) -> "Expectations":
        """The spec's typed ``expectations`` section (none: no bounds)."""
        return cls(**(spec.expectations or {}))


@dataclass(frozen=True)
class ExpectationCheck:
    """One evaluated bound: what was required, what was observed.

    ``passed`` is ``None`` when the check could not be computed (the
    run dropped its samples) — skipped, neither green nor red.
    """

    name: str
    bound: float
    observed: float | None
    passed: bool | None

    def describe(self) -> str:
        status = (
            "skipped" if self.passed is None else "ok" if self.passed else "FAIL"
        )
        observed = "n/a" if self.observed is None else f"{self.observed:.4g}"
        return f"{self.name}: {observed} vs {self.bound:.4g} [{status}]"


@dataclass
class ExpectationReport:
    """Every check of one scenario run, in declaration order."""

    scenario: str
    checks: list[ExpectationCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """True when no check failed (skipped checks do not fail)."""
        return all(check.passed is not False for check in self.checks)

    def summary(self) -> str:
        if not self.checks:
            return f"{self.scenario}: no expectations declared"
        body = "; ".join(check.describe() for check in self.checks)
        return f"{self.scenario}: {body}"


def _ttft_attainment(result, slo_s: float) -> float | None:
    """Fraction of first tokens served within ``slo_s`` (None: no samples)."""
    if result.metrics is None:
        return None
    samples, _ = result.metrics.ttft_samples()
    if samples.size == 0:
        return None
    return float((samples <= slo_s).mean())


def _fleet_observations(spec: ScenarioSpec, result) -> dict:
    slo_s = None if spec.slo_ttft_ms is None else float(spec.slo_ttft_ms) / 1e3
    return {
        "p95_ttft_ms": float(result.ttft.p95_s) * 1e3,
        "slo_attainment": (
            None if slo_s is None else _ttft_attainment(result, slo_s)
        ),
        "cost_usd": result.bill(parse_profile(spec.profile), _PRICING)["total"],
        "completed": int(result.completed_total),
        "lost": int(result.lost),
    }


def _cluster_observations(spec: ScenarioSpec, result) -> dict:
    worst_p95 = max(
        float(result.results[t].ttft.p95_s) for t in result.tenants
    )
    attainments = []
    for tenant in result.tenants:
        slo = result.slos.get(tenant)
        if slo is None:
            continue
        attainments.append(_ttft_attainment(result.results[tenant], slo))
    attainment: float | None
    if not attainments:
        attainment = None
    elif any(a is None for a in attainments):
        attainment = None
    else:
        attainment = min(attainments)
    return {
        "p95_ttft_ms": worst_p95 * 1e3,
        "slo_attainment": attainment,
        "cost_usd": float(result.total_cost(_PRICING)),
        "completed": sum(
            int(result.results[t].completed_total) for t in result.tenants
        ),
        "lost": sum(int(result.results[t].lost) for t in result.tenants),
    }


def evaluate_expectations(spec: ScenarioSpec, result) -> ExpectationReport:
    """Score a finished run against its spec's ``expectations:`` block.

    ``result`` is the :class:`~repro.simulation.fleet.FleetResult` or
    :class:`~repro.simulation.cluster.ClusterResult` of running *this*
    spec; its pod-seconds are priced with the AWS-like on-prem table
    (and a cluster's rented ones with its own cloud catalog). Latency
    bounds evaluate against the *worst* tenant of a cluster run — a
    curated scenario is only healthy if every tenant is.
    """
    expectations = Expectations.from_spec(spec)
    observed = (
        _cluster_observations(spec, result)
        if result.kind == "cluster"
        else _fleet_observations(spec, result)
    )
    report = ExpectationReport(scenario=spec.name)

    def check(name, bound, value, ok) -> None:
        if bound is None:
            return
        passed = None if value is None else bool(ok(value, bound))
        report.checks.append(
            ExpectationCheck(
                name=name, bound=float(bound), observed=value, passed=passed
            )
        )

    check(
        "p95_ttft_ms_max",
        expectations.p95_ttft_ms_max,
        observed["p95_ttft_ms"],
        lambda v, b: v <= b,
    )
    check(
        "slo_attainment_min",
        expectations.slo_attainment_min,
        observed["slo_attainment"],
        lambda v, b: v >= b,
    )
    check(
        "cost_max_usd",
        expectations.cost_max_usd,
        observed["cost_usd"],
        lambda v, b: v <= b,
    )
    check(
        "min_completed",
        expectations.min_completed,
        float(observed["completed"]),
        lambda v, b: v >= b,
    )
    check(
        "max_lost",
        expectations.max_lost,
        float(observed["lost"]),
        lambda v, b: v <= b,
    )
    return report
