"""Declarative scenario specs: a whole simulation from one config file.

Every fleet and cluster experiment in this repo is the same handful of
decisions — which LLM on which GPU profile, how many pods, what traffic,
which router, admission control, autoscaling, and (for clusters) which
tenants share which inventory. A :class:`ScenarioSpec` captures those
decisions as one small declarative mapping (a Python dict, a JSON file,
or a YAML file when PyYAML is installed) and builds the ready-to-run
:class:`~repro.simulation.fleet.FleetSimulator` or
:class:`~repro.simulation.cluster.ClusterSimulator` from it — so every
benchmark and example scenario is a reviewable config artifact instead
of a page of construction code, and ``repro-pilot simulate/cluster-sim
--scenario FILE`` runs it end to end from the file alone.

A minimal fleet scenario::

    {"name": "replay-smoke",
     "duration_s": 30.0,
     "llm": "Llama-2-13b", "profile": "1xA100-40GB", "pods": 2,
     "workload": {"requests": 5000},
     "traffic": {"kind": "poisson", "rate_per_s": 2.0},
     "router": "weight-aware"}

``traffic.kind`` may be any synthetic model (``closed`` / ``poisson`` /
``diurnal`` / ``bursty``) or ``replay``, which drives the run from a
recorded arrival log (a CSV/JSONL path, inline ``arrivals`` rows, or a
``trace`` ``.npz`` bridged through
:meth:`~repro.simulation.replay.ArrivalLog.from_trace`) with time-warp,
horizon and seeded-bootstrap knobs. Adding a ``tenants`` list (plus a
GPU ``capacity`` map) turns the spec into a multi-tenant cluster
co-simulation; tenant entries inherit the top-level fields they do not
override. A ``faults`` section (``seed`` / ``zones`` / ``events``)
injects deterministic pod crashes, transient slowdowns and zone
outages into the run. A cluster scenario may add a ``cloud`` section
(mode / quota / catalog / burst caps) to let denied scale-ups burst to
an elastic, priced cloud tier with seeded spot preemptions. See
``docs/scenarios.md`` for the full reference.
"""

from __future__ import annotations

import inspect
import json
import math
import numbers
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.simulation.autoscale import (
    AUTOSCALE_POLICIES,
    AdmissionController,
    Autoscaler,
    AutoscaleConfig,
    PredictivePolicy,
    TargetUtilizationPolicy,
    ThresholdPolicy,
)
from repro.simulation.cluster import ClusterInventory
from repro.simulation.faults import FaultInjector, FaultSpec
from repro.simulation.fleet import ROUTERS, FleetResult, FleetSimulator, Router
from repro.simulation.replay import ArrivalLog, ReplayTraffic
from repro.simulation.traffic import (
    BurstyTraffic,
    ClosedLoopTraffic,
    DiurnalTraffic,
    PoissonTraffic,
    TrafficModel,
)
from repro.utils.rng import derive_rng, spawn_seed

if TYPE_CHECKING:
    from repro.simulation.cluster import ClusterResult, ClusterSimulator
    from repro.workload.generator import WorkloadGenerator

__all__ = ["ScenarioSpec", "fault_event_spec", "load_scenario"]

_TOP_KEYS = set(
    "name seed duration_s warmup_s llm profile pods max_batch_weight "
    "workload traffic router admission autoscaler slo_ttft_ms tenants "
    "capacity faults cloud expectations".split()
)
_TENANT_KEYS = set(
    "name llm profile pods max_batch_weight traffic router admission "
    "autoscaler slo_ttft_ms faults".split()
)
_TRAFFIC_KEYS = {
    "closed": {"users", "sticky"},
    "poisson": {"rate_per_s"},
    "diurnal": {"rate_per_s", "amplitude", "period_s", "phase_rad"},
    "bursty": set("rate_per_s off_rate_per_s mean_on_s mean_off_s start_on".split()),
    "replay": set(
        "path arrivals trace llm tenant speedup rate_per_s horizon_s "
        "bootstrap".split()
    ),
}
_ADMISSION_KEYS = set("mode slo_ttft_ms window_s retry_delay_s max_defers".split())
_AUTOSCALER_KEYS = set(
    "policy min_pods max_pods interval_s cold_start_s metrics_window_s "
    "slo_ttft_ms target requests_per_pod_per_s".split()
)
_WORKLOAD_KEYS = {"traces", "requests"}
_BOOTSTRAP_KEYS = {"n", "rate_per_s", "seed"}
_FAULTS_KEYS = {"seed", "zones", "events"}
_FAULT_EVENT_KEYS = {
    "crash": {"time_s", "pod", "mode", "restart_delay_s"},
    "slowdown": {"time_s", "pod", "zone", "duration_s", "factor"},
    "zone-outage": {"time_s", "zone", "mode", "restart_delay_s"},
    "spot-preempt": {"time_s", "pod", "mode"},
}
_CLOUD_KEYS = set(
    "mode max_cloud_pods price_cap_per_pod_hour quota "
    "spot_interruptions_per_hour seed catalog".split()
)
_CLOUD_CATALOG_KEYS = set(
    "on_demand spot reserved quota_gpus spot_interruptions_per_hour".split()
)
_EXPECTATION_KEYS = set(
    "p95_ttft_ms_max slo_attainment_min cost_max_usd min_completed "
    "max_lost fast_oracle_parity".split()
)
#: The numeric keys of each section, in report order (plus every value
#: of ``capacity`` and ``cloud.quota``). Each must be a finite number, and
#: a bool is not one; a key marked ``?`` may also be null, which the
#: ``build_*`` methods read as absent.
_NUMBER_KEYS = {
    "scenario": "duration_s warmup_s seed pods max_batch_weight slo_ttft_ms?",
    "tenant": "pods max_batch_weight slo_ttft_ms?",
    "traffic": (
        "users rate_per_s amplitude period_s phase_rad off_rate_per_s "
        "mean_on_s mean_off_s"
    ),
    "replay": "speedup rate_per_s? horizon_s?",
    "bootstrap": "n rate_per_s? seed",
    "router": "heavy_pod_fraction warmup window",
    "admission": "slo_ttft_ms window_s retry_delay_s max_defers",
    "autoscaler": (
        "min_pods max_pods interval_s cold_start_s metrics_window_s "
        "slo_ttft_ms target requests_per_pod_per_s"
    ),
    "workload": "requests",
    "faults": "seed zones",
    "fault event": "time_s pod? restart_delay_s? duration_s? factor?",
    "cloud": (
        "max_cloud_pods? price_cap_per_pod_hour? spot_interruptions_per_hour? seed"
    ),
    "catalog": "on_demand spot reserved quota_gpus? spot_interruptions_per_hour",
    "expectations": (
        "p95_ttft_ms_max slo_attainment_min cost_max_usd min_completed max_lost"
    ),
}


def _check_keys(mapping: dict, allowed: set[str], where: str) -> None:
    unknown = set(mapping) - allowed
    if unknown:
        raise ValueError(
            f"unknown key(s) in {where}: {sorted(unknown)}; "
            f"allowed: {sorted(allowed)}"
        )


def _is_number(value) -> bool:
    """A finite real number; a bool is not one (``true`` is not a pod
    count)."""
    return (
        isinstance(value, numbers.Real)
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def _number(value, cast):
    """``cast(value)`` for a number; anything else is kept for validation
    to reject by name — a string like ``"30"`` is never coerced."""
    return cast(value) if _is_number(value) else value


def _numbers(section, kind: str, where: str):
    """``(name, value)`` of each numeric key a ``kind`` section sets.

    The keys are :data:`_NUMBER_KEYS`'s; a null on a ``?`` key reads as
    absent and is skipped. A non-mapping yields nothing: its own shape
    check reports it.
    """
    if isinstance(section, dict):
        for key in _NUMBER_KEYS[kind].split():
            name = key.rstrip("?")
            if name in section and (section[name] is not None or name == key):
                yield f"{where}{name}", section[name]


def _number_errors(fields) -> list[str]:
    """One error per ``(name, value)`` field that is not a finite number."""
    return [
        f"{name} must be {'finite' if isinstance(value, float) else 'a number'}"
        f", got {value!r}"
        for name, value in fields
        if not _is_number(value)
    ]


def fault_event_spec(event: dict, where: str) -> FaultSpec:
    """One validated :class:`FaultSpec` from a fault-event mapping.

    The mapping is a scenario ``faults.events`` entry (or a compiled
    ``--fault`` flag): a ``kind``, a ``time_s`` and the keys that kind
    accepts. Every error names ``where``.
    """
    if not isinstance(event, dict) or "kind" not in event:
        raise ValueError(f"{where} needs a mapping with a 'kind'")
    kind = event["kind"]
    if kind not in _FAULT_EVENT_KEYS:
        raise ValueError(
            f"unknown fault kind {kind!r} in {where}; "
            f"known: {sorted(_FAULT_EVENT_KEYS)}"
        )
    if "time_s" not in event:
        raise ValueError(f"{where} needs a time_s")
    errors = _number_errors(_numbers(event, "fault event", f"{where} "))
    if errors:
        raise ValueError("; ".join(errors))

    def optional(key, cast):
        return None if event.get(key) is None else cast(event[key])

    try:
        # Field semantics (pod-vs-zone targeting, slowdown knobs,
        # positive delays) are FaultSpec's own contract; its messages
        # say why a key does not apply, so they come first.
        spec = FaultSpec(
            kind=str(kind),
            time_s=float(event["time_s"]),
            pod=optional("pod", int),
            zone=optional("zone", str),
            mode=str(event.get("mode", "requeue")),
            restart_delay_s=optional("restart_delay_s", float),
            duration_s=optional("duration_s", float),
            factor=optional("factor", float),
        )
    except ValueError as exc:
        raise ValueError(f"{where}: {exc}") from exc
    _check_keys(
        {k: v for k, v in event.items() if k != "kind"},
        _FAULT_EVENT_KEYS[kind],
        where,
    )
    return spec


@dataclass
class ScenarioSpec:
    """One validated scenario, ready to build and run.

    Construct via :meth:`from_dict` (which validates every section and
    raises ``ValueError`` naming the offending key) or :meth:`load`
    (JSON or, when PyYAML is available, YAML files). ``tenants`` being
    non-empty makes this a cluster scenario (:attr:`is_cluster`), in
    which case ``capacity`` must name the finite GPU inventory.
    """

    name: str
    duration_s: float
    traffic: dict | None = None
    seed: int = 0
    warmup_s: float = 0.0
    llm: str = "Llama-2-13b"
    profile: str = "1xA100-40GB"
    pods: int = 2
    max_batch_weight: int = 12_000
    workload: dict = field(default_factory=dict)
    router: str | dict = "least-loaded"
    admission: dict | None = None
    autoscaler: dict | None = None
    slo_ttft_ms: float | None = None
    faults: dict | None = None
    tenants: list[dict] = field(default_factory=list)
    capacity: dict[str, int] = field(default_factory=dict)
    cloud: dict | None = None
    expectations: dict | None = None

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "ScenarioSpec":
        """Validate a raw mapping into a :class:`ScenarioSpec`."""
        if not isinstance(spec, dict):
            raise ValueError(f"scenario spec must be a mapping, got {type(spec)}")
        _check_keys(spec, _TOP_KEYS, "scenario")
        if "duration_s" not in spec:
            raise ValueError("scenario needs a duration_s")
        out = cls(
            name=str(spec.get("name", "scenario")),
            duration_s=_number(spec["duration_s"], float),
            traffic=spec.get("traffic"),
            seed=_number(spec.get("seed", 0), int),
            warmup_s=_number(spec.get("warmup_s", 0.0), float),
            llm=str(spec.get("llm", cls.llm)),
            profile=str(spec.get("profile", cls.profile)),
            pods=_number(spec.get("pods", cls.pods), int),
            max_batch_weight=_number(
                spec.get("max_batch_weight", cls.max_batch_weight), int
            ),
            workload=dict(spec.get("workload") or {}),
            router=spec.get("router", "least-loaded"),
            admission=spec.get("admission"),
            autoscaler=spec.get("autoscaler"),
            slo_ttft_ms=_number(spec.get("slo_ttft_ms"), float),
            faults=spec.get("faults"),
            tenants=[dict(t) for t in spec.get("tenants") or []],
            capacity={
                str(k): _number(v, int) for k, v in (spec.get("capacity") or {}).items()
            },
            cloud=spec.get("cloud"),
            expectations=spec.get("expectations"),
        )
        out._validate()
        return out

    @classmethod
    def load(cls, path: str) -> "ScenarioSpec":
        """Parse a scenario file: ``.json`` always, ``.yaml``/``.yml``
        when PyYAML is importable (a clear error otherwise).

        Parse and validation errors are re-raised with ``path`` prefixed
        so a failure inside a batch of spec files names its file.
        """
        with open(path) as fh:
            text = fh.read()
        try:
            if path.endswith((".yaml", ".yml")):
                try:
                    import yaml
                except ImportError as exc:  # pragma: no cover - env dependent
                    raise ValueError(
                        f"is a YAML scenario but PyYAML is not "
                        "installed; use a .json spec or install pyyaml"
                    ) from exc
                try:
                    raw = yaml.safe_load(text)
                except yaml.YAMLError as exc:
                    # Not a ValueError subclass: without this wrap, a
                    # malformed file would escape without its path.
                    raise ValueError(f"invalid YAML: {exc}") from exc
            else:
                raw = json.loads(text)
            return cls.from_dict(raw)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def _validate(self) -> None:
        """Check every section, collecting failures so a bad spec reports
        all of its problems in one ``ValueError`` (joined with ``; ``)
        instead of one per edit-run-fix round trip. A spec with a single
        problem raises exactly the message that check always raised."""
        errors: list[str] = []

        def check(fn, *args) -> None:
            try:
                fn(*args)
            except ValueError as exc:
                errors.append(str(exc))

        def require(ok: bool, message: str) -> None:
            if not ok:
                errors.append(message)

        errors += _number_errors(self._number_fields())
        # Range checks apply to numbers only; the rest failed above.
        if _is_number(self.duration_s):
            require(
                self.duration_s > 0,
                f"duration_s must be positive, got {self.duration_s}",
            )
        if _is_number(self.warmup_s):
            require(self.warmup_s >= 0, f"warmup_s must be >= 0, got {self.warmup_s}")
        if _is_number(self.pods):
            require(self.pods >= 1, f"pods must be >= 1, got {self.pods}")
        check(_check_keys, self.workload, _WORKLOAD_KEYS, "workload")
        check(self._validate_faults, self.faults, "scenario faults")
        check(self._validate_cloud)
        check(self._validate_expectations)
        if self.cloud is not None and not self.tenants:
            errors.append(
                "a cloud section needs tenants: bursting is a cluster decision"
            )
        if self.tenants:
            require(
                bool(self.capacity),
                "a cluster scenario (tenants) needs a capacity map",
            )
            names = []
            for tenant in self.tenants:
                check(_check_keys, tenant, _TENANT_KEYS, "tenant")
                if "name" not in tenant:
                    errors.append("every tenant needs a name")
                    continue
                names.append(tenant["name"])
                check(
                    self._validate_traffic,
                    tenant.get("traffic", self.traffic),
                    f"tenant {tenant['name']!r}",
                )
                if "faults" in tenant:
                    check(
                        self._validate_faults,
                        tenant["faults"],
                        f"tenant {tenant['name']!r} faults",
                    )
            require(
                len(set(names)) == len(names), f"duplicate tenant names: {names}"
            )
        else:
            check(self._validate_traffic, self.traffic, "scenario")
        for section in (self.admission, *(t.get("admission") for t in self.tenants)):
            if section is not None:
                check(_check_keys, section, _ADMISSION_KEYS, "admission")
        for section in (self.autoscaler, *(t.get("autoscaler") for t in self.tenants)):
            if section is not None:
                check(_check_keys, section, _AUTOSCALER_KEYS, "autoscaler")
                policy = section.get("policy", "threshold")
                require(
                    policy in AUTOSCALE_POLICIES,
                    f"unknown autoscaler policy {policy!r}; "
                    f"known: {sorted(AUTOSCALE_POLICIES)}",
                )
        for router in (self.router, *(t.get("router") for t in self.tenants)):
            if router is None:
                continue
            kind = router.get("kind") if isinstance(router, dict) else router
            if kind not in ROUTERS:
                errors.append(f"unknown router {kind!r}; known: {sorted(ROUTERS)}")
            elif isinstance(router, dict):
                accepted = set(
                    inspect.signature(ROUTERS[kind].__init__).parameters
                ) - {"self"}
                check(
                    _check_keys,
                    {k: v for k, v in router.items() if k != "kind"},
                    accepted,
                    f"router[{kind}]",
                )
        if errors:
            raise ValueError("; ".join(errors))

    def _number_fields(self):
        """``(name, value)`` of every numeric field the spec sets.

        The top level first, then each tenant's overrides, each named by
        section, tenant and key; fault events are checked by
        :func:`fault_event_spec`.
        """
        owners = [("", vars(self))] + [
            (f"tenant {t['name']!r} " if "name" in t else f"tenant[{i}] ", t)
            for i, t in enumerate(self.tenants)
        ]
        for prefix, owner in owners:
            yield from _numbers(owner, "tenant" if prefix else "scenario", prefix)
            if not prefix:
                yield from ((f"capacity[{g}]", n) for g, n in self.capacity.items())
            traffic = owner.get("traffic")
            if isinstance(traffic, dict):
                kind = traffic.get("kind")
                where = f"{prefix}traffic[{kind}] "
                yield from _numbers(
                    traffic, "replay" if kind == "replay" else "traffic", where
                )
                yield from _numbers(
                    traffic.get("bootstrap"), "bootstrap", f"{where}bootstrap "
                )
            for kind in ("router", "admission", "autoscaler", "workload", "faults"):
                yield from _numbers(owner.get(kind), kind, f"{prefix}{kind} ")
        cloud = self.cloud if isinstance(self.cloud, dict) else {}
        yield from _numbers(cloud, "cloud", "cloud ")
        quota = cloud.get("quota")
        if isinstance(quota, dict):
            yield from ((f"cloud quota[{g}]", n) for g, n in quota.items())
        catalog = cloud.get("catalog")
        if isinstance(catalog, dict):
            for gpu, entry in catalog.items():
                yield from _numbers(entry, "catalog", f"cloud catalog[{gpu}] ")
        yield from _numbers(self.expectations, "expectations", "expectations ")

    @staticmethod
    def _validate_traffic(traffic: dict | None, where: str) -> None:
        if not isinstance(traffic, dict) or "kind" not in traffic:
            raise ValueError(f"{where} needs a traffic mapping with a 'kind'")
        kind = traffic["kind"]
        if kind not in _TRAFFIC_KEYS:
            raise ValueError(
                f"unknown traffic kind {kind!r} in {where}; "
                f"known: {sorted(_TRAFFIC_KEYS)}"
            )
        _check_keys(
            {k: v for k, v in traffic.items() if k != "kind"},
            _TRAFFIC_KEYS[kind],
            f"{where} traffic[{kind}]",
        )
        if kind == "closed" and "users" not in traffic:
            raise ValueError(f"closed-loop traffic in {where} needs 'users'")
        if kind != "closed" and kind != "replay" and "rate_per_s" not in traffic:
            raise ValueError(f"{kind} traffic in {where} needs 'rate_per_s'")
        if kind == "replay":
            sources = [k for k in ("path", "arrivals", "trace") if k in traffic]
            if len(sources) != 1:
                raise ValueError(
                    f"replay traffic in {where} needs exactly one of "
                    f"'path', 'arrivals' or 'trace', got {sources or 'none'}"
                )
            if "llm" in traffic and "trace" not in traffic:
                raise ValueError(
                    f"replay 'llm' in {where} only applies to a 'trace' "
                    "source (CSV/JSONL logs are already per-service)"
                )
            boot = traffic.get("bootstrap")
            if boot is not None:
                if not isinstance(boot, dict) or "n" not in boot:
                    raise ValueError(
                        f"replay bootstrap in {where} needs a mapping with an 'n'"
                    )
                _check_keys(boot, _BOOTSTRAP_KEYS, f"{where} replay bootstrap")

    @staticmethod
    def _validate_faults(section: dict | None, where: str) -> None:
        if section is None:
            return
        if not isinstance(section, dict):
            raise ValueError(f"{where} must be a mapping, got {type(section)}")
        _check_keys(section, _FAULTS_KEYS, where)
        zones = section.get("zones", 1)
        if _is_number(zones) and zones < 1:
            raise ValueError(f"{where} zones must be >= 1, got {zones}")
        events = section.get("events", [])
        if not isinstance(events, list):
            raise ValueError(f"{where} events must be a list, got {type(events)}")
        for i, event in enumerate(events):
            fault_event_spec(event, f"{where} event[{i}]")

    def _validate_expectations(self) -> None:
        """The ``expectations`` section, when present, is a mapping of
        known bound names to non-negative numbers (plus the boolean
        ``fast_oracle_parity`` marker). Evaluation lives in
        :mod:`repro.simulation.library`; only the shape is checked here
        so a curated scenario file fails at load, not mid-matrix. That
        each bound is a finite number is :data:`_NUMBER_KEYS`' check;
        the range checks below skip the values it rejects."""
        section = self.expectations
        if section is None:
            return
        if not isinstance(section, dict):
            raise ValueError(
                f"expectations must be a mapping, got {type(section)}"
            )
        _check_keys(section, _EXPECTATION_KEYS, "expectations")
        for key, value in section.items():
            if key == "fast_oracle_parity":
                if not isinstance(value, bool):
                    raise ValueError(
                        f"expectations fast_oracle_parity must be a "
                        f"boolean, got {value!r}"
                    )
            elif _is_number(value) and value < 0:
                raise ValueError(
                    f"expectations {key} must be >= 0, got {value}"
                )
        attainment = section.get("slo_attainment_min")
        if _is_number(attainment):
            if attainment > 1.0:
                raise ValueError(
                    f"expectations slo_attainment_min is a fraction, "
                    f"got {attainment}"
                )
            has_slo = self.slo_ttft_ms is not None or (
                self.tenants
                and all("slo_ttft_ms" in t for t in self.tenants)
            )
            if not has_slo:
                raise ValueError(
                    "expectations slo_attainment_min needs slo_ttft_ms "
                    "on the scenario (or on every tenant)"
                )

    def _validate_cloud(self) -> None:
        from repro.hardware.pricing import CLOUD_PRICING_MODES

        section = self.cloud
        if section is None:
            return
        if not isinstance(section, dict):
            raise ValueError(f"cloud must be a mapping, got {type(section)}")
        _check_keys(section, _CLOUD_KEYS, "cloud")
        mode = section.get("mode", "on-demand")
        if mode not in CLOUD_PRICING_MODES:
            raise ValueError(
                f"unknown cloud mode {mode!r}; "
                f"known: {sorted(CLOUD_PRICING_MODES)}"
            )
        for key in ("max_cloud_pods", "price_cap_per_pod_hour"):
            value = section.get(key)
            if _is_number(value) and value < 0:
                raise ValueError(f"cloud {key} must be >= 0, got {value}")
        quota = section.get("quota") or {}
        if not isinstance(quota, dict):
            raise ValueError(f"cloud quota must be a mapping, got {type(quota)}")
        for gpu, cap in quota.items():
            if _is_number(cap) and cap < 0:
                raise ValueError(f"cloud quota for {gpu} must be >= 0, got {cap}")
        catalog = section.get("catalog")
        if catalog is not None:
            if not isinstance(catalog, dict) or not catalog:
                raise ValueError("cloud catalog must be a non-empty mapping")
            for gpu, entry in catalog.items():
                if not isinstance(entry, dict):
                    raise ValueError(
                        f"cloud catalog entry for {gpu} must be a mapping"
                    )
                _check_keys(entry, _CLOUD_CATALOG_KEYS, f"cloud catalog[{gpu}]")
                for mode_key in ("on_demand", "spot", "reserved"):
                    if mode_key not in entry:
                        raise ValueError(
                            f"cloud catalog[{gpu}] needs a {mode_key} price"
                        )

    def build_cloud(self) -> "tuple | None":
        """The (CloudLedger, BurstPolicy) pair of the ``cloud`` section.

        None when the scenario declares no cloud tier. The catalog is
        the AWS-like default unless the section supplies its own; the
        ``quota`` mapping overlays account GPU caps either way, and the
        ledger's seed (spot-preemption schedules) defaults to the
        scenario seed.
        """
        from repro.hardware.pricing import (
            CloudCatalog,
            CloudInstanceType,
            aws_like_cloud_catalog,
        )
        from repro.simulation.cloud import BurstPolicy, CloudLedger

        if self.cloud is None:
            return None
        section = self.cloud
        quota = {
            str(gpu): int(cap) for gpu, cap in (section.get("quota") or {}).items()
        }
        rate = section.get("spot_interruptions_per_hour")
        if section.get("catalog"):
            instances = {}
            for gpu, entry in section["catalog"].items():
                entry_rate = entry.get(
                    "spot_interruptions_per_hour",
                    0.0 if rate is None else float(rate),
                )
                instances[str(gpu)] = CloudInstanceType(
                    gpu=str(gpu),
                    on_demand=float(entry["on_demand"]),
                    spot=float(entry["spot"]),
                    reserved=float(entry["reserved"]),
                    quota_gpus=quota.get(
                        str(gpu), entry.get("quota_gpus")
                    ),
                    spot_interruptions_per_hour=float(entry_rate),
                )
            catalog = CloudCatalog(instances=instances)
        else:
            catalog = aws_like_cloud_catalog(
                quota_gpus=quota,
                spot_interruptions_per_hour=(
                    0.05 if rate is None else float(rate)
                ),
            )
        policy = BurstPolicy(
            mode=str(section.get("mode", "on-demand")),
            max_cloud_pods=(
                None
                if section.get("max_cloud_pods") is None
                else int(section["max_cloud_pods"])
            ),
            price_cap_per_pod_hour=(
                None
                if section.get("price_cap_per_pod_hour") is None
                else float(section["price_cap_per_pod_hour"])
            ),
        )
        ledger = CloudLedger(
            catalog=catalog, seed=int(section.get("seed", self.seed))
        )
        return ledger, policy

    @property
    def is_cluster(self) -> bool:
        """True when this spec describes a multi-tenant co-simulation."""
        return bool(self.tenants)

    # ---- builders ---------------------------------------------------------

    def build_generator(self) -> "WorkloadGenerator":
        """The workload generator behind every synthetic request draw.

        Fitted to the ``workload.traces`` ``.npz`` collection when given,
        else to a freshly synthesized trace of ``workload.requests``
        (default 50k) rows under the scenario seed — so a spec file with
        no side files is still fully self-contained.
        """
        from repro.traces import TraceConfig, TraceDataset, TraceSynthesizer
        from repro.workload.generator import WorkloadGenerator

        if self.workload.get("traces"):
            traces = TraceDataset.load(self.workload["traces"])
        else:
            config = TraceConfig(n_requests=int(self.workload.get("requests", 50_000)))
            traces = TraceSynthesizer(config=config, seed=self.seed).generate()
        return WorkloadGenerator.fit(traces)

    def build_traffic(
        self, traffic: dict | None = None, label: str = ""
    ) -> TrafficModel:
        """One traffic model from a traffic mapping (seeded per label)."""
        traffic = dict(self.traffic if traffic is None else traffic)
        kind = traffic.pop("kind")
        rng = derive_rng(self.seed, "scenario-traffic", label, kind)
        if kind == "closed":
            return ClosedLoopTraffic(
                int(traffic["users"]), sticky=bool(traffic.get("sticky", True))
            )
        if kind == "poisson":
            return PoissonTraffic(float(traffic["rate_per_s"]), rng=rng)
        if kind == "diurnal":
            return DiurnalTraffic(
                float(traffic["rate_per_s"]),
                rng=rng,
                amplitude=float(traffic.get("amplitude", 0.8)),
                period_s=float(traffic.get("period_s", 600.0)),
                phase_rad=float(traffic.get("phase_rad", 0.0)),
            )
        if kind == "bursty":
            return BurstyTraffic(
                float(traffic["rate_per_s"]),
                rng=rng,
                off_rate_per_s=float(traffic.get("off_rate_per_s", 0.0)),
                mean_on_s=float(traffic.get("mean_on_s", 20.0)),
                mean_off_s=float(traffic.get("mean_off_s", 40.0)),
                start_on=bool(traffic.get("start_on", True)),
            )
        return self._build_replay(traffic, label)

    def _build_replay(self, traffic: dict, label: str) -> ReplayTraffic:
        """Replay traffic: load the log, then apply the spec's transforms."""
        if "path" in traffic:
            log = ArrivalLog.load(traffic["path"])
        elif "arrivals" in traffic:
            rows = traffic["arrivals"]
            log = ArrivalLog.from_columns(
                {
                    "timestamp": [r[0] for r in rows],
                    "input_tokens": [r[1] for r in rows],
                    "output_tokens": [r[2] for r in rows],
                    "batch_size": [r[3] if len(r) > 3 else 1 for r in rows],
                }
            )
        else:
            from repro.traces import TraceDataset

            log = ArrivalLog.from_trace(
                TraceDataset.load(traffic["trace"]), llm=traffic.get("llm")
            )
        if traffic.get("tenant") is not None:
            log = log.for_tenant(traffic["tenant"])
        if traffic.get("bootstrap") is not None:
            boot = traffic["bootstrap"]
            log = log.bootstrap(
                int(boot["n"]),
                rng=derive_rng(
                    int(boot.get("seed", self.seed)), "scenario-bootstrap", label
                ),
                rate_per_s=boot.get("rate_per_s"),
            )
        if traffic.get("rate_per_s") is not None:
            log = log.warp_to_rate(float(traffic["rate_per_s"]))
        return ReplayTraffic(
            log,
            speedup=float(traffic.get("speedup", 1.0)),
            horizon_s=traffic.get("horizon_s"),
        )

    def _build_router(self, router: str | dict | None) -> Router:
        spec = self.router if router is None else router
        if isinstance(spec, dict):
            kwargs = {k: v for k, v in spec.items() if k != "kind"}
            return ROUTERS[spec["kind"]](**kwargs)
        return ROUTERS[spec]()

    def _default_slo_ms(self) -> float:
        """SLO the admission/threshold sections fall back to.

        The spec-level ``slo_ttft_ms`` (when given) drives shedding and
        threshold scaling too — one number, like the CLI's
        ``--slo-ttft-ms`` — so the fleet protects the SLO it reports on.
        """
        return 2000.0 if self.slo_ttft_ms is None else float(self.slo_ttft_ms)

    def _wrap_admission(self, router: Router, admission: dict | None) -> Router:
        if admission is None:
            return router
        return AdmissionController(
            router,
            slo_p95_ttft_s=float(admission.get("slo_ttft_ms", self._default_slo_ms()))
            / 1e3,
            window_s=float(admission.get("window_s", 30.0)),
            mode=admission.get("mode", "shed"),
            retry_delay_s=float(admission.get("retry_delay_s", 5.0)),
            max_defers=int(admission.get("max_defers", 3)),
        )

    def _build_autoscaler(self, section: dict | None) -> Autoscaler | None:
        if section is None:
            return None
        policy_name = section.get("policy", "threshold")
        if policy_name == "threshold":
            policy = ThresholdPolicy(
                slo_p95_ttft_s=float(section.get("slo_ttft_ms", self._default_slo_ms()))
                / 1e3
            )
        elif policy_name == "target-utilization":
            policy = TargetUtilizationPolicy(target=float(section.get("target", 0.6)))
        elif policy_name == "predictive":
            policy = PredictivePolicy(
                requests_per_pod_per_s=float(
                    section.get("requests_per_pod_per_s", 2.0)
                ),
                horizon_s=float(section.get("cold_start_s", 10.0)),
            )
        else:
            policy = AUTOSCALE_POLICIES[policy_name]()
        return Autoscaler(
            policy,
            AutoscaleConfig(
                decision_interval_s=float(section.get("interval_s", 15.0)),
                min_pods=int(section.get("min_pods", 1)),
                max_pods=int(section.get("max_pods", 16)),
                cold_start_s=float(section.get("cold_start_s", 10.0)),
                metrics_window_s=float(section.get("metrics_window_s", 30.0)),
            ),
        )

    def _build_faults(self, section: dict | None, label: str) -> FaultInjector | None:
        """One seeded fault injector from a ``faults`` section.

        ``None`` when the section is absent or declares no events. The
        victim-pick stream is derived from the section's own ``seed``
        (default: scenario seed) and the fleet/tenant label, so two
        tenants inheriting one top-level section draw independent
        victims while staying reproducible.
        """
        if section is None or not section.get("events"):
            return None
        specs = [
            fault_event_spec(event, f"{label} faults")
            for event in section["events"]
        ]
        return FaultInjector(
            specs,
            seed=spawn_seed(
                int(section.get("seed", self.seed)), "scenario-faults", label
            ),
        )

    @staticmethod
    def _zones(section: dict | None) -> int:
        return int(section.get("zones", 1)) if section else 1

    def _types(self) -> tuple[type, type]:
        """The ``(Deployment, ClusterSimulator)`` classes the builders use.

        The one hook :func:`repro.simulation.reference.run_scenario`
        overrides to run a spec on the reference simulator.
        """
        from repro.cluster.deployment import Deployment
        from repro.simulation.cluster import ClusterSimulator

        return Deployment, ClusterSimulator

    def _deployment(
        self,
        generator,
        llm: str,
        profile: str,
        pods: int,
        max_batch_weight: int,
        n_zones: int = 1,
    ):
        from repro.hardware.profile import parse_profile
        from repro.models import get_llm

        deployment_type, _ = self._types()
        return deployment_type(
            llm=get_llm(llm),
            profile=parse_profile(profile),
            n_pods=pods,
            max_batch_weight=max_batch_weight,
            generator=generator,
            seed=self.seed,
            n_zones=n_zones,
        )

    def build_fleet(self, generator=None) -> FleetSimulator:
        """The single-tenant form: one ready-to-run fleet simulator."""
        if self.is_cluster:
            raise ValueError(
                f"scenario {self.name!r} declares tenants; build_cluster() "
                "is the entry point for cluster scenarios"
            )
        generator = generator or self.build_generator()
        deployment = self._deployment(
            generator,
            self.llm,
            self.profile,
            self.pods,
            self.max_batch_weight,
            n_zones=self._zones(self.faults),
        )
        router = self._wrap_admission(self._build_router(None), self.admission)
        return deployment.fleet(
            self.build_traffic(label=self.name),
            router=router,
            stream_label=self.name,
            autoscaler=self._build_autoscaler(self.autoscaler),
            faults=self._build_faults(self.faults, self.name),
        )

    def build_cluster(self, generator=None) -> "ClusterSimulator":
        """The multi-tenant form: tenants contending for one inventory.

        Tenant entries inherit every top-level field they do not
        override (llm, profile, pods, traffic, router, admission,
        autoscaler, slo_ttft_ms, max_batch_weight, faults).
        """
        if not self.is_cluster:
            raise ValueError(
                f"scenario {self.name!r} has no tenants; build_fleet() "
                "is the entry point for single-fleet scenarios"
            )
        generator = generator or self.build_generator()
        groups = []
        for tenant in self.tenants:
            fault_section = tenant.get("faults", self.faults)
            deployment = self._deployment(
                generator,
                tenant.get("llm", self.llm),
                tenant.get("profile", self.profile),
                int(tenant.get("pods", self.pods)),
                int(tenant.get("max_batch_weight", self.max_batch_weight)),
                n_zones=self._zones(fault_section),
            )
            router = self._wrap_admission(
                self._build_router(tenant.get("router", self.router)),
                tenant.get("admission", self.admission),
            )
            slo_ms = tenant.get("slo_ttft_ms", self.slo_ttft_ms)
            groups.append(
                deployment.tenant_group(
                    tenant["name"],
                    self.build_traffic(
                        tenant.get("traffic", self.traffic), label=tenant["name"]
                    ),
                    router=router,
                    autoscaler=self._build_autoscaler(
                        tenant.get("autoscaler", self.autoscaler)
                    ),
                    slo_p95_ttft_s=None if slo_ms is None else float(slo_ms) / 1e3,
                    faults=self._build_faults(fault_section, tenant["name"]),
                )
            )
        cloud = self.build_cloud()
        _, cluster_type = self._types()
        return cluster_type(
            groups,
            ClusterInventory(capacity=dict(self.capacity)),
            cloud=None if cloud is None else cloud[0],
            burst=None if cloud is None else cloud[1],
        )

    def run(
        self, keep_samples: bool = False, generator=None
    ) -> "FleetResult | ClusterResult":
        """Build and run the scenario; conservation-checked result.

        Returns a :class:`~repro.simulation.fleet.FleetResult` for fleet
        scenarios and a :class:`~repro.simulation.cluster.ClusterResult`
        for cluster scenarios. A pre-fitted workload ``generator`` (for
        callers running many scenarios off one trace collection) passes
        straight through to the builders.
        """
        if self.is_cluster:
            result = self.build_cluster(generator=generator).run(
                duration_s=self.duration_s,
                warmup_s=self.warmup_s,
                keep_samples=keep_samples,
            )
        else:
            result = self.build_fleet(generator=generator).run(
                duration_s=self.duration_s,
                warmup_s=self.warmup_s,
                keep_samples=keep_samples,
            )
        result.verify_conservation()
        return result


def load_scenario(path: str) -> ScenarioSpec:
    """Module-level alias for :meth:`ScenarioSpec.load` (CLI entry)."""
    return ScenarioSpec.load(path)
