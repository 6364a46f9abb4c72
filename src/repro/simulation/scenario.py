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

import json
import numbers
import sys
from typing import TYPE_CHECKING, NamedTuple

from repro.hardware.pricing import CLOUD_PRICING_MODES
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
from repro.simulation.faults import FAULT_MODES, FaultInjector, FaultSpec
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

__all__ = ["ScenarioSpec", "fault_event_spec"]


class Key(NamedTuple):
    """One key of a :data:`SCHEMA` section.

    ``kind`` is ``number``, ``int``, ``str``, ``bool``, ``choice`` (one
    of ``rng``), ``section`` (a mapping checked against section ``of``),
    ``list`` (of ``of`` sections), ``rows`` (``of`` sections written as
    positional lists) or ``map`` (name -> a value of Key ``of``). ``rng``
    bounds a number: ``"> 0"``, ``">= 1"`` or an interval such as
    ``"(0, 1]"``. A key whose ``default`` is ``None`` may be null, and so
    may one marked ``null``; either way a null reads as the default.
    """

    kind: str
    default: object = None
    rng: object = None
    of: object = None
    null: bool = False


#: Defaults that are not values: the key must be given, or (a tenant's)
#: it takes the scenario's value.
REQUIRED, INHERIT = "required", "inherited"

_RATE = Key("number", REQUIRED, "> 0")
_COUNTS = Key("map", {}, of=Key("int", REQUIRED, ">= 0"), null=True)
_TIME = Key("number", REQUIRED, ">= 0")
_MODE = Key("choice", "requeue", FAULT_MODES)
_RESTART = Key("number", None, "> 0")

#: Every key of every section of a scenario spec, in report order. A
#: section whose entries are tables is tagged: its ``kind`` key picks
#: one. :func:`_section` checks a spec against this table and fills in
#: the defaults; docs/scenarios.md has one reference table per section,
#: and ``tools/check_docs.py`` holds the two to each other.
SCHEMA: dict[str, dict] = {
    "scenario": {
        "name": Key("str", "scenario"),
        "duration_s": Key("number", REQUIRED, "> 0"),
        "warmup_s": Key("number", 0.0, ">= 0"),
        "seed": Key("int", 0),
        "llm": Key("str", "Llama-2-13b"),
        "profile": Key("str", "1xA100-40GB"),
        "pods": Key("int", 2, ">= 1"),
        "max_batch_weight": Key("int", 12_000, ">= 2"),
        "slo_ttft_ms": Key("number", None, "> 0"),
        "capacity": _COUNTS,
        "workload": Key("section", {}, of="workload", null=True),
        "tenants": Key("list", [], of="tenant", null=True),
        "traffic": Key("section", of="traffic"),
        "router": Key("section", "least-loaded", of="router"),
        "admission": Key("section", of="admission"),
        "autoscaler": Key("section", of="autoscaler"),
        "faults": Key("section", of="faults"),
        "cloud": Key("section", of="cloud"),
        "expectations": Key("section", of="expectations"),
    },
    "workload": {
        "traces": Key("str"),
        "requests": Key("int", 50_000, ">= 1"),
    },
    "traffic": {
        "closed": {
            "users": Key("int", REQUIRED, ">= 1"),
            "sticky": Key("bool", True),
        },
        "poisson": {"rate_per_s": _RATE},
        "diurnal": {
            "rate_per_s": _RATE,
            "amplitude": Key("number", 0.8, "[0, 1]"),
            "period_s": Key("number", 600.0, "> 0"),
            "phase_rad": Key("number", 0.0),
        },
        "bursty": {
            "rate_per_s": _RATE,
            "off_rate_per_s": Key("number", 0.0, ">= 0"),
            "mean_on_s": Key("number", 20.0, "> 0"),
            "mean_off_s": Key("number", 40.0, "> 0"),
            "start_on": Key("bool", True),
        },
        "replay": {
            "path": Key("str"),
            "arrivals": Key("rows", of="arrival"),
            "trace": Key("str"),
            "llm": Key("str"),
            "tenant": Key("str"),
            "speedup": Key("number", 1.0, "> 0"),
            "rate_per_s": Key("number", None, "> 0"),
            "horizon_s": Key("number", None, "> 0"),
            "bootstrap": Key("section", of="bootstrap"),
        },
    },
    "arrival": {
        "timestamp": Key("number", REQUIRED),
        "input_tokens": Key("int", REQUIRED, ">= 1"),
        "output_tokens": Key("int", REQUIRED, ">= 1"),
        "batch_size": Key("int", 1, ">= 1"),
    },
    "bootstrap": {
        "n": Key("int", REQUIRED, ">= 1"),
        "rate_per_s": Key("number", None, "> 0"),
        "seed": Key("int"),
    },
    "router": {
        **{name: {} for name in ROUTERS},
        "weight-aware": {
            "heavy_pod_fraction": Key("number", 0.25, "(0, 1)"),
            "warmup": Key("int", 64, ">= 1"),
            "window": Key("int", 512, ">= 1"),
        },
    },
    "admission": {
        "mode": Key("choice", "shed", ("shed", "defer")),
        "slo_ttft_ms": Key("number", None, "> 0"),
        "window_s": Key("number", 30.0, "> 0"),
        "retry_delay_s": Key("number", 5.0, "> 0"),
        "max_defers": Key("int", 3, ">= 0"),
    },
    "autoscaler": {
        "policy": Key("choice", "threshold", tuple(AUTOSCALE_POLICIES)),
        "min_pods": Key("int", 1, ">= 1"),
        "max_pods": Key("int", 16, ">= 1"),
        "interval_s": Key("number", 15.0, "> 0"),
        "cold_start_s": Key("number", 10.0, ">= 0"),
        "metrics_window_s": Key("number", 30.0, "> 0"),
        "slo_ttft_ms": Key("number", None, "> 0"),
        "target": Key("number", 0.6, "(0, 1]"),
        "requests_per_pod_per_s": Key("number", 2.0, "> 0"),
    },
    "faults": {
        "seed": Key("int"),
        "zones": Key("int", 1, ">= 1"),
        "events": Key("list", [], of="event"),
    },
    "event": {
        "crash": {
            "time_s": _TIME,
            "pod": Key("int"),
            "mode": _MODE,
            "restart_delay_s": _RESTART,
        },
        "slowdown": {
            "time_s": _TIME,
            "pod": Key("int"),
            "zone": Key("str"),
            "duration_s": Key("number", REQUIRED, "> 0"),
            "factor": Key("number", REQUIRED, "> 0"),
        },
        "zone-outage": {
            "time_s": _TIME,
            "zone": Key("str", REQUIRED),
            "mode": _MODE,
            "restart_delay_s": _RESTART,
        },
        "spot-preempt": {"time_s": _TIME, "pod": Key("int"), "mode": _MODE},
    },
    "cloud": {
        "mode": Key("choice", "on-demand", CLOUD_PRICING_MODES),
        "max_cloud_pods": Key("int", None, ">= 0"),
        "price_cap_per_pod_hour": Key("number", None, ">= 0"),
        "spot_interruptions_per_hour": Key("number", None, ">= 0"),
        "seed": Key("int"),
        "quota": _COUNTS,
        "catalog": Key("map", of=Key("section", of="catalog")),
    },
    "catalog": {
        "on_demand": Key("number", REQUIRED, ">= 0"),
        "spot": Key("number", REQUIRED, ">= 0"),
        "reserved": Key("number", REQUIRED, ">= 0"),
        "quota_gpus": Key("int", None, ">= 0"),
        "spot_interruptions_per_hour": Key("number", None, ">= 0"),
    },
    "expectations": {
        "p95_ttft_ms_max": Key("number", None, ">= 0"),
        "slo_attainment_min": Key("number", None, "[0, 1]"),
        "cost_max_usd": Key("number", None, ">= 0"),
        "min_completed": Key("int", None, ">= 0"),
        "max_lost": Key("int", None, ">= 0"),
        "fast_oracle_parity": Key("bool", False),
    },
}
#: The scenario keys a tenant may override; the ones it leaves out it
#: inherits, and its null on a nullable key stays null.
_INHERITED = (
    "llm profile pods max_batch_weight slo_ttft_ms traffic router admission "
    "autoscaler faults"
).split()
SCHEMA["tenant"] = {
    "name": Key("str", REQUIRED),
    **{
        key: spec._replace(default=INHERIT, null=spec.null or spec.default is None)
        for key, spec in SCHEMA["scenario"].items()
        if key in _INHERITED
    },
}

#: Sections handed to a constructor once their keys check out, so its
#: own cross-field contract (a fault targets a pod or a zone) runs at load.
_TYPES = {"event": FaultSpec}


def _first(*values):
    """The first of ``values`` that is not ``None``: a left-out key's
    default that depends on another field."""
    return next(v for v in values if v is not None)


def _join(path: str, key: str) -> str:
    return f"{path} {key}" if path else key


def _describe(rng: str) -> str:
    """A range as the error states it: ``positive``, ``>= 1``, ``in (0, 1]``."""
    if rng == "> 0":
        return "positive"
    return f"in {rng}" if rng[0] in "([" else rng


def _in_range(value, rng: str) -> bool:
    if rng[0] in "([":
        lo, hi = (float(x) for x in rng[1:-1].split(","))
        above = lo < value if rng[0] == "(" else lo <= value
        return above and (value < hi if rng[-1] == ")" else value <= hi)
    op, bound = rng.split()
    return value > float(bound) if op == ">" else value >= float(bound)


def _leaf(value, spec: Key, path: str, errors: list[str]):
    """The typed form of one scalar: a number or int is a finite real (a
    bool is not one, and an int may be ``2.0`` but not ``2.5``); nothing
    is coerced from a string."""
    if spec.kind == "choice":
        if value not in spec.rng:
            known = ", ".join(sorted(spec.rng))
            errors.append(f"unknown {path} {value!r} (known: {known})")
        return value
    if spec.kind in ("str", "bool"):
        if not isinstance(value, str if spec.kind == "str" else bool):
            what = "a string" if spec.kind == "str" else "a boolean"
            errors.append(f"{path} must be {what}, got {value!r}")
        return value
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        problem = "a number"
    elif not abs(value) <= sys.float_info.max:  # nan, inf, or an int past float
        problem = "finite"
    elif spec.kind == "int" and value != int(value):
        problem = "an integer"
    elif spec.rng and not _in_range(value, spec.rng):
        errors.append(f"{path} must be {_describe(spec.rng)}, got {value}")
        return value
    else:
        return int(value) if spec.kind == "int" else float(value)
    errors.append(f"{path} must be {problem}, got {value!r}")
    return value


def _value(value, spec: Key, path: str, errors: list[str], parent: str = ""):
    """The typed form of one value of Key ``spec`` at ``path``.

    A list item is named by its section under ``parent``: ``faults
    event[0]``, or ``tenant 'chat'`` when the item has a string name.
    """
    if spec.kind == "section":
        return _section(value, spec.of, path, errors)
    if spec.kind == "map":
        if not isinstance(value, dict):
            errors.append(f"{path} must be a mapping, got {value!r}")
            return value
        return {k: _value(v, spec.of, f"{path}[{k}]", errors) for k, v in value.items()}
    if spec.kind not in ("list", "rows"):
        return _leaf(value, spec, path, errors)
    if not isinstance(value, list):
        errors.append(f"{path} must be a list, got {value!r}")
        return value
    table, items = SCHEMA[spec.of], []
    for i, item in enumerate(value):
        name = item.get("name") if isinstance(item, dict) else None
        where = f"{spec.of} {name!r}" if isinstance(name, str) else f"{spec.of}[{i}]"
        where = _join(parent, where)
        if spec.kind == "rows":
            needed = sum(key.default == REQUIRED for key in table.values())
            if not isinstance(item, list) or not needed <= len(item) <= len(table):
                errors.append(
                    f"{where} must be a list of {needed} to {len(table)} "
                    f"numbers, got {item!r}"
                )
                continue
            item = dict(zip(table, item))
        items.append(_section(item, spec.of, where, errors, tag=False))
    return items


def _section(value, name: str, path: str, errors: list[str], tag: bool = True):
    """The typed copy of one ``name`` section mapping, defaults filled in.

    Every unknown key, missing required key and wrong value is appended
    to ``errors``, named by its path: ``[tenant 'NAME' ]section[tag]
    key``, where the root section is ``scenario``. A tagged section's
    ``kind`` picks its table (a bare string is its kind alone); reached
    through a key (``tag``), the section is named ``traffic[poisson]``.
    A tenant's left-out key is left out (it inherits), and its null
    stays null.
    """
    table, where = SCHEMA[name], path or "scenario"
    tagged = all(isinstance(entry, dict) for entry in table.values())
    if tagged and isinstance(value, str):
        value = {"kind": value}
    if not isinstance(value, dict):
        errors.append(f"{where} must be a mapping, got {value!r}")
        return value
    fields, value = {}, dict(value)
    if tagged:
        if "kind" not in value:
            errors.append(f"{where} needs 'kind'")
            return value
        kind = value.pop("kind")
        if not isinstance(kind, str) or kind not in table:
            known = ", ".join(sorted(table))
            errors.append(f"unknown {_join(path, 'kind')} {kind!r} (known: {known})")
            return value
        fields["kind"], table = kind, table[kind]
        if tag:
            path = where = f"{path}[{kind}]"
    unknown = sorted(set(value) - set(table), key=str)
    if unknown:
        allowed = ", ".join(table) or "none"
        errors.append(f"unknown key(s) in {where}: {unknown} (allowed: {allowed})")
    n_errors = len(errors)
    for key, spec in table.items():
        raw = value.get(key)
        if raw is None and (key not in value or spec.null or spec.default is None):
            if spec.default == REQUIRED:
                errors.append(f"{where} needs {key!r}")
            elif spec.default in (None, INHERIT):
                if key in value or spec.default is None:
                    fields[key] = None
            else:
                fields[key] = _value(spec.default, spec, _join(path, key), errors)
            continue
        fields[key] = _value(raw, spec, _join(path, key), errors, path)
    if name in _TYPES and len(errors) == n_errors:
        try:
            return _TYPES[name](**fields)
        except ValueError as exc:
            errors.append(f"{where}: {exc}")
    return fields


def _rules(spec: dict) -> list[str]:
    """The cross-field rules of a typed spec that no table row states."""
    errors, tenants = [], spec["tenants"]
    owners = [("", spec)] + [(f"tenant {t['name']!r} ", t) for t in tenants]
    for prefix, owner in owners:
        traffic = owner.get("traffic")
        if traffic is None:
            # A fleet needs traffic; a tenant needs its own or the scenario's.
            if spec["traffic"] is None and (prefix or not tenants):
                errors.append(f"{prefix or 'scenario '}needs 'traffic'")
            continue
        if traffic["kind"] != "replay":
            continue
        sources = [k for k in ("path", "arrivals", "trace") if traffic[k] is not None]
        if len(sources) != 1:
            errors.append(
                f"{prefix}traffic[replay] needs exactly one of 'path', "
                f"'arrivals' or 'trace', got {sources or 'none'}"
            )
        if traffic["llm"] is not None and traffic["trace"] is None:
            errors.append(
                f"{prefix}traffic[replay] llm only applies to a 'trace' source "
                "(CSV/JSONL logs are already per-service)"
            )
    if tenants and not spec["capacity"]:
        errors.append("a cluster scenario (tenants) needs a capacity map")
    names = [t["name"] for t in tenants]
    if len(set(names)) != len(names):
        errors.append(f"duplicate tenant names: {names}")
    if spec["cloud"] is not None and not tenants:
        errors.append("a cloud section needs tenants: bursting is a cluster decision")
    attainment = (spec["expectations"] or {}).get("slo_attainment_min")
    has_slo = spec["slo_ttft_ms"] is not None or (
        tenants and all(t.get("slo_ttft_ms") is not None for t in tenants)
    )
    if attainment is not None and not has_slo:
        errors.append(
            "expectations slo_attainment_min needs slo_ttft_ms on the "
            "scenario (or on every tenant)"
        )
    return errors


def fault_event_spec(event: dict, where: str) -> FaultSpec:
    """One validated :class:`FaultSpec` from a fault-event mapping.

    The mapping is a scenario ``faults.events`` entry or a compiled
    ``--fault`` flag: a ``kind``, a ``time_s`` and the keys that kind
    accepts. Every error names ``where``.
    """
    errors: list[str] = []
    spec = _section(event, "event", where, errors, tag=False)
    if errors:
        raise ValueError("; ".join(errors))
    return spec


class ScenarioSpec:
    """One validated scenario, ready to build and run.

    Construct via :meth:`from_dict` (which checks every section against
    :data:`SCHEMA` and raises one ``ValueError`` naming each offending
    key) or :meth:`load` (JSON or, when PyYAML is available, YAML
    files). The attributes are the top-level keys with their defaults
    filled in; each section is a typed mapping with its defaults filled
    in, absent sections are ``None``, and a fault event is a
    :class:`FaultSpec`. ``tenants`` being non-empty makes this a cluster
    scenario (:attr:`is_cluster`), in which case ``capacity`` must name
    the finite GPU inventory.
    """

    def __init__(self, fields: dict) -> None:
        self.__dict__.update(fields)

    def __repr__(self) -> str:
        return f"ScenarioSpec({vars(self)!r})"

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and vars(other) == vars(self)

    # ---- construction -----------------------------------------------------

    @classmethod
    def from_dict(cls, spec: dict) -> "ScenarioSpec":
        """Validate a raw mapping into a :class:`ScenarioSpec`.

        Every problem joins one ``ValueError`` (with ``"; "``): first all
        of the schema's, then, on a spec that passes it, the cross-field
        rules of :func:`_rules`.
        """
        errors: list[str] = []
        fields = _section(spec, "scenario", "", errors)
        if not errors:
            errors = _rules(fields)
        if errors:
            raise ValueError("; ".join(errors))
        return cls(fields)

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
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from exc

    def build_cloud(self) -> "tuple | None":
        """The (CloudLedger, BurstPolicy) pair of the ``cloud`` section.

        None when the scenario declares no cloud tier. The catalog is
        the AWS-like default unless the section supplies its own; the
        ``quota`` mapping overlays account GPU caps either way. Left
        out, the spot-interruption rate is the AWS-like catalog's 0.05
        per hour, and a custom entry's is the section's rate or 0.0;
        the ledger's seed (spot-preemption schedules) is the scenario
        seed.
        """
        from repro.hardware.pricing import (
            CloudCatalog,
            CloudInstanceType,
            aws_like_cloud_catalog,
        )
        from repro.simulation.cloud import BurstPolicy, CloudLedger

        section = self.cloud
        if section is None:
            return None
        quota, rate = section["quota"], section["spot_interruptions_per_hour"]
        if section["catalog"]:
            instances = {
                gpu: CloudInstanceType(
                    gpu=gpu,
                    on_demand=entry["on_demand"],
                    spot=entry["spot"],
                    reserved=entry["reserved"],
                    quota_gpus=quota.get(gpu, entry["quota_gpus"]),
                    spot_interruptions_per_hour=_first(
                        entry["spot_interruptions_per_hour"], rate, 0.0
                    ),
                )
                for gpu, entry in section["catalog"].items()
            }
            catalog = CloudCatalog(instances=instances)
        else:
            catalog = aws_like_cloud_catalog(
                quota_gpus=quota, spot_interruptions_per_hour=_first(rate, 0.05)
            )
        policy = BurstPolicy(
            mode=section["mode"],
            max_cloud_pods=section["max_cloud_pods"],
            price_cap_per_pod_hour=section["price_cap_per_pod_hour"],
        )
        ledger = CloudLedger(catalog=catalog, seed=_first(section["seed"], self.seed))
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
        rows under the scenario seed — so a spec file with no side files
        is still fully self-contained.
        """
        from repro.traces import TraceConfig, TraceDataset, TraceSynthesizer
        from repro.workload.generator import WorkloadGenerator

        if self.workload["traces"]:
            traces = TraceDataset.load(self.workload["traces"])
        else:
            config = TraceConfig(n_requests=self.workload["requests"])
            traces = TraceSynthesizer(config=config, seed=self.seed).generate()
        return WorkloadGenerator.fit(traces)

    def build_traffic(
        self, traffic: dict | None = None, label: str = ""
    ) -> TrafficModel:
        """One traffic model from a typed traffic section (seeded per label)."""
        args = dict(self.traffic if traffic is None else traffic)
        kind = args.pop("kind")
        if kind == "closed":
            return ClosedLoopTraffic(**args)
        if kind == "replay":
            return self._build_replay(args, label)
        model = {"poisson": PoissonTraffic, "diurnal": DiurnalTraffic}.get(
            kind, BurstyTraffic
        )
        rng = derive_rng(self.seed, "scenario-traffic", label, kind)
        return model(args.pop("rate_per_s"), rng=rng, **args)

    def _build_replay(self, traffic: dict, label: str) -> ReplayTraffic:
        """Replay traffic: load the log, then apply the spec's transforms."""
        if traffic["path"] is not None:
            log = ArrivalLog.load(traffic["path"])
        elif traffic["arrivals"] is not None:
            rows = traffic["arrivals"]
            log = ArrivalLog.from_columns(
                {column: [row[column] for row in rows] for column in SCHEMA["arrival"]}
            )
        else:
            from repro.traces import TraceDataset

            log = ArrivalLog.from_trace(
                TraceDataset.load(traffic["trace"]), llm=traffic["llm"]
            )
        if traffic["tenant"] is not None:
            log = log.for_tenant(traffic["tenant"])
        boot = traffic["bootstrap"]
        if boot is not None:
            seed = _first(boot["seed"], self.seed)
            log = log.bootstrap(
                boot["n"],
                rng=derive_rng(seed, "scenario-bootstrap", label),
                rate_per_s=boot["rate_per_s"],
            )
        if traffic["rate_per_s"] is not None:
            log = log.warp_to_rate(traffic["rate_per_s"])
        return ReplayTraffic(
            log, speedup=traffic["speedup"], horizon_s=traffic["horizon_s"]
        )

    @staticmethod
    def _build_router(router: dict) -> Router:
        args = dict(router)
        return ROUTERS[args.pop("kind")](**args)

    def _default_slo_ms(self) -> float:
        """SLO the admission/threshold sections fall back to.

        The spec-level ``slo_ttft_ms`` (when given) drives shedding and
        threshold scaling too — one number, like the CLI's
        ``--slo-ttft-ms`` — so the fleet protects the SLO it reports on.
        """
        return _first(self.slo_ttft_ms, 2000.0)

    def _wrap_admission(self, router: Router, admission: dict | None) -> Router:
        if admission is None:
            return router
        slo_ms = _first(admission["slo_ttft_ms"], self._default_slo_ms())
        return AdmissionController(
            router,
            slo_p95_ttft_s=slo_ms / 1e3,
            window_s=admission["window_s"],
            mode=admission["mode"],
            retry_delay_s=admission["retry_delay_s"],
            max_defers=admission["max_defers"],
        )

    def _build_autoscaler(self, section: dict | None) -> Autoscaler | None:
        if section is None:
            return None
        policy_name = section["policy"]
        if policy_name == "threshold":
            slo_ms = _first(section["slo_ttft_ms"], self._default_slo_ms())
            policy = ThresholdPolicy(slo_p95_ttft_s=slo_ms / 1e3)
        elif policy_name == "target-utilization":
            policy = TargetUtilizationPolicy(target=section["target"])
        elif policy_name == "predictive":
            policy = PredictivePolicy(
                requests_per_pod_per_s=section["requests_per_pod_per_s"],
                horizon_s=section["cold_start_s"],
            )
        else:
            policy = AUTOSCALE_POLICIES[policy_name]()
        return Autoscaler(
            policy,
            AutoscaleConfig(
                decision_interval_s=section["interval_s"],
                min_pods=section["min_pods"],
                max_pods=section["max_pods"],
                cold_start_s=section["cold_start_s"],
                metrics_window_s=section["metrics_window_s"],
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
        if section is None or not section["events"]:
            return None
        seed = spawn_seed(_first(section["seed"], self.seed), "scenario-faults", label)
        return FaultInjector(section["events"], seed=seed)

    def _types(self) -> tuple[type, type]:
        """The ``(Deployment, ClusterSimulator)`` classes the builders use.

        The one hook :func:`repro.simulation.reference.run_scenario`
        overrides to run a spec on the reference simulator.
        """
        from repro.cluster.deployment import Deployment
        from repro.simulation.cluster import ClusterSimulator

        return Deployment, ClusterSimulator

    def _parts(self, generator, owner: dict, label: str) -> tuple:
        """``(deployment, traffic, fleet keywords)`` of one fleet or tenant.

        ``owner`` is the scenario's fields, or a tenant's over them.
        """
        from repro.hardware.profile import parse_profile
        from repro.models import get_llm

        deployment_type, _ = self._types()
        faults = owner["faults"]
        deployment = deployment_type(
            llm=get_llm(owner["llm"]),
            profile=parse_profile(owner["profile"]),
            n_pods=owner["pods"],
            max_batch_weight=owner["max_batch_weight"],
            generator=generator,
            seed=self.seed,
            n_zones=faults["zones"] if faults else 1,
        )
        router = self._build_router(owner["router"])
        return (
            deployment,
            self.build_traffic(owner["traffic"], label=label),
            {
                "router": self._wrap_admission(router, owner["admission"]),
                "autoscaler": self._build_autoscaler(owner["autoscaler"]),
                "faults": self._build_faults(faults, label),
            },
        )

    def build_fleet(self, generator=None) -> FleetSimulator:
        """The single-tenant form: one ready-to-run fleet simulator."""
        if self.is_cluster:
            raise ValueError(
                f"scenario {self.name!r} declares tenants; build_cluster() "
                "is the entry point for cluster scenarios"
            )
        generator = generator or self.build_generator()
        deployment, traffic, parts = self._parts(generator, vars(self), self.name)
        return deployment.fleet(traffic, stream_label=self.name, **parts)

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
            owner = {**vars(self), **tenant}
            deployment, traffic, parts = self._parts(generator, owner, tenant["name"])
            slo_ms = owner["slo_ttft_ms"]
            slo_s = None if slo_ms is None else slo_ms / 1e3
            groups.append(
                deployment.tenant_group(
                    tenant["name"], traffic, slo_p95_ttft_s=slo_s, **parts
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

