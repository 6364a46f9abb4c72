"""Hypothesis fuzzing of scenario specs and the flags that compile to them.

Every external input has two outcomes: a spec, or one ``ValueError``
that names the field (and, for a flag, the flag). The specs here are
only validated, never run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cli import _cluster_spec, _fleet_spec, build_parser
from repro.simulation import FAULT_KINDS, ScenarioSpec
from repro.simulation.scenario import REQUIRED, SCHEMA

SETTINGS = settings(derandomize=True, deadline=None, max_examples=200)

#: A wrong-kind value for each leaf kind; 5 for every other kind.
WRONG = {"number": "x", "int": [1], "str": 5, "bool": "yes"}


def _join(path, key):
    return f"{path} {key}" if path else key


def _bounds(rng):
    """``(low, low_open, high, high_open)`` of a schema range."""
    if rng[0] in "([":
        low, high = (float(x) for x in rng[1:-1].split(","))
        return low, rng[0] == "(", high, rng[-1] == ")"
    op, bound = rng.split()
    return float(bound), op == ">", None, False


def _out_of_range(rng):
    low, low_open, high, high_open = _bounds(rng)
    if high is not None:
        return high if high_open else high + 1
    return low if low_open else low - 1


def _tables(name):
    """The key tables of one section: its own, or each of its variants'."""
    table = SCHEMA[name]
    tagged = all(isinstance(variant, dict) for variant in table.values())
    return list(table.values()) if tagged else [table]


def _reaches(key, focus):
    """Whether a value of Key ``key`` can hold a ``focus`` section."""
    if key.kind == "map":
        return _reaches(key.of, focus)
    if key.kind not in ("section", "list", "rows"):
        return False
    return key.of == focus or any(
        _reaches(k, focus) for table in _tables(key.of) for k in table.values()
    )


class _Drawn:
    """A valid spec drawn from the schema table that holds at least one
    ``focus`` section, plus every place one field of it can be
    corrupted, each named by the path its error must carry.

    ``values`` holds ``(container, key, Key, path, section)``; the Key
    of a tagged section's ``kind`` is ``None``. ``sections`` holds
    ``(mapping, table, path, path without the tag, section)``.
    """

    def __init__(self, draw, focus):
        self.draw, self.focus, self.values, self.sections = draw, focus, [], []
        top = SCHEMA["scenario"]
        skip = {"tenants", "capacity", "cloud", "traffic"}
        self.spec = self.section("scenario", "", skip=skip)
        tenants = []
        if focus in ("tenant", "cloud", "catalog") or draw(st.booleans()):
            for i in range(draw(st.integers(1, 2))):
                tenant = self.section("tenant", f"tenant 't{i}'", skip={"name"})
                tenant["name"] = f"t{i}"
                key = SCHEMA["tenant"]["name"]
                # A tenant whose name is not a string is named by index.
                self.values.append((tenant, "name", key, f"tenant[{i}] name", "tenant"))
                tenants.append(tenant)
            self.spec["tenants"] = tenants
            site = (self.spec, "tenants", top["tenants"], "tenants", "scenario")
            self.values.append(site)
            self.add(self.spec, "capacity", top["capacity"], "", "scenario")
            if _reaches(top["cloud"], focus) or draw(st.booleans()):
                self.add(self.spec, "cloud", top["cloud"], "", "scenario")
        # A fleet needs traffic; a tenant needs its own or the scenario's.
        if (
            not tenants
            or any("traffic" not in t for t in tenants)
            or _reaches(top["traffic"], focus)
            or draw(st.booleans())
        ):
            self.add(self.spec, "traffic", top["traffic"], "", "scenario")
        expectations = self.spec.get("expectations") or {}
        if "slo_attainment_min" in expectations:
            self.spec["slo_ttft_ms"] = 500.0

    def add(self, container, key, spec, parent, section, path=None):
        """Draw one valid value of Key ``spec`` into ``container[key]``."""
        path = _join(parent, key) if path is None else path
        container[key] = self.value(spec, parent, path, section)
        self.values.append((container, key, spec, path, section))

    def section(self, name, path, tag=False, skip=()):
        draw, table, out = self.draw, SCHEMA[name], {}
        untagged, force = path, set()
        if len(_tables(name)) > 1:
            kinds = [
                kind
                for kind, variant in sorted(table.items())
                if any(_reaches(k, self.focus) for k in variant.values())
            ]
            kind = draw(st.sampled_from(kinds or sorted(table)))
            out["kind"], table = kind, table[kind]
            self.values.append((out, "kind", None, _join(path, "kind"), name))
            path = f"{path}[{kind}]" if tag else path
            if kind == "replay":
                # Exactly one source, and an llm only with a trace.
                sources = ["path", "arrivals", "trace"]
                leads = [s for s in sources if _reaches(table[s], self.focus)]
                force = {draw(st.sampled_from(leads or sources))}
                skip = {"path", "arrivals", "trace", "llm"} - force
                if "trace" in force:
                    skip.discard("llm")
            if kind == "slowdown":
                # A pod or a zone, not both.
                skip = {draw(st.sampled_from(["pod", "zone"]))}
        self.sections.append((out, table, path, untagged, name))
        for key, spec in table.items():
            if key in skip:
                continue
            if (
                spec.default == REQUIRED
                or key in force
                or _reaches(spec, self.focus)
                or draw(st.booleans())
            ):
                self.add(out, key, spec, path, name)
        return out

    def value(self, spec, parent, path, section):
        """One valid value of Key ``spec``, named ``path`` in ``parent``,
        a ``section`` section."""
        draw = self.draw
        if spec.kind == "section":
            return self.section(spec.of, path, tag=True)
        if spec.kind == "map":
            out, gpus = {}, st.sampled_from(["A10-24GB", "T4-16GB"])
            for gpu in draw(st.lists(gpus, min_size=1, max_size=2, unique=True)):
                self.add(out, gpu, spec.of, path, section, f"{path}[{gpu}]")
            return out
        if spec.kind == "list":
            n = draw(st.integers(int(_reaches(spec, self.focus)), 2))
            return [
                self.section(spec.of, _join(parent, f"{spec.of}[{i}]"))
                for i in range(n)
            ]
        if spec.kind == "rows":
            rows = []
            for i in range(draw(st.integers(1, 2))):
                where, row = _join(parent, f"{spec.of}[{i}]"), []
                for j, (key, column) in enumerate(SCHEMA[spec.of].items()):
                    if column.default != REQUIRED and draw(st.booleans()):
                        break
                    row.append(None)
                    self.add(row, j, column, where, spec.of, _join(where, key))
                rows.append(row)
            return rows
        if spec.kind == "choice":
            return draw(st.sampled_from(spec.rng))
        if spec.kind == "bool":
            return draw(st.booleans())
        if spec.kind == "str":
            return draw(st.sampled_from(["a", "zone-1", "trace.npz"]))
        low, low_open, high, high_open = (
            _bounds(spec.rng) if spec.rng else (-5.0, False, None, False)
        )
        high = low + 500 if high is None else high
        if spec.kind == "int":
            return draw(st.integers(int(low) + low_open, int(high) - high_open))
        return draw(st.floats(low, high, exclude_min=low_open, exclude_max=high_open))


@st.composite
def corrupted_specs(draw, focus):
    """A valid spec with one field of a ``focus`` section corrupted, and
    the text its one error must contain: the field's path."""
    drawn = _Drawn(draw, focus)
    spec = drawn.spec
    ScenarioSpec.from_dict(spec)  # valid as drawn
    sections = [site for site in drawn.sections if site[-1] == focus]
    values = [site for site in drawn.values if site[-1] == focus]
    if sections and (not values or draw(st.booleans())):
        # A section gets an unknown key or loses a required one.
        out, table, path, untagged, _ = draw(st.sampled_from(sections))
        required = [k for k, key in table.items() if key.default == REQUIRED]
        required += ["kind"] if "kind" in out else []
        if not required or draw(st.booleans()):
            out["bogus_key"] = 1
            return spec, f"unknown key(s) in {path or 'scenario'}: ['bogus_key']"
        key = draw(st.sampled_from(required))
        del out[key]
        where = untagged if key == "kind" else path
        if key == "name":
            where = f"tenant[{spec['tenants'].index(out)}]"
        return spec, f"{where or 'scenario'} needs {key!r}"
    # A value gets the wrong kind, an out-of-range number or a null.
    container, key, spec_key, path, _ = draw(st.sampled_from(values))
    kind = "choice" if spec_key is None else spec_key.kind
    ways = ["kind"]
    if spec_key is None or not (spec_key.null or spec_key.default is None):
        ways.append("null")
    if kind in ("number", "int") and spec_key.rng:
        ways.append("range")
    way = draw(st.sampled_from(ways))
    if way == "range":
        container[key] = _out_of_range(spec_key.rng)
    else:
        container[key] = None if way == "null" else WRONG.get(kind, 5)
    return spec, f"unknown {path} " if kind == "choice" else f"{path} must be "


@pytest.mark.parametrize("focus", sorted(SCHEMA))
@settings(derandomize=True, deadline=None, max_examples=25)
@given(data=st.data())
def test_one_corrupted_field_is_the_one_error_and_named(focus, data):
    spec, named = data.draw(corrupted_specs(focus))
    with pytest.raises(ValueError) as info:
        ScenarioSpec.from_dict(spec)
    errors = str(info.value).split("; ")
    assert len(errors) == 1, errors
    assert named in errors[0]


NUMBERS = ["0", "1", "2.5", "-1", "abc", "nan", "inf", "1e400", ""]


@st.composite
def fault_flags(draw):
    """``KIND@TIME[:key=value,...]`` texts from the grammar's tokens and junk."""
    kind = draw(st.sampled_from([*FAULT_KINDS, "meteor", ""]))
    at = draw(st.sampled_from(["@", "", "@@"]))
    options = st.tuples(
        st.sampled_from(["pod", "zone", "mode", "restart", "duration", "factor", "x"]),
        st.sampled_from(["=", ""]),
        st.sampled_from([*NUMBERS, "zone-1", "lose", "requeue", "warp"]),
    )
    text = kind + at + draw(st.sampled_from(NUMBERS))
    items = draw(st.lists(options, max_size=3))
    if items:
        text += ":" + ",".join("".join(item) for item in items)
    return text + draw(st.text(alphabet="@:=,x1.-", max_size=3))


@SETTINGS
@given(fault_flags())
def test_fault_flag_compiles_or_names_the_flag(text):
    args = build_parser().parse_args(["simulate", f"--fault={text}"])
    try:
        spec = _fleet_spec(args)
    except ValueError as exc:
        assert f"--fault {text!r}" in str(exc)
    else:
        assert len(spec.faults["events"]) == 1


@st.composite
def tenant_flags(draw):
    """``NAME:LLM:PROFILE:PODS:TRAFFIC:PARAM`` texts from tokens and junk."""
    parts = [
        draw(st.sampled_from(["chat", "", "b c"])),
        draw(st.sampled_from(["Llama-2-7b", "x"])),
        draw(st.sampled_from(["1xA10-24GB", ""])),
        draw(st.sampled_from(["1", "0", "-1", "2.5", "x", ""])),
        draw(st.sampled_from(["closed", "poisson", "diurnal", "bursty", "replay", ""])),
        draw(st.sampled_from([*NUMBERS, "log.csv"])),
        "x",
    ]
    return ":".join(parts[: draw(st.sampled_from([6, 6, 6, 5, 7]))])


@SETTINGS
@given(tenant_flags())
def test_tenant_flag_compiles_or_names_the_flag_or_tenant(text):
    args = build_parser().parse_args(
        ["cluster-sim", f"--tenant={text}", "--capacity", "A10-24GB=2"]
    )
    try:
        spec = _cluster_spec(args)
    except ValueError as exc:
        tenant = f"tenant {text.split(':')[0]!r} "
        assert f"--tenant {text!r}" in str(exc) or str(exc).startswith(tenant)
    else:
        assert [t["name"] for t in spec.tenants] == [text.split(":")[0]]
