#!/usr/bin/env python
"""Docs gate: intra-repo links and code references resolve, and the
scenario key tables match the schema.

Scans ``README.md`` and ``docs/*.md`` for markdown links and fails
(exit 1, one line per problem) when a relative link points at a file
that does not exist in the repo. External links (``http(s)://``,
``mailto:``) and pure in-page anchors (``#...``) are not checked.

It also resolves every code span outside fenced blocks that is a dotted
name, optionally called (such as ``CostModel.decode_step_time`` or
``repro.simulation.reference.run_scenario(spec)``), and whose first name
is ``repro`` or a class defined in ``repro``: each further name must be
an attribute of the one before it, or a field of a dataclass.

It also holds docs/scenarios.md's key tables to the scenario schema
(``repro.simulation.scenario.SCHEMA``), in both directions: each
``| Key | Default | Meaning |`` table lists exactly the keys of the
section named by the last code span of the line above it (such as
``traffic[diurnal]``), each stated default equals the schema's, and
every section with keys has a table. A default is ``required``,
``inherited``, a backticked JSON literal, or prose for a key whose
schema default is none.

Run from anywhere: paths resolve against the repo root (this file's
parent's parent), and ``src`` is put on the import path. The CI docs
job runs this plus ``python -m doctest docs/scenarios.md``;
``tests/test_docs.py`` runs both as part of the tier-1 suite.
"""

import dataclasses
import importlib
import inspect
import json
import pkgutil
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.simulation.scenario import INHERIT, REQUIRED, SCHEMA  # noqa: E402

#: Inline markdown links: [text](target). Images share the syntax.
_LINK = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
_KEY_TABLE = "| Key | Default | Meaning |"
_FENCE = re.compile(r"^```.*?^```", re.S | re.M)
_CODE_SPAN = re.compile(r"`([^`]+)`")
_DOTTED_NAME = re.compile(r"([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)(?:\(.*\))?")
SCENARIOS_DOC = REPO_ROOT / "docs" / "scenarios.md"


def doc_files() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs.extend(sorted((REPO_ROOT / "docs").glob("*.md")))
    return [d for d in docs if d.exists()]


def _shown(path: Path):
    return path.relative_to(REPO_ROOT) if path.is_relative_to(REPO_ROOT) else path


def broken_links(path: Path) -> list[str]:
    """Unresolvable relative link targets in one markdown file."""
    problems = []
    text = path.read_text()
    for match in _LINK.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:")):
            continue
        target = target.split("#", 1)[0]
        if not target:  # pure in-page anchor
            continue
        resolved = (path.parent / target).resolve()
        if not resolved.exists():
            problems.append(f"{_shown(path)}: broken link -> {target}")
    return problems


def repro_classes() -> dict[str, list[type]]:
    """Every class defined in a ``repro`` module, by name."""
    import repro

    classes: dict[str, list[type]] = {}
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if inspect.isclass(obj) and obj.__module__ == info.name:
                classes.setdefault(name, []).append(obj)
    return classes


def _has_path(owner, names: list[str]) -> bool:
    """Whether ``owner.names[0].names[1]...`` names something."""
    for name in names:
        if hasattr(owner, name):
            owner = getattr(owner, name)
        elif dataclasses.is_dataclass(owner) and name in {
            f.name for f in dataclasses.fields(owner)
        }:
            owner = None  # a field without a class default: nothing below
        else:
            return False
    return True


def _resolves(dotted: str, classes: dict[str, list[type]]) -> bool:
    names = dotted.split(".")
    if names[0] != "repro":
        return any(_has_path(cls, names[1:]) for cls in classes[names[0]])
    for split in range(len(names), 0, -1):
        try:
            module = importlib.import_module(".".join(names[:split]))
        except ImportError:
            continue
        return _has_path(module, names[split:])
    return False


def broken_references(path: Path, classes: dict[str, list[type]]) -> list[str]:
    """Code references in one markdown file that name nothing in
    ``repro`` (see the module docstring); ``classes`` is
    :func:`repro_classes`."""
    problems = []
    for span in _CODE_SPAN.finditer(_FENCE.sub("", path.read_text())):
        match = _DOTTED_NAME.fullmatch(" ".join(span.group(1).split()))
        if match is None:
            continue
        dotted = match.group(1)
        head = dotted.split(".", 1)[0]
        if (head == "repro" or head in classes) and not _resolves(dotted, classes):
            problems.append(f"{_shown(path)}: unresolved code reference `{dotted}`")
    return problems


def schema_sections() -> dict:
    """Section name -> key table, one per variant of a tagged section
    (``traffic[diurnal]``); sections without keys are left out."""
    sections = {}
    for name, table in SCHEMA.items():
        if all(isinstance(variant, dict) for variant in table.values()):
            sections.update({f"{name}[{kind}]": keys for kind, keys in table.items()})
        else:
            sections[name] = table
    return {name: keys for name, keys in sections.items() if keys}


def key_tables(path: Path) -> dict[str, dict[str, str]]:
    """Section -> {key: default cell} of every key table in a doc."""
    lines = path.read_text().splitlines()
    tables = {}
    for i, line in enumerate(lines):
        if line.strip() != _KEY_TABLE:
            continue
        above = next(text for text in reversed(lines[:i]) if text.strip())
        rows = {}
        for row in lines[i + 2 :]:
            if not row.startswith("|"):
                break
            cells = [cell.strip() for cell in row.strip("|").split("|")]
            rows[cells[0].strip("`")] = cells[1]
        tables[re.findall(r"`([^`]+)`", above)[-1]] = rows
    return tables


def _stated(cell: str):
    """A default cell as a schema default: ``required``, ``inherited``,
    a backticked JSON literal, or ``None`` for prose."""
    if cell in (REQUIRED, INHERIT):
        return cell
    if cell.startswith("`") and cell.endswith("`"):
        return json.loads(cell[1:-1])
    return None


def schema_problems(path: Path) -> list[str]:
    """Every way the key tables of a doc disagree with the schema."""
    sections, problems = schema_sections(), []
    for section, rows in key_tables(path).items():
        where = f"{_shown(path)}: `{section}` table"
        if section not in sections:
            problems.append(f"{where}: no such schema section")
            continue
        table = sections[section]
        problems += [f"{where} lacks key {k!r}" for k in table if k not in rows]
        problems += [f"{where} has unknown key {k!r}" for k in rows if k not in table]
        for key, cell in rows.items():
            if key not in table:
                continue
            stated, default = _stated(cell), table[key].default
            if stated != default or type(stated) is not type(default):
                problems.append(
                    f"{where}: {key} default is {cell}, schema says {default!r}"
                )
    return problems


def undocumented_sections(path: Path = SCENARIOS_DOC) -> list[str]:
    """Schema sections with keys but no key table in ``path``."""
    documented = key_tables(path)
    return [
        f"{_shown(path)}: no key table for `{section}`"
        for section in schema_sections()
        if section not in documented
    ]


def main() -> int:
    problems, classes = [], repro_classes()
    for doc in doc_files():
        problems.extend(broken_links(doc))
        problems.extend(broken_references(doc, classes))
    problems += schema_problems(SCENARIOS_DOC) + undocumented_sections()
    for problem in problems:
        print(problem, file=sys.stderr)
    if problems:
        return 1
    print(
        f"docs OK: {len(doc_files())} files, all intra-repo links and code "
        "references resolve, "
        f"{len(schema_sections())} scenario key tables match the schema"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
