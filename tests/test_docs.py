"""The docs layer is load-bearing: links resolve, snippets execute.

Mirrors the CI docs job inside the tier-1 suite so a broken doc link or
a drifted scenario snippet fails locally too, not just in CI.
"""

import doctest
import importlib.util
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _load_check_docs():
    spec = importlib.util.spec_from_file_location(
        "check_docs", REPO_ROOT / "tools" / "check_docs.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_docs_exist():
    for name in ("architecture.md", "scenarios.md", "cli.md"):
        assert (REPO_ROOT / "docs" / name).is_file(), f"docs/{name} missing"


def test_intra_repo_links_resolve():
    check_docs = _load_check_docs()
    problems = []
    for doc in check_docs.doc_files():
        problems.extend(check_docs.broken_links(doc))
    assert not problems, "\n".join(problems)


def test_link_checker_catches_breakage(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "[ok](doc.md) [web](https://example.com) [bad](no-such-file.md)"
    )
    problems = check_docs.broken_links(doc)
    assert len(problems) == 1 and "no-such-file.md" in problems[0]


def test_schema_checker_catches_breakage(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "The `workload`:\n\n"
        "| Key | Default | Meaning |\n"
        "| --- | --- | --- |\n"
        "| `traces` | absent | trace collection |\n"
        "| `tokens` | `100` | not a workload key |\n"
    )
    problems = check_docs.schema_problems(doc)
    assert len(problems) == 2
    assert "lacks key 'requests'" in problems[0]
    assert "unknown key 'tokens'" in problems[1]
    # A stated default must be the schema's: the cloud spot rate has none
    # of its own (it depends on the catalog).
    doc.write_text(
        "`cloud` keys:\n\n"
        "| Key | Default | Meaning |\n"
        "| --- | --- | --- |\n"
        "| `spot_interruptions_per_hour` | `0.05` | spot rate |\n"
    )
    problems = check_docs.schema_problems(doc)
    assert [p for p in problems if "default" in p] == [
        f"{doc}: `cloud` table: spot_interruptions_per_hour default is "
        "`0.05`, schema says None"
    ]


def test_reference_checker_catches_breakage(tmp_path):
    check_docs = _load_check_docs()
    doc = tmp_path / "doc.md"
    doc.write_text(
        "`CostModel.decode_step_time` `CostModel.decode_step_times`\n"
        "`repro.simulation.reference.run_scenario(spec)` `np.median`\n"
        "`LatencyStats.median_s` (a dataclass field) `repro.no_such_module`\n"
        "```\n`FleetResult.no_such_field` inside a fence is not a span\n```\n"
        "`FleetResult.sim_events` and `ClusterSimulator.run(\n    t_end)`\n"
        "`ContinuousBatchingEngine._leap`\n"
    )
    problems = check_docs.broken_references(doc, check_docs.repro_classes())
    assert problems == [
        f"{doc}: unresolved code reference `{name}`"
        for name in (
            "CostModel.decode_step_times",
            "repro.no_such_module",
            "ContinuousBatchingEngine._leap",
        )
    ]


def test_scenario_snippets_execute():
    """Every ``>>>`` snippet in docs/scenarios.md runs and matches."""
    failures, tests = doctest.testfile(
        str(REPO_ROOT / "docs" / "scenarios.md"),
        module_relative=False,
        verbose=False,
    )
    assert tests > 0, "docs/scenarios.md lost its executable snippets"
    assert failures == 0


def test_check_docs_main_exits_clean(capsys):
    check_docs = _load_check_docs()
    assert check_docs.main() == 0
    assert "docs OK" in capsys.readouterr().out


if __name__ == "__main__":
    sys.exit(0)
