from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

import fedmesh
import fedmesh.cli
from fedmesh import RunResult


def readme_section(heading: str) -> str:
    """One section of the README, up to the next heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split(f"## {heading}\n", 1)[1].split("\n## ", 1)[0]


def documented_names() -> list[str]:
    """Every backquoted name in the quick start's bullet list of exports."""
    section = readme_section("Library quick start")
    listing = section[section.index("\n- ") :].split("\n\n", 1)[0]
    return sorted(re.findall(r"`(\w+)`", listing))


def test_all_is_the_readme_list_of_public_names():
    assert sorted(fedmesh.__all__) == documented_names()
    assert len(set(fedmesh.__all__)) == len(fedmesh.__all__) == 19


def test_readme_cli_block_lists_each_commands_options():
    # Each line of the CLI section's usage block is one subcommand and lists
    # exactly its options; the top-level parser takes none of its own.
    def options(parser: argparse.ArgumentParser) -> set[str]:
        return {flag for action in parser._actions for flag in action.option_strings} - {"-h", "--help"}

    parser = fedmesh.cli._build_parser()
    (commands,) = [a.choices for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    lines = readme_section("CLI").split("```sh\n", 1)[1].split("```", 1)[0].splitlines()
    listed = {}
    for line in lines:
        usage = line.split("#", 1)[0]
        command = usage.split()[1]
        assert usage.startswith("fedmesh ") and command in commands, line
        listed[command] = set(re.findall(r"--[\w-]+", usage))
    assert len(listed) == len(lines)
    assert options(parser) == set()
    assert listed == {name: options(sub) for name, sub in commands.items()}


def test_star_import_binds_exactly_all():
    namespace: dict = {}
    exec("from fedmesh import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(fedmesh.__all__)


def test_every_public_name_is_defined_in_a_submodule():
    for name in fedmesh.__all__:
        value = getattr(fedmesh, name)
        assert value.__module__.startswith("fedmesh."), name
        assert getattr(sys.modules[value.__module__], name) is value


def test_names_read_through_the_package_stay_public():
    # bench/test_bench.py reads parse_scenario, tools/scenario_diff.py reads
    # parse_scenario and ScenarioError, and the README's CLI section reads
    # builtin_scenario_path, each through the package.
    assert {"parse_scenario", "ScenarioError", "builtin_scenario_path"} <= set(fedmesh.__all__)


def test_readme_quick_start_runs_as_written(capsys):
    code = readme_section("Library quick start").split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    result = namespace["result"]
    assert isinstance(result, RunResult)
    assert result.state.metrics.response_times
    assert capsys.readouterr().out == f"{result.state.metrics.response_times}\n"
