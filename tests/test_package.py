from __future__ import annotations

import re
import sys
from pathlib import Path

import fedmesh
from fedmesh import RunResult


def library_section() -> str:
    """The README's "Library quick start" section, up to the next heading."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return readme.split("## Library quick start\n", 1)[1].split("\n## ", 1)[0]


def documented_names() -> list[str]:
    """Every backquoted name in the section's bullet list of exports."""
    section = library_section()
    listing = section[section.index("\n- ") :].split("\n\n", 1)[0]
    return sorted(re.findall(r"`(\w+)`", listing))


def test_all_is_the_readme_list_of_public_names():
    assert sorted(fedmesh.__all__) == documented_names()
    assert len(set(fedmesh.__all__)) == len(fedmesh.__all__) == 21


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
    code = library_section().split("```python\n", 1)[1].split("```", 1)[0]
    namespace: dict = {}
    exec(code, namespace)
    result = namespace["result"]
    assert isinstance(result, RunResult)
    assert result.state.metrics.response_times
    assert capsys.readouterr().out == f"{result.state.metrics.response_times}\n"
