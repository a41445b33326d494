from __future__ import annotations

import ast
import json
import textwrap
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedmesh.config
import fedmesh.federation
import fedmesh.scenario
from fedmesh import (
    InvalidArgumentError,
    Scenario,
    ScenarioError,
    builtin_scenario_path,
    load_scenario,
    parse_scenario,
)
from fedmesh.cli import main
from fedmesh.oracles import run_oracle_suites

MINIMAL = """\
schema_version = 1
seed = 7

[space]
f_min = 2
f_max = 2

[dimension service_type]
kind = categorical
labels = P2PTaskExecution, P2PThreadExecution

[dimension processors]
kind = numeric
bounds = 1, 8

[dimension cpu_type]
kind = categorical
labels = Intel

[dimension speed_ghz]
kind = numeric
bounds = 0, 4

[cloud cloud-1]
nodes = 2
speed_ghz = 2.4
cpu_type = Intel
service_types = P2PTaskExecution, P2PThreadExecution
status_update_interval_ms = 1000, 2000

[workload app-1]
model = task
rows = 2
cols = 2
unit_demand = constant, 4.8
submit_cloud = cloud-1
"""


def documented_example(where: str) -> str:
    """The example scenario of the README's ``ini`` block or of the grammar
    in the scenario module's docstring."""
    if where == "readme":
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        return readme.split("```ini\n", 1)[1].split("```", 1)[0]
    grammar = fedmesh.scenario.__doc__.split("\n\n    ", 1)[1]
    return textwrap.dedent("    " + grammar.split("\n\nScenarios that declare", 1)[0])


def documented_keys() -> list[tuple[str, str, str]]:
    """(section, key, required or default) of each row of the README's key
    reference, without backquotes around the key and the default."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Scenario format\n", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        cells = [cell.strip() for cell in line.strip().strip("|").split("|")]
        if line.startswith("|") and len(cells) == 4 and cells[1].startswith("`"):
            rows.append((cells[0], cells[1].strip("`"), cells[3].strip("`")))
    return rows


# Where each README section's keys sit in MINIMAL (None: before any section),
# and the parsed object that carries a key's value.
MINIMAL_SECTIONS = {
    "top level": (None, lambda sc: sc),
    "`[space]`": ("[space]", None),
    "`[dimension NAME]`": ("[dimension processors]", None),
    "`[dimension NAME]`, numeric": ("[dimension processors]", None),
    "`[dimension NAME]`, categorical": ("[dimension service_type]", None),
    "`[latency]`": ("[latency]", lambda sc: sc.latency),
    "`[cloud ID]`": ("[cloud cloud-1]", lambda sc: sc.clouds[0]),
    "`[workload ID]`": ("[workload app-1]", lambda sc: sc.workloads[0]),
}


def write(tmp_path: Path, text: str, name="case.scenario") -> Path:
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParse:
    def test_builtin_melbourne_validates(self):
        sc = load_scenario(builtin_scenario_path("melbourne-5"))
        assert len(sc.clouds) == 5
        assert all(c.node_count == 4 for c in sc.clouds)
        assert len(sc.workloads) == 10
        assert sc.seed == 42
        assert sc.f_min == 3

    def test_minimal_scenario_parses(self):
        sc = parse_scenario(MINIMAL)
        assert sc.latency.intra_cloud_ms == 1  # defaults apply
        assert sc.workloads[0].app_id == "app-1"
        assert sc.eager_tickets is True

    @pytest.mark.parametrize("where", ["readme", "docstring"])
    def test_documented_example_parses(self, where):
        sc = parse_scenario(documented_example(where), source=where)
        assert [d.name for d in sc.dims] == ["service_type", "processors", "cpu_type", "speed_ghz"]
        assert sc.eager_tickets is True and sc.clouds[0].topology == "hub"
        assert [w.app_id for w in sc.workloads] == ["cloud-1-task"]

    def test_zero_division_level_is_diagnosed_by_field(self):
        bad = MINIMAL.replace("f_min = 2", "f_min = 0")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any(d.field == "f_min" for d in exc.value.diagnostics)
        assert not any(d.field == "f_max" for d in exc.value.diagnostics)

    def test_unknown_submit_cloud_diagnosed(self):
        bad = MINIMAL.replace("submit_cloud = cloud-1", "submit_cloud = cloud-9")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any(d.field == "submit_cloud" for d in exc.value.diagnostics)

    @pytest.mark.parametrize(
        "line, fault, field",
        [
            ("nodes = 2", "nodes = 0", "nodes"),
            ("nodes = 2", "nodes = 2\ntopology = ring", "topology"),
            ("status_update_interval_ms = 1000, 2000", "status_update_interval_ms = 0, 5",
             "status_update_interval_ms"),
        ],
        ids=["nodes", "topology", "interval"],
    )
    def test_faulty_cloud_gets_one_diagnostic(self, line, fault, field):
        # The cloud is still declared, so its workload is not diagnosed too.
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(MINIMAL.replace(line, fault))
        (diag,) = exc.value.diagnostics
        assert diag.field == field

    def test_diagnostics_carry_line_numbers(self):
        bad = MINIMAL.replace("nodes = 2", "nodes = zero")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = [d for d in exc.value.diagnostics if d.field == "nodes"]
        assert diag.line == MINIMAL.splitlines().index("nodes = 2") + 1

    def test_unknown_key_rejected(self):
        bad = MINIMAL + "\n[latency]\nwarp_factor = 9\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any(d.field == "warp_factor" for d in exc.value.diagnostics)

    def test_duplicate_cloud_rejected(self):
        bad = MINIMAL + "\n[cloud cloud-1]\nnodes = 1\nspeed_ghz = 2\ncpu_type = Intel\nservice_types = P2PTaskExecution\nstatus_update_interval_ms = 5, 9\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any("duplicate cloud" in d.message for d in exc.value.diagnostics)

    def test_missing_required_dimension_rejected(self):
        bad = MINIMAL.replace("[dimension speed_ghz]", "[dimension other]")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any("speed_ghz" in d.message for d in exc.value.diagnostics)

    @pytest.mark.parametrize("space", ["f_min = 2\nf_max = 3", "f_min = 2"])
    def test_f_max_must_equal_f_min(self, space):
        bad = MINIMAL.replace("f_min = 2\nf_max = 2", space)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = [d for d in exc.value.diagnostics if d.field == "f_max"]
        assert diag.line == MINIMAL.splitlines().index("[space]") + 1
        assert "never subdivided" in diag.message

    def test_cell_guard(self):
        bad = MINIMAL.replace("f_min = 2", "f_min = 20").replace("f_max = 2", "f_max = 20")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        assert any("guard" in d.message for d in exc.value.diagnostics)

    def test_unit_guard_names_the_workload_that_crosses_it(self, tmp_path, capsys):
        # Parsing builds no units, so the guard is checked on the text alone.
        def section_line(text, header):
            return text.splitlines().index(header) + 1

        def app(name, rows):
            return (
                f"\n[workload {name}]\nmodel = task\nrows = {rows}\ncols = 1\n"
                "unit_demand = constant, 4.8\nsubmit_cloud = cloud-1\n"
            )

        big = MINIMAL.replace("rows = 2\ncols = 2", "rows = 100000\ncols = 100000")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(big)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (section_line(big, "[workload app-1]"), "rows")
        assert "10000000000 units" in diag.message and "1000000 unit guard" in diag.message
        assert main(["validate", str(write(tmp_path, big))]) == 2
        assert "rows" in capsys.readouterr().err

        at_guard = MINIMAL + app("app-2", fedmesh.scenario.MAX_UNITS - 4)
        assert sum(w.unit_count for w in parse_scenario(at_guard).workloads) == 10**6
        past = at_guard + app("app-3", 1) + app("app-4", 1)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(past)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (section_line(past, "[workload app-3]"), "rows")

    def test_node_guard_names_the_cloud_that_crosses_it(self, tmp_path, capsys):
        # Parsing deploys nothing, so the guard is checked on the text alone.
        def section_line(text, header):
            return text.splitlines().index(header) + 1

        def cloud(name, nodes):
            return (
                f"\n[cloud {name}]\nnodes = {nodes}\nspeed_ghz = 2.4\ncpu_type = Intel\n"
                "service_types = P2PTaskExecution\nstatus_update_interval_ms = 1000, 2000\n"
            )

        big = MINIMAL.replace("nodes = 2", "nodes = 1000000000")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(big)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (section_line(big, "[cloud cloud-1]"), "nodes")
        assert "1000000000 nodes" in diag.message and "100000 node guard" in diag.message
        assert main(["validate", str(write(tmp_path, big))]) == 2
        assert "nodes" in capsys.readouterr().err

        at_guard = MINIMAL + cloud("cloud-2", fedmesh.scenario.MAX_NODES - 2)
        assert sum(c.node_count for c in parse_scenario(at_guard).clouds) == 100_000
        past = at_guard + cloud("cloud-3", 1) + cloud("cloud-4", 1)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(past)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (section_line(past, "[cloud cloud-3]"), "nodes")

    @pytest.mark.parametrize(
        "body", ["kind = numeric\nbounds = 0, 1", "kind = categorical\nlabels = a, b"]
    )
    def test_unnamed_dimension_is_diagnosed(self, body):
        bad = MINIMAL + f"\n[dimension]\n{body}\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = [d for d in exc.value.diagnostics if "needs a name" in d.message]
        assert diag.line == len(MINIMAL.splitlines()) + 2

    def test_key_reference_lists_every_key(self):
        documented = {key for _, key, _ in documented_keys()}
        assert documented == {key for table in fedmesh.scenario._KEYS.values() for key in table}

    @pytest.mark.parametrize(
        "section, key, default", documented_keys(), ids=lambda v: v.strip("`[]").split(" ")[0]
    )
    def test_documented_key_left_out(self, section, key, default):
        # Leaving a key out of MINIMAL gives its documented default, or one
        # diagnostic at its section's line when it is required.
        header, owner = MINIMAL_SECTIONS[section]
        lines = MINIMAL.splitlines()
        if header is None:
            at = 0  # top-level keys come first and are diagnosed at line 0
        elif header in lines:
            at = lines.index(header) + 1  # the header's line number: its first key's index
        else:
            at = len(lines)  # MINIMAL has no such section, so nothing is left out
        end = next((i for i in range(at, len(lines)) if lines[i].startswith("[")), len(lines))
        lines = [
            line for i, line in enumerate(lines) if not (at <= i < end and line.startswith(f"{key} ="))
        ]
        text = "\n".join(lines) + "\n"
        if default != "required":
            assert str(getattr(owner(parse_scenario(text)), key)).lower() == default
            return
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        diags = exc.value.diagnostics
        if key == "f_max":  # an absent f_max breaks the one rule it exists for
            missing = [d for d in diags if d.field == key and "must be present" in d.message]
        else:
            missing = [d for d in diags if d.message == "required key missing"]
        assert [(d.line, d.field) for d in missing] == [(at, key)]

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_horizon_below_one_is_diagnosed(self, horizon):
        bad = MINIMAL.replace("seed = 7", f"seed = 7\nmax_virtual_ms = {horizon}")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = [d for d in exc.value.diagnostics if d.field == "max_virtual_ms"]
        assert diag.message == "must be >= 1"


class TestValidateCommand:
    def test_ok_exit_zero(self, capsys):
        assert main(["validate", str(builtin_scenario_path())]) == 0
        assert "ok:" in capsys.readouterr().out

    def test_invalid_exit_two(self, tmp_path, capsys):
        path = write(tmp_path, MINIMAL.replace("f_min = 2", "f_min = 0"))
        assert main(["validate", str(path)]) == 2
        assert "f_min" in capsys.readouterr().err

    def test_dimension_no_claim_constrains_exits_two(self, tmp_path, capsys):
        # Every claim constrains exactly the four claim dimensions, so a fifth
        # is diagnosed at its own section rather than aborting a run.
        text = builtin_scenario_path().read_text(encoding="utf-8")
        text += "\n[dimension memory_gb]\nkind = numeric\nbounds = 0, 64\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (text.splitlines().index("[dimension memory_gb]") + 1, "dimension")
        assert "'memory_gb'" in diag.message
        assert main(["validate", str(write(tmp_path, text))]) == 2
        assert "memory_gb" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.scenario")]) == 3

    @pytest.mark.parametrize(
        "key, value",
        [
            ("unit_demand", "constant, nan"),
            ("unit_demand", "constant, inf"),
            ("unit_demand", "uniform, 1, inf"),
            ("bounds", "-inf, 4"),
            ("status_update_interval_ms", "5000, 40000, 7"),
            ("speed_ghz", "0"),
            ("speed_ghz", "-0"),
            ("unit_demand", "constant, 1e308"),
        ],
    )
    def test_hostile_value_is_diagnosed_on_its_field(self, tmp_path, capsys, key, value):
        # Non-finite numbers, surplus list items, a speed no unit could run
        # at and a demand no unit could finish, each set on the first line
        # of its key in the built-in scenario.
        lines = builtin_scenario_path().read_text(encoding="utf-8").splitlines()
        at = next(i for i, line in enumerate(lines) if line.startswith(f"{key} ="))
        lines[at] = f"{key} = {value}"
        text = "\n".join(lines) + "\n"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert any(d.field == key and d.line == at + 1 for d in exc.value.diagnostics)
        assert main(["validate", str(write(tmp_path, text))]) == 2
        assert f"line {at + 1}: {key}: " in capsys.readouterr().err

    def test_speed_too_small_for_its_demands_is_diagnosed_on_each_demand(self, tmp_path, capsys):
        # 5e-324 GHz is a positive speed inside the bounds, but a unit of a
        # workload submitted there would run for an infinite time.
        lines = builtin_scenario_path().read_text(encoding="utf-8").splitlines()
        cloud = lines.index("[cloud cloud-1]")
        speed = next(i for i in range(cloud, len(lines)) if lines[i].startswith("speed_ghz ="))
        lines[speed] = "speed_ghz = 5e-324"
        text = "\n".join(lines) + "\n"
        demands = [
            i + 1
            for i, line in enumerate(lines)
            if line.startswith("unit_demand =") and lines[i + 1] == "submit_cloud = cloud-1"
        ]
        assert len(demands) == 2
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert [(d.line, d.field) for d in exc.value.diagnostics] == [
            (line, "unit_demand") for line in demands
        ]
        assert main(["validate", str(write(tmp_path, text))]) == 2
        assert "no finite run time" in capsys.readouterr().err


class TestRunCommand:
    def test_outputs_written_with_exact_headers(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "response_times.csv").read_text().splitlines()[0] == (
            "cloud_id,model,granularity,response_time_s"
        )
        assert (out / "jobs_by_cloud.csv").read_text().splitlines()[0] == (
            "cloud_id,service_type,jobs_completed"
        )
        assert (out / "job_share.csv").read_text().splitlines()[0] == (
            "cloud_id,task_pct,thread_pct"
        )
        summary = json.loads((out / "summary.json").read_text())
        assert summary["seed"] == 7
        assert summary["stranded_claims"] == []

    def test_byte_identical_reruns(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["run", str(path), "--out", str(a)]) == 0
        assert main(["run", str(path), "--out", str(b)]) == 0
        for name in ("summary.json", "response_times.csv", "jobs_by_cloud.csv", "job_share.csv"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        a, b = tmp_path / "a", tmp_path / "b"
        main(["run", str(path), "--out", str(a)])
        main(["run", str(path), "--seed", "99", "--out", str(b)])
        assert (a / "summary.json").read_bytes() != (b / "summary.json").read_bytes()

    def test_empty_workloads_emit_headers_only(self, tmp_path):
        text = MINIMAL.split("[workload")[0]
        path = write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out)]) == 0
        assert (out / "response_times.csv").read_text() == (
            "cloud_id,model,granularity,response_time_s\n"
        )

    def test_stranded_claims_exit_five(self, tmp_path, capsys):
        text = MINIMAL.replace(
            "service_types = P2PTaskExecution, P2PThreadExecution",
            "service_types = P2PThreadExecution",
        )
        path = write(tmp_path, text)
        assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 5
        err = capsys.readouterr().err
        assert "stranded claims (4)" in err
        assert "app-1#0" in err

    def test_json_format_writes_summary_only(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["run", str(path), "--out", str(out), "--format", "json"]) == 0
        assert (out / "summary.json").exists()
        assert not (out / "response_times.csv").exists()

    def test_fedmesh_out_env_is_default(self, tmp_path, monkeypatch):
        path = write(tmp_path, MINIMAL)
        target = tmp_path / "env-out"
        monkeypatch.setenv("FEDMESH_OUT", str(target))
        assert main(["run", str(path)]) == 0
        assert (target / "summary.json").exists()


class TestSweepCommand:
    def test_sweep_emits_five_rows_per_cloud_model(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        assert main(["sweep", str(path), "--model", "task", "--out", str(out)]) == 0
        lines = (out / "response_times.csv").read_text().splitlines()
        assert lines[0] == "cloud_id,model,granularity,response_time_s"
        rows = [line.split(",") for line in lines[1:]]
        assert [r[2] for r in rows if r[0] == "cloud-1" and r[1] == "task"] == [
            "25",
            "49",
            "81",
            "121",
            "169",
        ]

    def test_sweep_response_non_decreasing(self, tmp_path):
        path = write(tmp_path, MINIMAL)
        out = tmp_path / "out"
        main(["sweep", str(path), "--model", "task", "--out", str(out)])
        lines = (out / "response_times.csv").read_text().splitlines()[1:]
        values = [float(line.split(",")[3]) for line in lines]
        assert values == sorted(values)


class TestOracleCommand:
    def test_oracle_passes(self, capsys):
        assert main(["oracle", "--trials", "300", "--dims", "3", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert out.count("[pass]") == 3

    def test_bad_trials_rejected(self):
        assert main(["oracle", "--trials", "0"]) == 2

    @pytest.mark.parametrize("dims", ["1", "0", "-1"])
    def test_dims_below_two_rejected(self, dims, capsys):
        assert main(["oracle", "--trials", "10", "--dims", dims]) == 2
        captured = capsys.readouterr()
        assert "--dims must be >= 2" in captured.err
        assert "[pass]" not in captured.out
        with pytest.raises(InvalidArgumentError, match="max_dims >= 2"):
            run_oracle_suites(10, int(dims), 5)

    def test_dims_past_the_cell_guard_rejected(self, capsys):
        # A random space has up to 4 slices per dimension, and 4**9 cells
        # exceed the scenario cell guard of 100,000: nothing is built.
        assert main(["oracle", "--trials", "10", "--dims", "9"]) == 2
        captured = capsys.readouterr()
        assert "100000 cells" in captured.err
        assert "[pass]" not in captured.out
        with pytest.raises(InvalidArgumentError, match="4\\*\\*max_dims"):
            run_oracle_suites(10, 9, 5)


BUILTIN_LINES = [
    line
    for line in builtin_scenario_path().read_text(encoding="utf-8").splitlines()
    if line.strip() and not line.startswith("#")
]
MUTANT_VALUES = (
    "", "0", "-1", "1", "3.5", "1e9", "nan", "inf", "x", ",", "a, b", "0, 0", "5, 1",
    "true", "numeric", "categorical", "full_p2p", "constant, 0", "uniform, 1", "cloud-1",
    "P2PTaskExecution", "constant, nan", "uniform, 1, inf", "-inf, 4", "1, 2, 3",
)
MUTANT_NAMES = ("", "x", "cloud-1", "speed_ghz", "two words")
MUTANT_LINES = (
    "[dimension]", "[cloud]", "[workload]", "[space]", "[latency]", "[bogus]", "[]", "[",
    "[bogus name]", "key = value", "junk",
)
AT = st.integers(0, 10**6)
MUTATIONS = st.one_of(
    st.tuples(st.just("value"), AT, st.sampled_from(MUTANT_VALUES)),
    st.tuples(st.just("rename"), AT, st.sampled_from(MUTANT_NAMES)),
    st.tuples(st.just("drop"), AT, st.none()),
    st.tuples(st.just("insert"), AT, st.sampled_from(MUTANT_LINES)),
    st.tuples(st.just("duplicate"), AT, st.none()),
)


def mutate(lines: list[str], op: str, at: int, arg: str | None) -> None:
    """Apply one edit in place; value and rename pick among key lines and
    section headers respectively."""
    if op == "insert":
        lines.insert(at % (len(lines) + 1), arg)
        return
    if op in ("value", "rename"):
        header = op == "rename"
        candidates = [i for i, line in enumerate(lines) if line.startswith("[") == header]
        if not candidates:
            return
        i = candidates[at % len(candidates)]
        if header:
            lines[i] = f"[{lines[i].strip('[]').split(' ')[0]} {arg}]"
        elif "=" in lines[i]:
            lines[i] = f"{lines[i].partition('=')[0]}= {arg}"
        return
    if lines:
        i = at % len(lines)
        if op == "drop":
            del lines[i]
        else:
            lines.insert(i, lines[i])


@settings(max_examples=300, derandomize=True, deadline=None)
@given(st.lists(MUTATIONS, min_size=1, max_size=6))
def test_property_mutated_builtin_scenario_parses_or_is_diagnosed(mutations):
    lines = list(BUILTIN_LINES)
    for mutation in mutations:
        mutate(lines, *mutation)
    try:
        result = parse_scenario("\n".join(lines))
    except ScenarioError as exc:
        assert exc.diagnostics
        # Each diagnostic points at the whole file, a section header, a line
        # of its own key, or is a syntax error.
        for diag in exc.diagnostics:
            text = lines[diag.line - 1].strip() if diag.line else ""
            assert (
                diag.line == 0
                or text.startswith("[")
                or text.partition("=")[0].strip() == diag.field
                or diag.field == "syntax"
            ), diag
    else:
        assert isinstance(result, Scenario)


def imported_modules(module) -> set[str]:
    """Every module a source file imports, including under TYPE_CHECKING;
    package-relative names keep their leading dots."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            names.add(base)
            if node.module is None:
                names.update(base + alias.name for alias in node.names)
    return names


def test_library_defines_nothing_that_only_tests_use():
    """Code only tests use lives in oracles.py or under tests/: every
    top-level function or class and every non-dunder method of the other
    modules is referenced from src/ or bench/ (re-exports do not count), and
    every annotated field of a dataclass or NamedTuple is read there as an
    attribute (a name-based check: a read of any object's attribute of the
    same name counts)."""
    package = Path(fedmesh.config.__file__).parent
    sources = [p for p in package.glob("*.py") if p.name != "__init__.py"]
    referenced: set[str] = set()
    read: set[str] = set()
    for path in sources + list((package.parents[1] / "bench").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
                if isinstance(node.ctx, ast.Load):
                    read.add(node.attr)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                referenced.update(alias.name.rsplit(".", 1)[-1] for alias in node.names)

    def is_record(cls: ast.ClassDef) -> bool:
        decorators = [d.func if isinstance(d, ast.Call) else d for d in cls.decorator_list]
        return any(isinstance(d, ast.Name) and d.id == "dataclass" for d in decorators) or any(
            isinstance(b, ast.Name) and b.id == "NamedTuple" for b in cls.bases
        )

    allowed = {
        # Churn: mid-run leaves are exercised by tests until the simulator
        # schedules them itself.
        "overlay.OverlayMembership.leave",
        # When a claim was served: tests read it, and the planned per-run
        # telemetry (claim wait from post to match) will.
        "coordination.AllocationDecision.decided_at",
    }
    unused = []
    for path in sorted(sources):
        if path.name == "oracles.py":
            continue
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            names = [node.name]
            if isinstance(node, ast.ClassDef):
                names += [
                    f"{node.name}.{m.name}"
                    for m in node.body
                    if isinstance(m, ast.FunctionDef)
                    and not (m.name.startswith("__") and m.name.endswith("__"))
                ]
            unused += [
                f"{path.stem}.{name}"
                for name in names
                if name.rsplit(".", 1)[-1] not in referenced
            ]
            if isinstance(node, ast.ClassDef) and is_record(node):
                unused += [
                    f"{path.stem}.{node.name}.{field.target.id}"
                    for field in node.body
                    if isinstance(field, ast.AnnAssign)
                    and isinstance(field.target, ast.Name)
                    and field.target.id not in read
                ]
    assert sorted(set(unused) - allowed) == []


def test_parser_and_federation_do_not_import_each_other():
    assert not imported_modules(fedmesh.scenario) & {".federation", "fedmesh.federation"}
    assert not imported_modules(fedmesh.federation) & {".scenario", "fedmesh.scenario"}
    internal = {name for name in imported_modules(fedmesh.config) if name.startswith(".")}
    assert internal == {".errors", ".spatial", ".workloads"}
