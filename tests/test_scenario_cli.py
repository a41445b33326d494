from __future__ import annotations

import ast
import json
import re
import textwrap
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fedmesh.cli
import fedmesh.config
import fedmesh.federation
import fedmesh.scenario
from fedmesh import (
    InvalidArgumentError,
    Scenario,
    ScenarioError,
    SimulationError,
    builtin_scenario_path,
    load_scenario,
    parse_scenario,
)
from fedmesh.cli import EXIT_ORACLE_FAILED, main
from fedmesh.experiments import run_sweep
from fedmesh.federation import deploy_federation, run_to_quiescence
from fedmesh.oracles import SuiteReport, run_oracle_suites
from fedmesh.workloads import MODELS, SERVICE_LABELS, SWEEP_SIZES, DemandDistribution, WorkloadSpec

from support import assert_served_once_or_stranded

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


# One value outside its key's domain each: (line of MINIMAL, what replaces it).
DOMAIN_FAULTS = [
    ("seed = 7", "seed = 7\ninbox_capacity = 0"),
    ("seed = 7", "seed = 7\nmax_virtual_ms = 0"),
    ("f_min = 2", "f_min = 0"),
    ("[cloud cloud-1]", "[latency]\nintra_cloud_ms = -1\n\n[cloud cloud-1]"),
    ("nodes = 2", "nodes = 0"),
    ("nodes = 2", "nodes = 2\ntopology = ring"),
    ("status_update_interval_ms = 1000, 2000", "status_update_interval_ms = 5, 1"),
    ("status_update_interval_ms = 1000, 2000", "status_update_interval_ms = 0, 5"),
    ("model = task", "model = x"),
    ("rows = 2", "rows = 0"),
    ("cols = 2", "cols = 0"),
    ("submit_cloud = cloud-1", "submit_cloud = cloud-1\nsubmit_time_ms = -1"),
    ("kind = numeric", "kind = x"),
]


def bad_line(line: str, fault: str) -> str:
    """The one ``key = value`` line a domain fault adds."""
    (added,) = [new for new in fault.splitlines() if " = " in new and new != line]
    return added


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
        "line, fault", DOMAIN_FAULTS, ids=[bad_line(*case) for case in DOMAIN_FAULTS]
    )
    def test_value_outside_its_domain_is_diagnosed_at_its_own_line(self, line, fault):
        # Its section is still declared, so nothing that refers to it is
        # diagnosed too.
        bad = MINIMAL.replace(line, fault, 1)
        key, _, value = bad_line(line, fault).partition(" = ")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = [d for d in exc.value.diagnostics if d.field == key]
        assert diag.line == bad.splitlines().index(f"{key} = {value}") + 1
        assert diag.message.startswith("expected ") and diag.message.endswith(f", got {value!r}")
        assert exc.value.diagnostics == [diag]

    @pytest.mark.parametrize(
        "line, fault, at",
        [
            ("kind = numeric\n", "", "[dimension processors]"),
            ("kind = categorical", "kind = x", "kind = x"),
            ("kind = categorical\n", "", "[dimension service_type]"),
            ("bounds = 1, 8", "bounds = 8, 1", "bounds = 8, 1"),
            ("labels = Intel\n", "", "[dimension cpu_type]"),
        ],
        ids=["no numeric", "wrong categorical", "no categorical", "bounds", "labels"],
    )
    def test_faulty_claim_dimension_is_diagnosed_in_its_section_only(self, line, fault, at):
        # Its bounds or labels are not unknown keys, and the claim dimension
        # is declared, so it is not reported missing at line 0 either. A
        # wrong numeric kind is one of the domain faults above.
        bad = MINIMAL.replace(line, fault, 1)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = exc.value.diagnostics
        assert diag.field == line.split(" = ")[0]
        assert diag.line == bad.splitlines().index(at) + 1

    @pytest.mark.parametrize(
        "section, fault, diagnostic",
        [
            (
                "[dimension processors]\nkind = numeric\nbounds = 1, 8",
                "[dimension processors]\nkind = categorical\nlabels = 1, 8",
                "line {}: kind: expected numeric for claim dimension 'processors', got 'categorical'",
            ),
            (
                "[dimension service_type]\nkind = categorical",
                "[dimension service_type]\nkind = numeric",
                "line {}: kind: expected categorical for claim dimension 'service_type', got 'numeric'",
            ),
            (
                "[dimension processors]\nkind = numeric\nbounds = 1, 8",
                "",
                "line 0: dimension: clouds require a numeric dimension 'processors'",
            ),
        ],
        ids=["other kind, numeric", "other kind, categorical", "undeclared"],
    )
    def test_claim_dimension_of_the_other_kind_or_none_is_diagnosed_once(
        self, section, fault, diagnostic
    ):
        # The other kind is diagnosed at the kind line alone, the line after
        # the header: the section's bounds or labels are left unchecked, and
        # the dimension is declared.
        kind_line = MINIMAL.splitlines().index(section.split("\n")[0]) + 2
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(MINIMAL.replace(section, fault, 1))
        assert [str(d) for d in exc.value.diagnostics] == [diagnostic.format(kind_line)]

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

    @pytest.mark.parametrize(
        "space", ["f_min = 2\nf_max = 3", "f_min = 2\nf_max = 0", "f_min = 2\nf_max = x"]
    )
    def test_f_max_must_equal_f_min(self, space):
        # One that does not convert reads as 0, so it is diagnosed at its
        # own line and at [space].
        bad = MINIMAL.replace("f_min = 2\nf_max = 2", space)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        (diag,) = [d for d in exc.value.diagnostics if "never subdivided" in d.message]
        assert (diag.line, diag.field) == (MINIMAL.splitlines().index("[space]") + 1, "f_max")
        assert diag.message == "must equal f_min = 2: cells are never subdivided"

    def test_f_max_may_be_left_out(self):
        # It changes nothing, so leaving it out gives the same scenario.
        assert parse_scenario(MINIMAL.replace("f_max = 2\n", "")) == parse_scenario(MINIMAL)

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

    def check_diagnosed_at_each_cloud(self, key, good, bad):
        # A cloud value outside the space is diagnosed at its key's own line,
        # in every cloud that holds it.
        second = (
            "\n[cloud cloud-2]\nnodes = 1\nspeed_ghz = 2.4\ncpu_type = Intel\n"
            "service_types = P2PTaskExecution\nstatus_update_interval_ms = 1000, 2000\n"
        )
        text = (MINIMAL + second).replace(f"{key} = {good}", f"{key} = {bad}")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        lines = text.splitlines()
        at = [i + 1 for i, line in enumerate(lines) if line == f"{key} = {bad}"]
        assert len(at) == 2
        assert sorted((d.line, d.field) for d in exc.value.diagnostics) == [(n, key) for n in at]
        assert all(bad in d.message for d in exc.value.diagnostics)

    def test_a_shared_invalid_value_is_diagnosed_at_each_cloud(self):
        self.check_diagnosed_at_each_cloud("cpu_type", "Intel", "AMD")

    def test_a_shared_out_of_bounds_speed_is_diagnosed_at_each_cloud(self):
        self.check_diagnosed_at_each_cloud("speed_ghz", "2.4", "4.5")

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
        if default == "optional":  # a key that changes nothing when left out
            assert parse_scenario(text) == parse_scenario(MINIMAL)
            return
        if default != "required":
            assert str(getattr(owner(parse_scenario(text)), key)).lower() == default
            return
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        missing = [d for d in exc.value.diagnostics if d.message == "required key missing"]
        assert [(d.line, d.field) for d in missing] == [(at, key)]

    @pytest.mark.parametrize("horizon", ["0", "-5"])
    def test_horizon_below_one_is_diagnosed(self, horizon):
        bad = MINIMAL.replace("seed = 7", f"seed = 7\nmax_virtual_ms = {horizon}")
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(bad)
        # The only diagnostic, at its own line: the bad value reads as the
        # default horizon, which every workload's run time fits in.
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field, diag.message) == (
            3, "max_virtual_ms", f"expected an integer >= 1, got {horizon!r}"
        )

    @pytest.mark.parametrize(
        "good, bad, message",
        [
            (
                "unit_demand = constant, 4.8", "unit_demand = uniform, 6.0, 3.0",
                "demand bounds must satisfy 0 < lo <= hi < inf, got uniform, 6.0, 3.0",
            ),
            (
                "unit_demand = constant, 4.8", "unit_demand = constant, x",
                "expected 'constant, X' or 'uniform, LO, HI', got 'constant, x'",
            ),
            # A key with a default: the text that failed must not read as it.
            (
                "submit_cloud = cloud-1", "submit_cloud = cloud-1\nsubmit_time_ms = -5",
                "expected an integer >= 0, got '-5'",
            ),
        ],
        ids=["domain", "syntax", "defaulted"],
    )
    def test_repeated_bad_value_is_diagnosed_at_each_line(self, good, bad, message):
        # Values convert once per parse, but a bad one is never kept, so
        # each of its lines gets its own diagnostic.
        section = MINIMAL[MINIMAL.index("[workload app-1]"):]
        text = "\n".join([MINIMAL, section.replace("app-1", "app-2"), section.replace("app-1", "app-3")])
        text = text.replace(good, bad)
        field = bad.rpartition("\n")[2].partition(" =")[0]
        lines = [i for i, line in enumerate(text.splitlines(), start=1) if line.startswith(f"{field} =")]
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert len(lines) == 3
        assert [(d.line, d.field, d.message) for d in exc.value.diagnostics] == [
            (line, field, message) for line in lines
        ]

    def test_parsed_workload_specs_equal_checked_ones(self):
        # The parser builds specs unchecked, in _KEYS order: each must be
        # the spec the checked constructor builds from its fields.
        assert (*fedmesh.scenario._KEYS["workload"], "app_id") == WorkloadSpec._fields
        sections = "".join(
            f"[workload app-{i}]\nmodel = {MODELS[i % 2]}\nrows = {1 + i % 3}\ncols = {1 + i % 4}\n"
            f"unit_demand = {('constant, 4.8', 'uniform, 1.5, 6.0', 'constant, 2')[i % 3]}\n"
            f"submit_cloud = cloud-1\n" + (f"submit_time_ms = {i % 7 * 10}\n" if i % 5 else "")
            for i in range(2, 201)
        )
        built = parse_scenario(MINIMAL + sections).workloads
        builtin = load_scenario(builtin_scenario_path()).workloads
        assert len(built) == 200
        for spec in built + builtin:
            assert type(spec) is WorkloadSpec
            assert WorkloadSpec(**spec._asdict()) == spec

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("model", "batch", "model must be one of"),
            ("rows", 0, "rows and cols must be >= 1"),
            ("cols", 0, "rows and cols must be >= 1"),
            ("submit_time_ms", -1, "submit_time_ms must be >= 0"),
        ],
    )
    def test_workload_spec_constructor_checks_its_fields(self, field, value, message):
        spec = parse_scenario(MINIMAL).workloads[0]
        with pytest.raises(InvalidArgumentError, match=message):
            WorkloadSpec(**{**spec._asdict(), field: value})


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

    @pytest.mark.parametrize(
        "dimensions", ["", "[dimension service_type]\nkind = categorical\nlabels = P2PTaskExecution\n"],
        ids=["no dimension", "one dimension"],
    )
    def test_scenario_without_clouds_exits_two(self, tmp_path, capsys, dimensions):
        # Deploy needs a peer to own the cells and every claim dimension, so
        # both are diagnosed rather than aborting a run.
        text = f"schema_version = 1\nseed = 7\n\n[space]\nf_min = 2\nf_max = 2\n\n{dimensions}"
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        diags = [(d.line, d.field, d.message) for d in exc.value.diagnostics]
        assert (0, "cloud", "missing [cloud] section") in diags
        assert main(["validate", str(write(tmp_path, text))]) == 2
        assert "missing [cloud] section" in capsys.readouterr().err

    @pytest.mark.parametrize("hub_first", [False, True], ids=["p2p first", "hub first"])
    def test_hub_cloud_named_as_a_full_p2p_node_exits_two(self, tmp_path, capsys, hub_first):
        # Node 0 of full_p2p cloud x joins the overlay as x/n0, the peer id
        # hub cloud x/n0 would join under.
        def cloud(name, topology):
            return (
                f"\n[cloud {name}]\nnodes = 1\nspeed_ghz = 2.4\ncpu_type = Intel\n"
                "service_types = P2PTaskExecution\nstatus_update_interval_ms = 5000, 40000\n"
                f"topology = {topology}\n"
            )

        clouds = [cloud("x", "full_p2p"), cloud("x/n0", "hub")]
        text = builtin_scenario_path().read_text(encoding="utf-8")
        text += "".join(clouds[::-1] if hub_first else clouds)
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (text.splitlines().index("[cloud x/n0]") + 1, "cloud")
        assert "'x/n0'" in diag.message and "'x'" in diag.message
        assert main(["validate", str(write(tmp_path, text))]) == 2
        # x has no node 1, so a hub cloud x/n1 joins under a peer id of its own.
        fedmesh.federation.FederationState(parse_scenario(text.replace("[cloud x/n0]", "[cloud x/n1]")))

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["validate", str(tmp_path / "absent.scenario")]) == 3

    @pytest.mark.parametrize("command", ["validate", "run", "sweep"])
    def test_file_that_is_not_utf8_exits_two_at_its_line(self, tmp_path, capsys, command):
        path = tmp_path / "latin.scenario"
        path.write_bytes(b"seed = 1\n\xff\xfe bad\n")
        with pytest.raises(ScenarioError) as exc:
            load_scenario(path)
        (diag,) = exc.value.diagnostics
        assert (diag.line, diag.field) == (2, "encoding")
        out = tmp_path / "out"
        options = {"validate": [], "run": ["--out", str(out)], "sweep": ["--model", "task", "--out", str(out)]}
        assert main([command, str(path), *options[command]]) == 2
        assert capsys.readouterr().err == f"{path}: line 2: encoding: {diag.message}\n"
        assert not out.exists()

    def test_file_with_a_byte_order_mark_loads_as_without(self, tmp_path):
        plain = builtin_scenario_path()
        path = tmp_path / "bom.scenario"
        path.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        assert main(["validate", str(path)]) == 0
        assert load_scenario(path) == load_scenario(plain)

    def test_byte_order_mark_counts_in_the_encoding_offset(self, tmp_path, capsys):
        path = tmp_path / "bom-latin.scenario"
        path.write_bytes(b"\xef\xbb\xbfseed = 1\n\xff x\n")
        assert main(["validate", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"{path}: line 2: encoding: not UTF-8 at byte 12")

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

    @pytest.mark.parametrize("ghz", ["5e-324", "1e-300"])
    def test_speed_too_small_for_its_demands_is_diagnosed_on_each_demand(
        self, tmp_path, capsys, ghz
    ):
        # Both are positive speeds inside the bounds, but a unit of a workload
        # submitted there would run for an infinite time (5e-324) or for
        # longer than the run's horizon (1e-300), and a claim accepts the
        # submitting cloud's own nodes.
        lines = builtin_scenario_path().read_text(encoding="utf-8").splitlines()
        cloud = lines.index("[cloud cloud-1]")
        speed = next(i for i in range(cloud, len(lines)) if lines[i].startswith("speed_ghz ="))
        lines[speed] = f"speed_ghz = {ghz}"
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
        assert f"GHz-s at {float(ghz)} GHz takes" in capsys.readouterr().err

    def test_demand_ending_past_the_horizon_from_its_submit_time_is_diagnosed(
        self, tmp_path, capsys
    ):
        # Every unit's run time fits in max_virtual_ms, but none fits after
        # a submission at 99000 ms, so a run could never complete.
        lines = builtin_scenario_path().read_text(encoding="utf-8").splitlines()
        lines = [
            "submit_time_ms = 99000" if line.startswith("submit_time_ms =") else line
            for line in lines
        ]
        lines.insert(lines.index("inbox_capacity = 1000") + 1, "max_virtual_ms = 100000")
        text = "\n".join(lines) + "\n"
        demands = [i + 1 for i, line in enumerate(lines) if line.startswith("unit_demand =")]
        assert len(demands) == 10
        with pytest.raises(ScenarioError) as exc:
            parse_scenario(text)
        assert [(d.line, d.field) for d in exc.value.diagnostics] == [
            (line, "unit_demand") for line in demands
        ]
        assert main(["validate", str(write(tmp_path, text))]) == 2
        err = capsys.readouterr().err
        assert "submitted at 99000 ms, 6.0 GHz-s at 2.4 GHz takes 2500 ms" in err
        # At 97000 ms every unit still ends inside the horizon.
        assert parse_scenario(text.replace("submit_time_ms = 99000", "submit_time_ms = 97000"))


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

    def test_constant_demand_is_a_one_point_uniform(self, tmp_path):
        outputs = []
        for demand in ("constant, 4.8", "uniform, 4.8, 4.8"):
            text = MINIMAL.replace("unit_demand = constant, 4.8", f"unit_demand = {demand}")
            assert parse_scenario(text) == parse_scenario(MINIMAL)
            out = tmp_path / demand.split(",")[0]
            assert main(["run", str(write(tmp_path, text)), "--out", str(out)]) == 0
            outputs.append({path.name: path.read_bytes() for path in out.iterdir()})
        assert outputs[0] == outputs[1] and len(outputs[0]) == 4
        with pytest.raises(InvalidArgumentError, match="0 < lo <= hi"):
            DemandDistribution(5, 4)

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
        for command, *options in (["run"], ["sweep", "--model", "task"]):
            out = tmp_path / command
            argv = [command, str(path), *options, "--out", str(out), "--format", "json"]
            assert main(argv) == 0
            assert [p.name for p in out.iterdir()] == ["summary.json"]

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

    def test_sweep_writes_one_row_per_application(self, tmp_path):
        # A second task application on cloud-1 shares every (cloud, model,
        # granularity) with the first: both rows are written, in submission
        # order, as a run writes them.
        text = builtin_scenario_path().read_text(encoding="utf-8") + (
            "\n[workload cloud-1-task-2]\nmodel = task\nrows = 5\ncols = 5\n"
            "unit_demand = uniform, 3.0, 6.0\nsubmit_cloud = cloud-1\nsubmit_time_ms = 5\n"
        )
        path, out = write(tmp_path, text), tmp_path / "out"
        assert main(["sweep", str(path), "--model", "task", "--out", str(out)]) == 0
        lines = (out / "response_times.csv").read_text().splitlines()[1:]
        sweep = run_sweep(parse_scenario(text), models=("task",))
        times = {size: run.state.metrics.response_times for size, run in sweep.runs.items()}
        assert [line for line in lines if line.startswith("cloud-1,task,")] == [
            f"cloud-1,task,{size * size},{times[size][app]:.3f}"
            for size in SWEEP_SIZES
            for app in ("cloud-1-task", "cloud-1-task-2")
        ]
        union = [row for run in sweep.runs.values() for row in run.responses() if row[1] == "task"]
        assert sorted(lines) == sorted(f"{c},{m},{g},{rt:.3f}" for c, m, g, rt in union)
        # The keyed view keeps the later-submitted of two applications.
        assert sweep.response["cloud-1", "task", 25] == times[5]["cloud-1-task-2"]

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

    def test_a_failing_suite_exits_one(self, capsys, monkeypatch):
        reports = [SuiteReport("rendezvous", 10, 0), SuiteReport("allocation", 10, 3)]
        monkeypatch.setattr(fedmesh.cli, "run_oracle_suites", lambda *args: reports)
        assert main(["oracle", "--trials", "10"]) == EXIT_ORACLE_FAILED == 1
        out = capsys.readouterr().out
        assert "rendezvous: 10 trials, 0 failures [pass]" in out
        assert "allocation: 10 trials, 3 failures [FAIL]" in out

    def test_bad_trials_rejected(self):
        assert main(["oracle", "--trials", "0"]) == 2

    @pytest.mark.parametrize("dims", ["1", "0", "-1"])
    def test_dims_below_two_rejected(self, dims, capsys):
        assert main(["oracle", "--trials", "10", "--dims", dims]) == 2
        captured = capsys.readouterr()
        assert f"--dims: oracle suites need max_dims >= 2, got {dims}" in captured.err
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
AT = st.integers(0, 10**6)
TOOLS_DIR = Path(__file__).resolve().parents[1] / "tools"


def test_property_mutated_builtin_scenario_parses_or_is_diagnosed(monkeypatch):
    # The mutation operators live with the parser diff tool, which draws its
    # cases from the same ones.
    monkeypatch.syspath_prepend(str(TOOLS_DIR))
    from scenario_diff import ARGS, mutate

    mutations = st.one_of(
        *(st.tuples(st.just(op), AT, st.sampled_from(args)) for op, args in ARGS.items())
    )

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(st.lists(mutations, min_size=1, max_size=6))
    def check(mutations):
        lines = list(BUILTIN_LINES)
        for mutation in mutations:
            mutate(lines, *mutation)
        try:
            result = parse_scenario("\n".join(lines))
        except ScenarioError as exc:
            assert exc.diagnostics
            # Each diagnostic points at the whole file, a section header, a
            # line of its own key, or is a syntax error.
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
            # The parser's point check and the deploy-time map_ticket agree.
            fedmesh.federation.FederationState(result)

    check()


KEYS = fedmesh.scenario._KEYS
CPU_LABELS = ("Intel", "AMD", "ARM")
BOTH_SERVICES = tuple(SERVICE_LABELS.values())


def integers(key, ctx):
    return st.integers(*ctx[key]).map(str)


def choose(key, ctx):
    return st.sampled_from(ctx[key])


def demands(key, ctx):
    ghz_s = st.floats(0.1, 6.0)
    constant = ghz_s.map(lambda x: f"constant, {x}")
    uniform = st.tuples(ghz_s, ghz_s).map(lambda xy: f"uniform, {min(xy)}, {max(xy)}")
    return st.one_of(constant, uniform)


# Text each converter of _KEYS accepts, as a function of the key and of what
# the scenario drawn so far allows (``ctx``): an integer key's (least, most),
# or the choices of a key whose value names a label, a kind or a cloud.
VALUES = {
    int: integers,
    fedmesh.scenario._POSITIVE: integers,
    fedmesh.scenario._NON_NEGATIVE: integers,
    float: lambda key, ctx: st.floats(0.5, 4.0).map(str),
    str: choose,
    fedmesh.scenario._KIND: choose,
    KEYS["cloud"]["topology"][0]: choose,
    KEYS["workload"]["model"][0]: choose,
    fedmesh.scenario._bool: lambda key, ctx: st.sampled_from(("true", "false")),
    fedmesh.scenario._items: lambda key, ctx: st.lists(
        st.sampled_from(ctx[key]), min_size=1, unique=True
    ).map(", ".join),
    # Every bound pair holds a node's one processor and any drawn speed.
    fedmesh.scenario._bounds: lambda key, ctx: st.sampled_from(("0, 4", "0.5, 8", "0, 16")),
    fedmesh.scenario._interval: lambda key, ctx: st.integers(100, 1000).flatmap(
        lambda lo: st.integers(lo, lo + 2000).map(lambda hi: f"{lo}, {hi}")
    ),
    fedmesh.scenario._demand: demands,
}
# The drawn part of each integer key's domain: small federations (at most 4
# clouds x 3 nodes and 3x3 workloads) on a coarse grid, inboxes no such run
# fills, and horizons that some units cannot finish within.
SPANS = {
    "schema_version": (1, 1), "seed": (0, 2**32 - 1), "inbox_capacity": (10**4, 10**6),
    "max_virtual_ms": (1000, 10**6), "f_min": (1, 3), "intra_cloud_ms": (0, 20),
    "inter_cloud_ms": (0, 20), "nodes": (1, 3), "rows": (1, 3), "cols": (1, 3),
    "submit_time_ms": (0, 3000),
}


def test_every_scenario_converter_has_a_generator():
    assert {convert for table in KEYS.values() for convert, _ in table.values()} <= VALUES.keys()


@st.composite
def scenario_texts(draw):
    """Scenario text drawn key by key from ``_KEYS``: each value from its
    converter's generator, and each key with a default sometimes left out.
    It keeps every rule that relates keys but one: a unit need not be able
    to finish within max_virtual_ms."""
    ctx = dict(SPANS, topology=fedmesh.config.TOPOLOGIES)
    sections = []

    def section(kind, header=None):
        values = {}
        for key, (convert, default) in KEYS[kind].items():
            if default is None or draw(st.booleans()):
                values[key] = draw(VALUES[convert](key, ctx))
                convert(values[key])  # the generator stays inside the domain
            if key == "f_min":  # f_max has to equal it
                ctx["f_max"] = (int(values[key]),) * 2
        lines = [f"{key} = {value}" for key, value in values.items()]
        sections.append("\n".join([header, *lines] if header else lines))
        return values

    section("top")
    section("space", "[space]")
    labels = {}
    for name in draw(st.permutations(sorted(fedmesh.config.REQUIRED_DIMS))):
        kind = fedmesh.config.REQUIRED_DIMS[name]
        ctx["kind"] = (kind,)
        ctx["labels"] = CPU_LABELS if name == "cpu_type" else BOTH_SERVICES
        labels[name] = section(kind, f"[dimension {name}]").get("labels", "").split(", ")
    if draw(st.booleans()):
        section("latency", "[latency]")
    ctx["cpu_type"], ctx["service_types"] = labels["cpu_type"], labels["service_type"]
    ctx["submit_cloud"] = [f"cloud-{i}" for i in range(draw(st.integers(1, 4)))]
    for cloud in ctx["submit_cloud"]:
        section("cloud", f"[cloud {cloud}]")
    ctx["model"] = [m for m in MODELS if SERVICE_LABELS[m] in labels["service_type"]]
    for app in range(draw(st.integers(1, 3))):
        section("workload", f"[workload app-{app}]")
    return "\n\n".join(sections) + "\n"


def test_property_drawn_scenario_runs_or_names_its_cause():
    # An accepted scenario deploys, then serves each unit some node can serve
    # exactly once, or stops at its horizon naming the targets with events
    # still pending. A rejected one breaks only the run-time rule.
    verdicts = Counter()

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(scenario_texts())
    def check(text):
        try:
            sc = parse_scenario(text)
        except ScenarioError as exc:
            verdicts["rejected"] += 1
            assert {d.field for d in exc.diagnostics} == {"unit_demand"}, exc.diagnostics
            return
        verdicts["accepted"] += 1
        state = deploy_federation(sc)
        try:
            report = run_to_quiescence(state)
        except SimulationError as exc:
            verdicts["horizon"] += 1
            assert re.search(r"events still pending for \d+ targets: \S+ \(\d+ pending\)", str(exc))
        else:
            assert_served_once_or_stranded(sc, state, report)

    check()
    assert verdicts["accepted"] >= verdicts["rejected"], verdicts


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
        # A peer's whole routing state, which route never builds: tests
        # check prefix tables and leaf sets on it, and bench/tracing.py
        # patches routing_state by name to count that routes make 0 calls.
        "overlay.OverlayMembership.routing_state",
        "overlay.RoutingState.leaf_set",
        "overlay.RoutingState.prefix_table",
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
