"""Scenario files: a line-oriented format describing one federation setup.

Grammar (hand-editable, diff-friendly). A comment takes a line of its own:
a ``#`` after a value is part of the value, since a label may contain one.

    # comment lines and blank lines are ignored
    # top-level keys come before any section
    schema_version = 1
    seed = 42
    eager_tickets = true
    inbox_capacity = 1000
    max_virtual_ms = 1000000000

    [space]
    f_min = 3
    # optional; if present, must equal f_min: cells are never subdivided
    f_max = 3

    # the order of dimension sections is the dimension order of the space
    [dimension service_type]
    kind = categorical
    labels = P2PTaskExecution, P2PThreadExecution

    [dimension processors]
    kind = numeric
    bounds = 1, 8

    [dimension cpu_type]
    kind = categorical
    labels = Intel, AMD

    [dimension speed_ghz]
    kind = numeric
    bounds = 0, 4

    [latency]
    intra_cloud_ms = 1
    inter_cloud_ms = 5

    [cloud cloud-1]
    nodes = 4
    speed_ghz = 2.4
    cpu_type = Intel
    # distinct labels of the service_type dimension
    service_types = P2PTaskExecution, P2PThreadExecution
    status_update_interval_ms = 5000, 40000
    # or full_p2p
    topology = hub

    # the section id is the application id
    [workload cloud-1-task]
    # or thread
    model = task
    rows = 5
    cols = 5
    # or: constant, 4.8
    unit_demand = uniform, 3.0, 6.0
    submit_cloud = cloud-1
    submit_time_ms = 0

Scenarios that declare no cloud are diagnosed. Every scenario must define
exactly the four dimensions the scheduling services build claims from, and
no others: service_type and cpu_type (categorical), processors and speed_ghz
(numeric). Every number must be finite: a nan or inf bound, speed or demand
is diagnosed like any other bad value.

``_KEYS`` is the single declaration of the format: every key of every
section with its converter and its default, or None where the key is
required. A key's converter is its domain: a value outside it is diagnosed
at its own line as "expected ..., got ..." and reads as the key's default.
One reader converts a section against the table, so a key is added, renamed,
given a default or a domain there and nowhere else. ``_Builder`` holds only
the rules that relate two keys or sections: a present f_max equal to f_min,
the guards, the four dimensions, a cloud's point inside the space (diagnosed
at the line of the key holding the value), a model's service label, a
workload's submit cloud and run time, and unique peer ids.

A parse converts each distinct text once per converter: ``_Builder`` keeps
one memo, keyed by (converter, raw text), of the texts that converted. Every
value it holds is immutable (a number, string, tuple or frozen
DemandDistribution), so sections share them. A text that fails is not kept,
so it is diagnosed again at every line it appears on. The workload
converters hold each field to its ``WorkloadSpec`` domain, and a section's
name, the spec's non-empty app_id, is required, so each spec is built
unchecked, with ``coordination.new_record``.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources
from pathlib import Path

from .config import (
    DEFAULT_MAX_VIRTUAL_MS,
    DIM_CPU,
    DIM_PROCESSORS,
    DIM_SERVICE,
    DIM_SPEED,
    FULL_P2P,
    HUB,
    REQUIRED_DIMS,
    SCHEMA_VERSION,
    TOPOLOGIES,
    CloudConfig,
    LatencyModel,
    Scenario,
)
from .coordination import new_record
from .engine import DEFAULT_INBOX_CAPACITY
from .errors import DomainError, FedmeshError, InvalidArgumentError
from .spatial import CATEGORICAL, NUMERIC, AttributeSpace, DimensionSpec, normalize
from .workloads import MODELS, SERVICE_LABELS, DemandDistribution, WorkloadSpec

MAX_CELLS = 100_000  # f_min**dim: the most cells one claim is replicated to
MAX_UNITS = 1_000_000  # over all workloads: submit builds every unit of an app at once
MAX_NODES = 100_000  # over all clouds: deploy builds every node, its stream and timer at once


def _bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


def _items(raw: str) -> tuple[str, ...]:
    items = tuple(map(str.strip, raw.split(",")))
    if not all(items):
        raise ValueError(raw)
    return items


def _distinct(raw: str) -> tuple[str, ...]:
    items = _items(raw)
    if len(set(items)) < len(items):
        raise ValueError(raw)
    return items


def _bounds(raw: str) -> tuple[float, float]:
    lo, hi = map(float, _items(raw))
    return lo, hi


def _interval(raw: str) -> tuple[int, int]:
    lo, hi = map(int, _items(raw))
    if not 1 <= lo <= hi:
        raise ValueError(raw)
    return lo, hi


def _demand(raw: str) -> DemandDistribution:
    items = _items(raw)
    if items[0] == "constant" and len(items) == 2:
        return DemandDistribution.constant(float(items[1]))
    if items[0] == "uniform" and len(items) == 3:
        return DemandDistribution(float(items[1]), float(items[2]))
    raise ValueError(raw)


_EXPECTED = {
    int: "an integer",
    float: "a number",
    _bool: "true or false",
    _items: "a list without empty items",
    _distinct: "a list without empty or repeated items",
    _bounds: "'lo, hi' numbers",
    _interval: "'lo, hi' integers, 1 <= lo <= hi",
    _demand: "'constant, X' or 'uniform, LO, HI'",
}


def _at_least(least: int):
    def convert(raw: str) -> int:
        if (value := int(raw)) < least:
            raise ValueError(raw)
        return value

    _EXPECTED[convert] = f"an integer >= {least}"
    return convert


def _one_of(*options: str):
    def convert(raw: str) -> str:
        if raw not in options:
            raise ValueError(raw)
        return raw

    _EXPECTED[convert] = " or ".join(options)
    return convert


_POSITIVE, _NON_NEGATIVE = _at_least(1), _at_least(0)
_KIND = _one_of(NUMERIC, CATEGORICAL)

# The file format: section kind -> key -> (converter, default), where a
# default of None marks a required key. A dimension's keys depend on its
# kind; "dimension" holds those of a section whose kind is missing or wrong
# (for a claim dimension, the other kind is wrong), whose bounds and labels
# are then left unchecked: only its kind is diagnosed.
# f_max may be left out; a present one has to equal f_min, and one that does
# not convert reads as 0, so it is diagnosed at [space] too.
_KEYS = {
    "top": {
        "schema_version": (int, None),
        "seed": (int, None),
        "eager_tickets": (_bool, True),
        "inbox_capacity": (_POSITIVE, DEFAULT_INBOX_CAPACITY),
        "max_virtual_ms": (_POSITIVE, DEFAULT_MAX_VIRTUAL_MS),
    },
    "space": {"f_min": (_POSITIVE, None), "f_max": (int, 0)},
    "dimension": {"kind": (_KIND, None), "bounds": (str, ""), "labels": (str, "")},
    NUMERIC: {"kind": (_KIND, None), "bounds": (_bounds, None)},
    CATEGORICAL: {"kind": (_KIND, None), "labels": (_items, None)},
    "latency": {
        "intra_cloud_ms": (_NON_NEGATIVE, LatencyModel.intra_cloud_ms),
        "inter_cloud_ms": (_NON_NEGATIVE, LatencyModel.inter_cloud_ms),
    },
    "cloud": {
        "nodes": (_POSITIVE, None),
        "speed_ghz": (float, None),
        "cpu_type": (str, None),
        "service_types": (_distinct, None),
        "status_update_interval_ms": (_interval, None),
        "topology": (_one_of(*TOPOLOGIES), CloudConfig.topology),
    },
    "workload": {
        "model": (_one_of(*MODELS), None),
        "rows": (_POSITIVE, None),
        "cols": (_POSITIVE, None),
        "unit_demand": (_demand, None),
        "submit_cloud": (str, None),
        "submit_time_ms": (_NON_NEGATIVE, 0),
    },
}

# Section types and what a section's name is; None marks a section that
# takes no name and may appear once.
_NAMES = {
    "space": None, "dimension": "dimension", "latency": None,
    "cloud": "cloud id", "workload": "workload id",
}


@dataclass(frozen=True)
class Diagnostic:
    line: int
    field: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.field}: {self.message}"


class ScenarioError(FedmeshError):
    """Raised when a scenario fails to parse or validate."""

    def __init__(self, source: str, diagnostics: list[Diagnostic]) -> None:
        self.source = source
        self.diagnostics = diagnostics
        summary = "; ".join(str(d) for d in diagnostics[:5])
        extra = "" if len(diagnostics) <= 5 else f" (+{len(diagnostics) - 5} more)"
        super().__init__(f"{source}: {summary}{extra}")


class _Section:
    def __init__(self, line: int, name: str) -> None:
        self.line = line
        self.name = name
        self.entries: dict[str, tuple[int, str]] = {}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and fully validate scenario text; raises ScenarioError."""
    diags: list[Diagnostic] = []
    top = _Section(0, "")
    sections: dict[str, list[_Section]] = {kind: [] for kind in _NAMES}
    seen: set[tuple[str, str]] = set()
    entries = top.entries

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        first = line[0]
        if first == "#":
            continue
        if first == "[":
            if not line.endswith("]"):
                diags.append(Diagnostic(lineno, "section", "missing closing ']'"))
                continue
            parts = line[1:-1].split(None, 1)
            kind = parts[0] if parts else ""
            name = parts[1].strip() if len(parts) > 1 else ""
            # A section that is diagnosed here is not built: its keys are dropped.
            current = _Section(lineno, name)
            entries = current.entries
            named = _NAMES.get(kind)
            ident = (kind, name if named else "")  # a header's name is ignored where none is taken
            if kind not in _NAMES:
                diags.append(Diagnostic(lineno, "section", f"unknown section type {kind!r}"))
            elif named and not name:
                diags.append(Diagnostic(lineno, "section", f"[{kind}] needs a name"))
            elif ident in seen:
                what = f"{named} {name!r}" if named else f"[{kind}] section"
                diags.append(Diagnostic(lineno, kind, f"duplicate {what}"))
            else:
                seen.add(ident)
                sections[kind].append(current)
            continue
        key, equals, value = line.partition("=")
        if not equals:
            diags.append(Diagnostic(lineno, "syntax", f"expected 'key = value', got {line!r}"))
            continue
        key = key.rstrip()  # the line is stripped, so only the inner sides of "=" are left
        if key in entries:
            diags.append(Diagnostic(lineno, key, "duplicate key in this section"))
        entries[key] = (lineno, value.lstrip())

    scenario = _Builder(diags).build(top, sections)
    if diags:
        raise ScenarioError(source, diags)
    assert scenario is not None
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    """Read and parse a UTF-8 scenario file, with or without a leading
    byte-order mark; raises ScenarioError, or OSError when the file cannot be
    read."""
    path = Path(path)
    data = path.read_bytes()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        message = f"not UTF-8 at byte {exc.start}: {exc.reason}"
        raise ScenarioError(str(path), [Diagnostic(line, "encoding", message)]) from None
    # Not the utf-8-sig codec: its error offsets count from after the mark.
    return parse_scenario(text.removeprefix("\ufeff"), source=str(path))


def builtin_scenario_path(name: str = "melbourne-5") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    filename = name.replace("-", "") + ".scenario"
    ref = resources.files("fedmesh") / "scenarios" / filename
    return Path(str(ref))


class _Builder:
    def __init__(self, diags: list[Diagnostic]) -> None:
        self.diags = diags
        # (converter, raw text) -> value, for the texts that converted.
        self.memo: dict[tuple, object] = {}

    def error(self, line: int, field: str, message: str) -> None:
        self.diags.append(Diagnostic(line, field, message))

    def read(self, section: _Section, kind: str) -> dict:
        """The section's values converted against ``_KEYS[kind]``, by key.

        A missing required key is diagnosed at the section line, a value
        that does not convert at its key's line; both read as the key's
        default. Each key the table does not list is diagnosed too. A text
        converts once per parse: a bad one is converted, and diagnosed, again
        at each line it appears on.
        """
        entries = section.entries
        table = _KEYS[kind]
        memo = self.memo
        values = {}
        for key, (convert, default) in table.items():
            got = entries.get(key)
            if got is None:
                if default is None:
                    self.error(section.line, key, "required key missing")
                values[key] = default
                continue
            line, raw = got
            value = memo.get((convert, raw))
            if value is None:  # a miss, since no converter returns None; stays None on failure
                try:
                    value = memo[convert, raw] = convert(raw)
                except InvalidArgumentError as exc:
                    self.error(line, key, f"{exc}, got {raw}")
                except ValueError:
                    self.error(line, key, f"expected {_EXPECTED[convert]}, got {raw!r}")
            values[key] = default if value is None else value
        if not entries.keys() <= table.keys():
            for key, (line, _) in entries.items():
                if key not in table:
                    self.error(line, key, "unknown key for this section")
        return values

    def build(self, top: _Section, sections: dict[str, list[_Section]]) -> Scenario | None:
        settings = self.read(top, "top")
        version = settings.pop("schema_version")
        if version is not None and version != SCHEMA_VERSION:
            self.error(top.line, "schema_version", f"unsupported version {version}")

        f_min = 0
        if not sections["space"]:
            self.error(0, "space", "missing [space] section")
        else:
            sec = sections["space"][0]
            values = self.read(sec, "space")
            f_min = values["f_min"] or 0
            if f_min and "f_max" in sec.entries and values["f_max"] != f_min:
                message = f"must equal f_min = {f_min}: cells are never subdivided"
                self.error(sec.line, "f_max", message)

        dims = self.build_dims(sections["dimension"])
        if f_min ** len(dims) > MAX_CELLS:
            message = f"f_min**dim = {f_min ** len(dims)} exceeds the {MAX_CELLS} cell guard"
            self.error(sections["space"][0].line, "f_min", message)

        latency = LatencyModel()
        for sec in sections["latency"]:  # at most one: a repeat is diagnosed and dropped
            latency = LatencyModel(**self.read(sec, "latency"))
        clouds = self.build_clouds(sections["cloud"], sections["dimension"], dims)
        workloads = self.build_workloads(
            sections["workload"], sections["cloud"], clouds, dims, settings["max_virtual_ms"]
        )

        if self.diags:
            return None
        return Scenario(
            **settings, f_min=f_min, dims=tuple(dims), latency=latency,
            clouds=tuple(clouds), workloads=tuple(workloads),
        )

    def build_dims(self, sections: list[_Section]) -> list[DimensionSpec]:
        dims: list[DimensionSpec] = []
        for sec in sections:
            kind = sec.entries.get("kind", (0, None))[1]
            valid = kind in (NUMERIC, CATEGORICAL)
            required = REQUIRED_DIMS.get(sec.name, kind)
            # A missing or wrong kind, or a claim dimension declared as the
            # other kind, is diagnosed against the kind alone.
            values = self.read(sec, kind if valid and kind == required else "dimension")
            if valid and kind != required:
                message = f"expected {required} for claim dimension {sec.name!r}, got {kind!r}"
                self.error(sec.entries["kind"][0], "kind", message)
                continue
            if any(value is None for value in values.values()):
                continue
            try:
                dims.append(DimensionSpec(sec.name, **values))
            except InvalidArgumentError as exc:
                key = "bounds" if kind == NUMERIC else "labels"
                line, raw = sec.entries[key]
                self.error(line, key, f"{exc}, got {raw}")
        return dims

    def build_clouds(
        self, sections: list[_Section], dim_sections: list[_Section], dims: list[DimensionSpec]
    ) -> list[CloudConfig]:
        # The claim dimensions that are declared without fault.
        index = {d.name: i for i, d in enumerate(dims) if d.name in REQUIRED_DIMS}
        if not sections:
            self.error(0, "cloud", "missing [cloud] section")
        # A claim dimension is diagnosed here when it is missing; any fault
        # of one that is declared is, in its own section.
        declared = {sec.name for sec in dim_sections}
        for name, kind in REQUIRED_DIMS.items():
            if name not in declared:
                self.error(0, "dimension", f"clouds require a {kind} dimension {name!r}")
        for sec in dim_sections:
            if sec.name not in REQUIRED_DIMS:
                self.error(sec.line, "dimension", f"{sec.name!r} is not one of {sorted(REQUIRED_DIMS)}")
        # normalize reads only the dimensions of the space, not its f_min.
        space = AttributeSpace(tuple(dims), 1) if len(index) == len(REQUIRED_DIMS) else None
        clouds: list[CloudConfig] = []
        total_nodes = 0
        for sec in sections:
            values = self.read(sec, "cloud")
            if any(value is None for value in values.values()):
                continue
            nodes = values["nodes"]
            total_nodes += nodes
            if total_nodes > MAX_NODES >= total_nodes - nodes:
                self.error(sec.line, "nodes", f"{total_nodes} nodes exceed the {MAX_NODES} node guard")
            before = len(self.diags)
            if space is not None:
                # The point of each node and label, as map_ticket checks it at
                # run time; a node has one processor.
                line = sec.entries["service_types"][0]
                point = [
                    (DIM_SERVICE, label, line, "service_types") for label in values["service_types"]
                ]
                point += [
                    (DIM_CPU, values["cpu_type"], sec.entries["cpu_type"][0], "cpu_type"),
                    (DIM_SPEED, values["speed_ghz"], sec.entries["speed_ghz"][0], "speed_ghz"),
                    (DIM_PROCESSORS, 1, sec.line, "nodes"),
                ]
                for dim, value, line, field in point:
                    try:
                        normalize(space, index[dim], value)
                    except DomainError as exc:
                        self.error(line, field, str(exc))
            if len(self.diags) > before:
                continue
            try:  # values are in _KEYS order, the field order after cloud_id
                clouds.append(CloudConfig(sec.name, *values.values()))
            except InvalidArgumentError as exc:  # the speed: converters and the code above check the rest
                self.error(sec.entries["speed_ghz"][0], "speed_ghz", str(exc))
        # A hub cloud joins the overlay under its own id and a full_p2p cloud
        # under its node ids (CloudConfig.peer_ids), so no two may share one.
        hubs = {c.cloud_id for c in clouds if c.topology == HUB}
        peers = {peer: c.cloud_id for c in clouds if c.topology == FULL_P2P for peer in c.peer_ids}
        for sec in sections:
            if sec.name in hubs and sec.name in peers:
                owner = peers[sec.name]
                message = f"hub cloud {sec.name!r} has the peer id of a node of full_p2p cloud {owner!r}"
                self.error(sec.line, "cloud", message)
        return clouds

    def build_workloads(
        self,
        sections: list[_Section],
        cloud_sections: list[_Section],
        clouds: list[CloudConfig],
        dims: list[DimensionSpec],
        horizon: int,
    ) -> list[WorkloadSpec]:
        labels = next((d.labels for d in dims if d.name == DIM_SERVICE and d.labels), ())
        cloud_ids = {s.name for s in cloud_sections}  # a cloud with its own error is still declared
        speeds = {c.cloud_id: c.node_speed_ghz for c in clouds}
        workloads: list[WorkloadSpec] = []
        units = 0
        for sec in sections:
            values = self.read(sec, "workload")
            if any(value is None for value in values.values()):
                continue
            model, rows, cols = values["model"], values["rows"], values["cols"]
            if labels and SERVICE_LABELS[model] not in labels:
                self.error(
                    sec.line, "model",
                    f"{SERVICE_LABELS[model]!r} is not a {DIM_SERVICE} label, "
                    f"so {model} claims could never be expressed",
                )
                continue
            units += rows * cols
            if units > MAX_UNITS >= units - rows * cols:
                self.error(sec.line, "rows", f"{units} units exceed the {MAX_UNITS} unit guard")
                continue
            submit_cloud = values["submit_cloud"]
            if submit_cloud not in cloud_ids:
                self.error(sec.line, "submit_cloud", f"unknown cloud {submit_cloud!r}")
                continue
            # Claims ask for at least the submitting cloud's speed, and accept
            # its own nodes, so a unit may run as long as its largest demand
            # takes there, from its submit time on; ending past the horizon
            # (or at an infinite run time) it never completes. A cloud with an
            # error of its own has no speed to check.
            hi, speed = values["unit_demand"].hi, speeds.get(submit_cloud)
            at = values["submit_time_ms"]
            if speed is not None and not at + hi / speed * 1000 <= horizon:
                line = sec.entries["unit_demand"][0]
                message = f"submitted at {at} ms, {hi} GHz-s at {speed} GHz takes {hi / speed * 1000:g} ms"
                self.error(line, "unit_demand", f"{message}, past max_virtual_ms = {horizon}")
                continue
            # The converters hold every field to its domain and the section
            # name, the app_id, is never empty, so the spec is built
            # unchecked; values are in _KEYS order, the field order.
            workloads.append(new_record(WorkloadSpec, (*values.values(), sec.name)))
        return workloads
