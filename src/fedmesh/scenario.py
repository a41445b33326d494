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
    # must equal f_min: cells are never subdivided
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

Scenarios that declare clouds must define exactly the four dimensions the
scheduling services build claims from, and no others: service_type and
cpu_type (categorical), processors and speed_ghz (numeric). Every number must
be finite: a nan or inf bound, speed or demand is diagnosed like any other
bad value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Callable

from .config import (
    DIM_CPU,
    DIM_PROCESSORS,
    DIM_SERVICE,
    DIM_SPEED,
    DEFAULT_MAX_VIRTUAL_MS,
    REQUIRED_DIMS,
    TOPOLOGIES,
    CloudConfig,
    LatencyModel,
    Scenario,
)
from .errors import FedmeshError, InvalidArgumentError
from .spatial import CATEGORICAL, NUMERIC, DimensionSpec
from .workloads import MODELS, SERVICE_LABELS, DemandDistribution, WorkloadSpec

SCHEMA_VERSION = 1
MAX_CELLS = 100_000
MAX_UNITS = 1_000_000  # over all workloads: submit builds every unit of an app at once
MAX_NODES = 100_000  # over all clouds: deploy builds every node, its stream and timer at once


def _bool(raw: str) -> bool:
    if raw not in ("true", "false"):
        raise ValueError(raw)
    return raw == "true"


_EXPECTED = {int: "an integer", float: "a number", _bool: "true or false"}


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
    def __init__(self, line: int, kind: str, name: str) -> None:
        self.line = line
        self.kind = kind
        self.name = name
        self.entries: dict[str, tuple[int, str]] = {}


def parse_scenario(text: str, source: str = "<string>") -> Scenario:
    """Parse and fully validate scenario text; raises ScenarioError."""
    diags: list[Diagnostic] = []
    top = _Section(0, "top", "")
    sections: list[_Section] = []
    current = top

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                diags.append(Diagnostic(lineno, "section", "missing closing ']'"))
                continue
            header = line[1:-1].strip()
            parts = header.split(None, 1)
            kind = parts[0] if parts else ""
            name = parts[1].strip() if len(parts) > 1 else ""
            if kind not in ("space", "dimension", "latency", "cloud", "workload"):
                diags.append(Diagnostic(lineno, "section", f"unknown section type {kind!r}"))
                current = _Section(lineno, "ignored", name)
                continue
            if kind in ("dimension", "cloud", "workload") and not name:
                diags.append(Diagnostic(lineno, "section", f"[{kind}] needs a name"))
            current = _Section(lineno, kind, name)
            sections.append(current)
            continue
        if "=" not in line:
            diags.append(Diagnostic(lineno, "syntax", f"expected 'key = value', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key in current.entries:
            diags.append(Diagnostic(lineno, key, "duplicate key in this section"))
        current.entries[key] = (lineno, value)

    builder = _Builder(diags)
    scenario = builder.build(top, sections)
    if diags:
        raise ScenarioError(source, diags)
    assert scenario is not None
    return scenario


def load_scenario(path: str | Path) -> Scenario:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    return parse_scenario(text, source=str(path))


def builtin_scenario_path(name: str = "melbourne-5") -> Path:
    """Filesystem path of a scenario shipped with the package."""
    filename = name.replace("-", "") + ".scenario"
    ref = resources.files("fedmesh") / "scenarios" / filename
    return Path(str(ref))


class _Builder:
    def __init__(self, diags: list[Diagnostic]) -> None:
        self.diags = diags

    def error(self, line: int, field: str, message: str) -> None:
        self.diags.append(Diagnostic(line, field, message))

    def get(self, section: _Section, key: str, convert: Callable = str, default=None):
        """Pop and convert one key; a missing key without a default and an
        unconvertible value are diagnosed, and both give the default."""
        if key not in section.entries:
            if default is None:
                self.error(section.line, key, "required key missing")
            return default
        line, raw = section.entries.pop(key)
        try:
            return convert(raw)
        except ValueError:
            self.error(line, key, f"expected {_EXPECTED[convert]}, got {raw!r}")
            return default

    def get_list(self, section: _Section, key: str) -> tuple[int, list[str]] | None:
        if key not in section.entries:
            self.error(section.line, key, "required key missing")
            return None
        line, raw = section.entries.pop(key)
        items = [item.strip() for item in raw.split(",")]
        if any(not item for item in items):
            self.error(line, key, "empty list item")
            return None
        return line, items

    def leftover(self, section: _Section) -> None:
        for key, (line, _) in section.entries.items():
            self.error(line, key, "unknown key for this section")

    def build(self, top: _Section, sections: list[_Section]) -> Scenario | None:
        version = self.get(top, "schema_version", int)
        seed = self.get(top, "seed", int)
        eager = self.get(top, "eager_tickets", _bool, True)
        inbox = self.get(top, "inbox_capacity", int, 1000)
        horizon = self.get(top, "max_virtual_ms", int, DEFAULT_MAX_VIRTUAL_MS)
        self.leftover(top)
        if version is not None and version != SCHEMA_VERSION:
            self.error(top.line, "schema_version", f"unsupported version {version}")
        if inbox is not None and inbox < 1:
            self.error(top.line, "inbox_capacity", "must be >= 1")
        if horizon is not None and horizon < 1:
            self.error(top.line, "max_virtual_ms", "must be >= 1")

        f_min = 0
        space_sections = [s for s in sections if s.kind == "space"]
        if not space_sections:
            self.error(0, "space", "missing [space] section")
        else:
            if len(space_sections) > 1:
                self.error(space_sections[1].line, "space", "duplicate [space] section")
            sec = space_sections[0]
            f_min = self.get(sec, "f_min", int) or 0
            has_f_max = "f_max" in sec.entries
            f_max = self.get(sec, "f_max", int, f_min)
            if f_min >= 1 and (not has_f_max or f_max != f_min):
                self.error(
                    sec.line,
                    "f_max",
                    f"must be present and equal f_min = {f_min}: cells are never subdivided",
                )
            self.leftover(sec)
            if f_min < 1:
                self.error(sec.line, "f_min", f"must be >= 1, got {f_min}")

        dim_sections = [s for s in sections if s.kind == "dimension"]
        dims = self.build_dims(dim_sections)
        if dims and f_min >= 1 and f_min ** len(dims) > MAX_CELLS:
            self.error(
                space_sections[0].line if space_sections else 0,
                "f_min",
                f"f_min**dim = {f_min ** len(dims)} exceeds the {MAX_CELLS} cell guard",
            )

        latency = self.build_latency([s for s in sections if s.kind == "latency"])
        cloud_sections = [s for s in sections if s.kind == "cloud"]
        clouds = self.build_clouds(cloud_sections, dims, dim_sections)
        service_labels: tuple[str, ...] = ()
        for spec in dims:
            if spec.name == DIM_SERVICE and spec.labels is not None:
                service_labels = spec.labels
        workloads = self.build_workloads(
            [s for s in sections if s.kind == "workload"],
            {s.name for s in cloud_sections},  # a cloud with its own error is still declared
            service_labels,
        )

        if self.diags:
            return None
        return Scenario(
            schema_version=version or SCHEMA_VERSION,
            seed=seed if seed is not None else 0,
            eager_tickets=eager,
            inbox_capacity=inbox or 1000,
            max_virtual_ms=horizon,
            f_min=f_min,
            dims=tuple(dims),
            latency=latency,
            clouds=tuple(clouds),
            workloads=tuple(workloads),
        )

    def build_dims(self, sections: list[_Section]) -> list[DimensionSpec]:
        dims: list[DimensionSpec] = []
        seen: set[str] = set()
        for sec in sections:
            if not sec.name:
                continue  # "needs a name" is already diagnosed
            if sec.name in seen:
                self.error(sec.line, "dimension", f"duplicate dimension {sec.name!r}")
                continue
            seen.add(sec.name)
            kind = self.get(sec, "kind")
            if kind == NUMERIC:
                got = self.get_list(sec, "bounds")
                self.leftover(sec)
                if got is None:
                    continue
                line, items = got
                try:
                    lo, hi = map(float, items)
                except ValueError:
                    self.error(line, "bounds", f"expected 'lo, hi' numbers, got {items}")
                    continue
                if not -math.inf < lo < hi < math.inf:
                    self.error(line, "bounds", f"need finite lo < hi, got {lo}, {hi}")
                    continue
                dims.append(DimensionSpec(name=sec.name, kind=NUMERIC, bounds=(lo, hi)))
            elif kind == CATEGORICAL:
                got = self.get_list(sec, "labels")
                self.leftover(sec)
                if got is None:
                    continue
                line, items = got
                if len(set(items)) != len(items):
                    self.error(line, "labels", "labels must be unique")
                    continue
                dims.append(DimensionSpec(name=sec.name, kind=CATEGORICAL, labels=tuple(items)))
            elif kind is not None:
                self.error(sec.line, "kind", f"expected numeric or categorical, got {kind!r}")
                self.leftover(sec)
        return dims

    def build_latency(self, sections: list[_Section]) -> LatencyModel:
        if not sections:
            return LatencyModel()
        if len(sections) > 1:
            self.error(sections[1].line, "latency", "duplicate [latency] section")
        sec = sections[0]
        intra = self.get(sec, "intra_cloud_ms", int, 1)
        inter = self.get(sec, "inter_cloud_ms", int, 5)
        self.leftover(sec)
        if intra is not None and intra < 0 or inter is not None and inter < 0:
            self.error(sec.line, "latency", "latencies must be >= 0")
            return LatencyModel()
        return LatencyModel(intra_cloud_ms=intra, inter_cloud_ms=inter)

    def build_clouds(
        self, sections: list[_Section], dims: list[DimensionSpec], dim_sections: list[_Section]
    ) -> list[CloudConfig]:
        by_name = {d.name: d for d in dims}
        if sections:
            for name, kind in REQUIRED_DIMS.items():
                spec = by_name.get(name)
                if spec is None:
                    self.error(0, "dimension", f"clouds require a {kind} dimension {name!r}")
                elif spec.kind != kind:
                    self.error(0, "dimension", f"dimension {name!r} must be {kind}")
            for sec in dim_sections:
                if sec.name and sec.name not in REQUIRED_DIMS:
                    self.error(
                        sec.line, "dimension", f"{sec.name!r} is not one of {sorted(REQUIRED_DIMS)}"
                    )
        clouds: list[CloudConfig] = []
        seen: set[str] = set()
        total_nodes = 0
        for sec in sections:
            if sec.name in seen:
                self.error(sec.line, "cloud", f"duplicate cloud id {sec.name!r}")
                continue
            seen.add(sec.name)
            nodes = self.get(sec, "nodes", int)
            speed = self.get(sec, "speed_ghz", float)
            cpu = self.get(sec, "cpu_type")
            services = self.get_list(sec, "service_types")
            interval = self.get_list(sec, "status_update_interval_ms")
            topology = self.get(sec, "topology", default="hub")
            self.leftover(sec)
            if None in (nodes, speed, cpu) or services is None or interval is None:
                continue
            if nodes < 1:
                self.error(sec.line, "nodes", f"must be >= 1, got {nodes}")
                continue
            total_nodes += nodes
            if total_nodes > MAX_NODES >= total_nodes - nodes:
                self.error(sec.line, "nodes", f"{total_nodes} nodes exceed the {MAX_NODES} node guard")
            if topology not in TOPOLOGIES:
                self.error(sec.line, "topology", f"expected hub or full_p2p, got {topology!r}")
                continue
            iline, iitems = interval
            try:
                lo, hi = map(int, iitems)
            except ValueError:
                self.error(iline, "status_update_interval_ms", "expected 'lo, hi' integers")
                continue
            if lo < 1 or hi < lo:
                self.error(iline, "status_update_interval_ms", f"need 1 <= lo <= hi, got {lo}, {hi}")
                continue
            sline, slabels = services
            sdim = by_name.get(DIM_SERVICE)
            if sdim is not None and sdim.labels is not None:
                for label in slabels:
                    if label not in sdim.labels:
                        self.error(sline, "service_types", f"{label!r} not a {DIM_SERVICE} label")
            cdim = by_name.get(DIM_CPU)
            if cdim is not None and cdim.labels is not None and cpu not in cdim.labels:
                self.error(sec.line, "cpu_type", f"{cpu!r} not a {DIM_CPU} label")
            vdim = by_name.get(DIM_SPEED)
            if vdim is not None and vdim.bounds is not None:
                lo_b, hi_b = vdim.bounds
                if not lo_b <= speed <= hi_b:
                    self.error(sec.line, "speed_ghz", f"{speed} outside {DIM_SPEED} bounds")
            pdim = by_name.get(DIM_PROCESSORS)
            if pdim is not None and pdim.bounds is not None:
                lo_b, hi_b = pdim.bounds
                if not lo_b <= 1 <= hi_b:
                    self.error(sec.line, "nodes", f"{DIM_PROCESSORS} bounds must include 1")
            clouds.append(
                CloudConfig(
                    cloud_id=sec.name,
                    node_count=nodes,
                    node_speed_ghz=speed,
                    cpu_type=cpu,
                    service_types=tuple(slabels),
                    status_update_interval_ms=(lo, hi),
                    topology=topology,
                )
            )
        return clouds

    def build_workloads(
        self, sections: list[_Section], cloud_ids: set[str], service_labels: tuple[str, ...]
    ) -> list[WorkloadSpec]:
        workloads: list[WorkloadSpec] = []
        seen: set[str] = set()
        units = 0
        for sec in sections:
            if sec.name in seen:
                self.error(sec.line, "workload", f"duplicate workload id {sec.name!r}")
                continue
            seen.add(sec.name)
            model = self.get(sec, "model")
            rows = self.get(sec, "rows", int)
            cols = self.get(sec, "cols", int)
            demand = self.get_list(sec, "unit_demand")
            submit_cloud = self.get(sec, "submit_cloud")
            submit_time = self.get(sec, "submit_time_ms", int, 0)
            self.leftover(sec)
            if None in (model, rows, cols, submit_cloud) or demand is None:
                continue
            if model not in MODELS:
                self.error(sec.line, "model", f"expected one of {MODELS}, got {model!r}")
                continue
            if service_labels and SERVICE_LABELS[model] not in service_labels:
                self.error(
                    sec.line, "model",
                    f"{SERVICE_LABELS[model]!r} is not a {DIM_SERVICE} label, "
                    f"so {model} claims could never be expressed",
                )
                continue
            if rows < 1 or cols < 1:
                self.error(sec.line, "rows", "rows and cols must be >= 1")
                continue
            units += rows * cols
            if units > MAX_UNITS >= units - rows * cols:
                self.error(sec.line, "rows", f"{units} units exceed the {MAX_UNITS} unit guard")
                continue
            if submit_cloud not in cloud_ids:
                self.error(sec.line, "submit_cloud", f"unknown cloud {submit_cloud!r}")
                continue
            if submit_time < 0:
                self.error(sec.line, "submit_time_ms", "must be >= 0")
                continue
            dline, ditems = demand
            dist = self.parse_demand(dline, ditems)
            if dist is None:
                continue
            workloads.append(
                WorkloadSpec(
                    model=model,
                    rows=rows,
                    cols=cols,
                    unit_demand=dist,
                    submit_cloud=submit_cloud,
                    submit_time_ms=submit_time,
                    app_id=sec.name,
                )
            )
        return workloads

    def parse_demand(self, line: int, items: list[str]) -> DemandDistribution | None:
        try:
            if items[0] == "constant" and len(items) == 2:
                return DemandDistribution.constant(float(items[1]))
            if items[0] == "uniform" and len(items) == 3:
                return DemandDistribution.uniform(float(items[1]), float(items[2]))
        except InvalidArgumentError as exc:
            self.error(line, "unit_demand", f"{exc}, got {', '.join(items[1:])}")
            return None
        except ValueError:
            pass
        self.error(line, "unit_demand", "expected 'constant, X' or 'uniform, LO, HI'")
        return None
