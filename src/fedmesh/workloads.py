"""Synthetic task/thread workload generation and run metrics.

Workloads mirror parameter-sweep applications partitioned into rows x cols
independent units. The two programming models behave identically in the
simulator except for the execution-service label their claims request.
Each unit's demand is one draw from its application's demand interval; a
constant demand is an interval of one point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple

from .coordination import AllocationDecision, new_record
from .engine import RngStream
from .errors import InvalidArgumentError

TASK = "task"
THREAD = "thread"
MODELS = (TASK, THREAD)

SERVICE_LABELS = {TASK: "P2PTaskExecution", THREAD: "P2PThreadExecution"}

SWEEP_SIZES = (5, 7, 9, 11, 13)


@dataclass(frozen=True)
class DemandDistribution:
    """Per-unit service demand in GHz-seconds, uniform on [lo, hi]. A
    constant demand v is the interval [v, v], from which a draw is v and
    consumes no randomness."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not 0 < self.lo <= self.hi < math.inf:
            raise InvalidArgumentError("demand bounds must satisfy 0 < lo <= hi < inf")

    @classmethod
    def constant(cls, value: float) -> "DemandDistribution":
        return cls(value, value)


class _WorkloadSpecFields(NamedTuple):
    model: str
    rows: int
    cols: int
    unit_demand: DemandDistribution
    submit_cloud: str
    submit_time_ms: int = 0
    app_id: str | None = None


class WorkloadSpec(_WorkloadSpecFields):
    """One application: a rows x cols partition of one model, submitted to
    one cloud at one virtual time.

    A tuple record whose constructor checks the model, ``rows, cols >= 1``
    and ``submit_time_ms >= 0``; coordination.new_record builds it without
    the check.
    """

    __slots__ = ()

    def __new__(
        cls, model: str, rows: int, cols: int, unit_demand: DemandDistribution,
        submit_cloud: str, submit_time_ms: int = 0, app_id: str | None = None,
    ) -> WorkloadSpec:
        if model not in MODELS:
            raise InvalidArgumentError(f"model must be one of {MODELS}, got {model!r}")
        if rows < 1 or cols < 1:
            raise InvalidArgumentError("rows and cols must be >= 1")
        if submit_time_ms < 0:
            raise InvalidArgumentError("submit_time_ms must be >= 0")
        fields = (model, rows, cols, unit_demand, submit_cloud, submit_time_ms, app_id)
        return tuple.__new__(cls, fields)

    @property
    def unit_count(self) -> int:
        return self.rows * self.cols

    @property
    def resolved_app_id(self) -> str:
        if self.app_id is not None:
            return self.app_id
        return f"{self.submit_cloud}/{self.model}-{self.rows}x{self.cols}"


class WorkUnit(NamedTuple):
    unit_id: str
    app_id: str
    model: str
    demand_ghz_s: float


def generate_units(spec: WorkloadSpec, seed: int) -> list[WorkUnit]:
    """rows x cols independent units with seeded per-unit demands."""
    app_id = spec.resolved_app_id
    draw = RngStream(seed, f"workload/{app_id}").uniform
    lo, hi = spec.unit_demand.lo, spec.unit_demand.hi
    return [
        new_record(WorkUnit, (f"{app_id}#{k}", app_id, spec.model, draw(lo, hi)))
        for k in range(spec.unit_count)
    ]


@dataclass
class MetricsSink:
    """Aggregates emitted by one simulation run.

    Everything here is a pure aggregation of the event trace; counters only
    ever grow while the run is in flight. Completions are counted once, per
    (cloud, model): per-label and per-model totals are derived from that
    counter where they are reported. Submissions are read from the
    federation state's application handles, which hold each model and unit
    count.
    """

    response_times: dict[str, float] = field(default_factory=dict)
    completed_by_model: dict[tuple[str, str], int] = field(default_factory=dict)
    decisions: list[AllocationDecision] = field(default_factory=list)
    stale_tickets: int = 0
    tickets_published: int = 0

    def record_decision(self, decision: AllocationDecision) -> None:
        self.decisions.append(decision)

    def record_completion(self, cloud_id: str, model: str) -> None:
        key = (cloud_id, model)
        self.completed_by_model[key] = self.completed_by_model.get(key, 0) + 1

    def record_response(self, app_id: str, seconds: float) -> None:
        self.response_times[app_id] = seconds

    def completed_per_model(self) -> dict[str, int]:
        """Completed units per model, summed over clouds."""
        totals = dict.fromkeys(MODELS, 0)
        for (_, model), count in self.completed_by_model.items():
            totals[model] += count
        return totals


@dataclass(frozen=True)
class JobShare:
    """Per-cloud completed-job percentages, one column per model."""

    shares: dict[str, tuple[float, float]]
    zero_models: tuple[str, ...]


def job_share_percent(sink: MetricsSink, cloud_ids: tuple[str, ...]) -> JobShare:
    """Normalize per-cloud completed counts to 100% per model.

    A model that ran no jobs at all reports 0 for every cloud and is flagged
    instead of dividing by zero.
    """
    totals = sink.completed_per_model()
    zero_models = tuple(m for m in MODELS if totals[m] == 0)
    shares: dict[str, tuple[float, float]] = {}
    for cloud in cloud_ids:
        row = []
        for model in MODELS:
            done = sink.completed_by_model.get((cloud, model), 0)
            row.append(0.0 if totals[model] == 0 else 100.0 * done / totals[model])
        shares[cloud] = (row[0], row[1])
    return JobShare(shares=shares, zero_models=zero_models)
