"""Federation configuration: the validated setup one simulation runs from.

The scenario parser builds these values and the federation consumes them, so
they live below both: neither module needs the other.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import InvalidArgumentError
from .spatial import CATEGORICAL, NUMERIC, AttributeSpace, DimensionSpec
from .workloads import WorkloadSpec

HUB = "hub"
FULL_P2P = "full_p2p"
TOPOLOGIES = (HUB, FULL_P2P)

DEFAULT_MAX_VIRTUAL_MS = 1_000_000_000

# Dimension names the scheduling services rely on when building claims and
# tickets; scenario validation guarantees they exist with the right kinds.
DIM_SERVICE = "service_type"
DIM_PROCESSORS = "processors"
DIM_CPU = "cpu_type"
DIM_SPEED = "speed_ghz"

REQUIRED_DIMS = {
    DIM_SERVICE: CATEGORICAL,
    DIM_CPU: CATEGORICAL,
    DIM_PROCESSORS: NUMERIC,
    DIM_SPEED: NUMERIC,
}


@dataclass(frozen=True)
class LatencyModel:
    intra_cloud_ms: int = 1
    inter_cloud_ms: int = 5

    def between(self, cloud_a: str, cloud_b: str) -> int:
        return self.intra_cloud_ms if cloud_a == cloud_b else self.inter_cloud_ms


@dataclass(frozen=True)
class CloudConfig:
    cloud_id: str
    node_count: int
    node_speed_ghz: float
    cpu_type: str
    service_types: tuple[str, ...]
    status_update_interval_ms: tuple[int, int]
    topology: str = HUB

    def __post_init__(self) -> None:
        if self.node_count < 1:
            raise InvalidArgumentError(f"{self.cloud_id}: node_count must be >= 1")
        if self.topology not in TOPOLOGIES:
            raise InvalidArgumentError(f"{self.cloud_id}: unknown topology {self.topology!r}")
        lo, hi = self.status_update_interval_ms
        if lo < 1 or hi < lo:
            raise InvalidArgumentError(f"{self.cloud_id}: bad status interval [{lo}, {hi}]")
        if not self.service_types:
            raise InvalidArgumentError(f"{self.cloud_id}: at least one service type required")


@dataclass(frozen=True)
class Scenario:
    schema_version: int
    seed: int
    eager_tickets: bool
    inbox_capacity: int
    max_virtual_ms: int
    f_min: int
    dims: tuple[DimensionSpec, ...]
    latency: LatencyModel
    clouds: tuple[CloudConfig, ...]
    workloads: tuple[WorkloadSpec, ...]

    def space(self) -> AttributeSpace:
        return AttributeSpace(dims=self.dims, f_min=self.f_min)

    def with_seed(self, seed: int) -> "Scenario":
        return replace(self, seed=seed)
